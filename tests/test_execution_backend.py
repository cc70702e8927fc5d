"""The unified ExecutionBackend layer: registry, worker resolution, map/submit
semantics, and the serial/thread/process equivalence matrix across the plan
pipeline and the round engine.

Only correctness is checked here: the process backend's wall-clock check
lives in ``benchmarks/bench_timing.py``, outside tier-1.
"""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FedSZCompressor, FedSZConfig, NetworkModel
from repro.fl import FederatedSimulation, FedSZUpdateCodec
from repro.fl.coordinator.records import deterministic_fields
from repro.fl.coordinator.transport import ShipTask, SimulatedTransport
from repro.nn import build_model
from repro.utils.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
    map_parallel,
    register_backend,
    resolve_worker_count,
)
from repro.utils.serialization import pack_bytes_dict, unpack_bytes_dict

BACKENDS = ("serial", "thread", "process")


# -- module-level task functions: the process backend's picklability contract --

def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"worker failed on {x}")


def _nested_process_map(xs: "list[int]") -> "list[int]":
    # a process map issued from inside a process worker must degrade to
    # sequential execution instead of forking grandchildren
    return map_parallel(_square, xs, max_workers=2, backend="process")


def _cpu_mask(_: int) -> "set[int]":
    return os.sched_getaffinity(0)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("serial", "thread", "process")

    def test_get_backend_by_name_and_instance(self):
        thread = get_backend("thread")
        assert isinstance(thread, ThreadBackend)
        assert get_backend(thread) is thread
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("process"), ProcessBackend)

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="serial, thread, process"):
            get_backend("mpi")

    def test_register_backend_requires_a_name(self):
        class Nameless(ThreadBackend):
            name = "base"
        with pytest.raises(ValueError, match="name"):
            register_backend(Nameless())

    def test_traits(self):
        assert get_backend("thread").gil_bound
        assert get_backend("thread").shared_memory
        assert not get_backend("process").gil_bound
        assert not get_backend("process").shared_memory
        assert not get_backend("serial").gil_bound
        assert get_backend("serial").shared_memory

    def test_pickles_arguments_trait_matrix(self):
        assert get_backend("process").pickles_arguments
        assert not get_backend("serial").pickles_arguments
        assert not get_backend("thread").pickles_arguments

    def test_backends_are_picklable(self):
        import pickle
        for name in BACKENDS:
            assert isinstance(pickle.loads(pickle.dumps(get_backend(name))),
                              ExecutionBackend)


class TestWorkerResolution:
    """Satellite regression: ``None`` resolves per backend, not per the old
    thread-only ``min(32, cpu_count + 4)`` heuristic."""

    def test_thread_default_keeps_executor_heuristic(self):
        expected = min(32, (os.cpu_count() or 1) + 4)
        assert resolve_worker_count(None, 1000, backend="thread") == expected

    def test_process_default_is_cpu_count_not_thread_heuristic(self):
        assert resolve_worker_count(None, 1000, backend="process") == (os.cpu_count() or 1)

    def test_serial_always_resolves_to_one(self):
        assert resolve_worker_count(None, 1000, backend="serial") == 1
        assert resolve_worker_count(8, 1000, backend="serial") == 1

    def test_backend_defaults_to_thread_for_compatibility(self):
        assert resolve_worker_count(None, 1000) == \
            resolve_worker_count(None, 1000, backend="thread")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clamped_to_items_and_floor_one(self, backend):
        assert resolve_worker_count(8, 3, backend=backend) in (1, 3)
        assert resolve_worker_count(8, 0, backend=backend) == 1
        assert resolve_worker_count(1, 10, backend=backend) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invalid_worker_count_rejected(self, backend):
        with pytest.raises(ValueError, match="workers"):
            resolve_worker_count(0, 4, backend=backend)


class TestMapSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_map_preserves_order(self, backend, workers):
        items = list(range(23))
        assert map_parallel(_square, items, max_workers=workers,
                            backend=backend) == [x * x for x in items]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_items(self, backend):
        assert map_parallel(_square, [], max_workers=4, backend=backend) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exceptions_propagate(self, backend):
        with pytest.raises(RuntimeError, match="worker failed"):
            map_parallel(_boom, [1, 2, 3], max_workers=2, backend=backend)

    def test_closures_work_on_shared_memory_backends(self):
        # only the process backend imposes the picklability contract
        acc = []
        for backend in ("serial", "thread"):
            assert map_parallel(lambda x: x + 1, [1, 2], backend=backend) == [2, 3]
            map_parallel(acc.append, [7], backend=backend)
        assert acc == [7, 7]

    def test_process_map_nested_in_process_worker_stays_flat(self):
        out = map_parallel(_nested_process_map, [[1, 2], [3, 4]],
                           max_workers=2, backend="process")
        assert out == [[1, 4], [9, 16]]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_executor_submit_semantics(self, backend):
        with get_backend(backend).executor(workers=2) as pool:
            futures = [pool.submit(_square, x) for x in (2, 3)]
            assert [f.result() for f in futures] == [4, 9]

    def test_serial_executor_wraps_exceptions(self):
        with get_backend("serial").executor() as pool:
            future = pool.submit(_boom, 1)
        with pytest.raises(RuntimeError, match="worker failed"):
            future.result()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="CPU masks are a Linux API")
    def test_process_workers_spread_but_not_pinned(self):
        # each worker moves once to a CPU of its own, then gets its full mask
        # back so the scheduler can still balance it
        masks = map_parallel(_cpu_mask, range(4), max_workers=2, backend="process")
        assert masks == [os.sched_getaffinity(0)] * 4


# -- equivalence matrix: every fan-out stage, every backend, bit-identical ----

class TestPipelineEquivalence:
    @pytest.fixture(scope="class")
    def state(self):
        return build_model("simplecnn", num_classes=10, in_channels=3,
                           image_size=16, seed=1).state_dict()

    def test_bitstreams_bit_identical_across_backends(self, state):
        reference = FedSZCompressor(FedSZConfig()).compress_state_dict(state)
        for backend in BACKENDS:
            for workers in (1, 2, 3):
                config = FedSZConfig(backend=backend, pipeline_workers=workers)
                fedsz = FedSZCompressor(config)
                payload = fedsz.compress_state_dict(state)
                assert payload == reference, (backend, workers)
                recon = fedsz.decompress_state_dict(payload)
                ref_recon = FedSZCompressor(FedSZConfig()).decompress_state_dict(reference)
                for key in ref_recon:
                    np.testing.assert_array_equal(recon[key], ref_recon[key])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_mixed_dtype_state_bit_identical(self, backend, workers):
        # float64 weights and an empty tensor beside the float32 ones
        rng = np.random.default_rng(5)
        state = {"conv.weight": rng.normal(0, 1, (64, 3, 3, 3)).astype(np.float32),
                 "conv.bias": rng.normal(0, 1, 64).astype(np.float32),
                 "head.weight": rng.normal(0, 0.1, (50, 800)).astype(np.float64),
                 "empty": np.zeros(0, dtype=np.float32)}
        reference = FedSZCompressor(FedSZConfig())
        fedsz = FedSZCompressor(FedSZConfig(backend=backend, pipeline_workers=workers))
        payload = fedsz.compress_state_dict(state)
        assert payload == reference.compress_state_dict(state)
        recon = fedsz.decompress_state_dict(payload)
        for key, value in reference.decompress_state_dict(payload).items():
            np.testing.assert_array_equal(recon[key], value)
            assert recon[key].dtype == value.dtype

    def test_mixed_codec_plan_bit_identical_across_backends(self, state):
        def compress(backend):
            config = FedSZConfig(policy="mixed-codec",
                                 policy_options={"small_codec": "szx",
                                                 "size_cutoff": 4096},
                                 backend=backend, pipeline_workers=2)
            return FedSZCompressor(config).compress_state_dict(state)

        serial = compress("serial")
        assert compress("thread") == serial
        assert compress("process") == serial

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corruption_raises_valueerror_on_every_backend(self, state, backend):
        # keep the codec tag, garble one tensor's body: the failure happens in
        # a pipeline worker, and its ValueError must reach the caller intact
        # (for the process backend: across the process boundary)
        entries = unpack_bytes_dict(
            FedSZCompressor(FedSZConfig()).compress_state_dict(state))
        key = next(k for k in entries if k.startswith("lossy::"))
        body_at = entries[key][0] + 1  # u8 tag length, then the tag
        entries[key] = entries[key][:body_at] + entries[key][body_at:][::-1]
        corrupt = pack_bytes_dict(entries)
        with pytest.raises(ValueError) as serial_error:
            FedSZCompressor(FedSZConfig()).decompress_state_dict(corrupt)
        fedsz = FedSZCompressor(FedSZConfig(backend=backend, pipeline_workers=2))
        with pytest.raises(ValueError) as error:
            fedsz.decompress_state_dict(corrupt)
        assert str(error.value) == str(serial_error.value)

    @settings(max_examples=6, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_any_worker_count_any_backend(self, workers, seed):
        rng = np.random.default_rng(seed)
        state = {
            "a.weight": rng.normal(0, 0.05, size=3000).astype(np.float32),
            "b.weight": rng.normal(0, 0.1, size=(40, 50)).astype(np.float32),
            "c.bias": rng.normal(0, 0.01, size=64).astype(np.float32),
        }
        payloads = {
            backend: FedSZCompressor(
                FedSZConfig(backend=backend, pipeline_workers=workers)
            ).compress_state_dict(state)
            for backend in BACKENDS
        }
        assert payloads["serial"] == payloads["thread"] == payloads["process"]


class TestRoundEngineEquivalence:
    def _run(self, tiny_split, backend, workers, policy="uniform", delta=False):
        train, test = tiny_split

        def factory():
            return build_model("simplecnn", num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2, backend=backend,
                                             policy=policy))
        sim = FederatedSimulation(factory, train, test, n_clients=3, codec=codec,
                                  seed=5, lr=0.1, max_workers=workers,
                                  backend=backend, delta=delta)
        return sim.run(2), sim.server.global_state()

    @pytest.mark.parametrize("policy, delta", [("uniform", False),
                                               ("profiled", False),
                                               ("profiled", True)],
                             ids=["uniform", "profiled", "profiled-delta"])
    def test_round_records_identical_across_backends(self, tiny_split, policy,
                                                     delta):
        """A seeded 2-round simulation produces identical RoundRecords and
        global states on serial, thread, and process backends; the profiled
        case plans every ship (a cold full state, then delta residuals) from
        the profiler's exact cache on each backend."""
        runs = {backend: self._run(tiny_split, backend, workers=2,
                                   policy=policy, delta=delta)
                for backend in BACKENDS}
        reference, reference_state = runs["serial"]
        for backend, (result, state) in runs.items():
            assert deterministic_fields(result) == \
                deterministic_fields(reference), backend
            assert all(np.array_equal(state[k], reference_state[k])
                       for k in reference_state), backend
            assert result.accuracies == reference.accuracies, backend
            for ours, ref in zip(result.rounds, reference.rounds):
                assert ours.transmitted_bytes == ref.transmitted_bytes
                assert ours.uncompressed_bytes == ref.uncompressed_bytes
                assert ours.communication_seconds == ref.communication_seconds
                assert ours.client_losses == ref.client_losses
                assert ours.participants == ref.participants
                assert set(ours.client_reports) == set(ref.client_reports)
                for cid, report in ours.client_reports.items():
                    assert report.compressed_bytes == \
                        ref.client_reports[cid].compressed_bytes
                    assert report.original_bytes == \
                        ref.client_reports[cid].original_bytes

    def test_client_replicas_consistent_after_process_round(self, tiny_split):
        train, test = tiny_split

        def factory():
            return build_model("simplecnn", num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        sims = {}
        for backend in ("serial", "process"):
            sims[backend] = FederatedSimulation(factory, train, test, n_clients=2,
                                                seed=5, lr=0.1, max_workers=2,
                                                backend=backend)
            sims[backend].run_round(0)
        # process-trained replicas are re-absorbed from the returned updates,
        # so every backend leaves the client models in the same state
        for a, b in zip(sims["serial"].clients, sims["process"].clients):
            for key, value in a.model.state_dict().items():
                np.testing.assert_array_equal(value, b.model.state_dict()[key])

    def test_process_ship_batch_matches_serial(self):
        # a pickling backend moves each task's tensors through a shared-memory
        # arena; the shipped results must match the in-process reference
        rng = np.random.default_rng(12)
        codec = FedSZUpdateCodec(FedSZConfig())
        net = NetworkModel(bandwidth_mbps=4.0)
        tasks = [ShipTask(client_id=i, codec=codec, network=net,
                          state={"w": rng.normal(0, 1, (32, 64)).astype(np.float32),
                                 "b": rng.normal(0, 1, 32).astype(np.float32)})
                 for i in range(3)]
        serial = SimulatedTransport(backend="serial").ship_batch(tasks)
        pooled = SimulatedTransport(backend="process", max_workers=2).ship_batch(tasks)
        assert [r.client_id for r in pooled] == [r.client_id for r in serial]
        for a, b in zip(serial, pooled):
            assert list(a.state) == list(b.state)
            for key in a.state:
                np.testing.assert_array_equal(a.state[key], b.state[key])
            assert a.payload_bytes == b.payload_bytes
            assert a.transfer_seconds == b.transfer_seconds

    def test_unknown_backend_rejected(self, tiny_split):
        train, test = tiny_split

        def factory():
            return build_model("simplecnn", num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        with pytest.raises(ValueError, match="unknown execution backend"):
            FederatedSimulation(factory, train, test, n_clients=2, backend="mpi")


class TestRemovedShim:
    """Satellite: the deprecated ``repro.fl.parallel`` shim is gone; the real
    homes (``repro.utils.parallel`` / ``repro.fl.simulation``) remain the
    package re-exports."""

    def test_shim_module_is_removed(self):
        sys.modules.pop("repro.fl.parallel", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.fl.parallel")

    def test_package_reexports_survive_the_removal(self):
        import repro.fl
        from repro.fl.simulation import train_clients_parallel

        assert repro.fl.map_parallel is map_parallel
        assert repro.fl.resolve_worker_count is resolve_worker_count
        assert repro.fl.train_clients_parallel is train_clients_parallel


def _arena_sum(handle) -> float:
    """Module-level arena reader for the cross-process shipping tests."""
    with handle.open() as view:
        arrays = view.arrays()
        total = float(sum(a.sum() for a in arrays.values()))
        del arrays  # the views must die before the attachment closes
    return total


class TestSharedMemoryArena:
    """Satellite: tensor shipping for pickling backends via one shared
    segment and a tiny picklable handle."""

    def _arrays(self):
        rng = np.random.default_rng(9)
        return {
            "w": rng.normal(0, 1, (16, 8)).astype(np.float32),
            "b": rng.normal(0, 1, 16).astype(np.float64),
            "i": np.arange(10, dtype=np.int64),
            "empty": np.zeros(0, dtype=np.float32),
        }

    def test_roundtrip_values_dtypes_shapes(self):
        from repro.utils.parallel import SharedMemoryArena

        arrays = self._arrays()
        with SharedMemoryArena(arrays) as arena:
            got = arena.handle.load()
            assert list(got) == list(arrays)
            for key in arrays:
                np.testing.assert_array_equal(got[key], arrays[key])
                assert got[key].dtype == arrays[key].dtype
                assert got[key].shape == arrays[key].shape

    def test_noncontiguous_input_packed_contiguously(self):
        from repro.utils.parallel import SharedMemoryArena

        strided = np.arange(20, dtype=np.float64)[::2]
        with SharedMemoryArena({"s": strided}) as arena:
            np.testing.assert_array_equal(arena.handle.load()["s"], strided)

    def test_handle_is_small_and_picklable(self):
        import pickle

        from repro.utils.parallel import SharedMemoryArena

        big = {"big": np.zeros((512, 512), dtype=np.float64)}
        with SharedMemoryArena(big) as arena:
            blob = pickle.dumps(arena.handle)
            assert len(blob) < 1024  # metadata only, never the buffers
            np.testing.assert_array_equal(
                pickle.loads(blob).load()["big"], big["big"])

    def test_views_are_readonly_copies_are_not(self):
        from repro.utils.parallel import SharedMemoryArena

        with SharedMemoryArena({"x": np.ones(4)}) as arena:
            with arena.handle.open() as view:
                zero_copy = view.arrays()["x"]
                assert not zero_copy.flags.writeable
                copied = view.arrays(copy=True)["x"]
                assert copied.flags.writeable
                del zero_copy
            copied[0] = 7.0  # the copy survives the view

    def test_close_is_idempotent(self):
        from repro.utils.parallel import SharedMemoryArena

        arena = SharedMemoryArena({"x": np.ones(4)})
        arena.close()
        arena.close()

    def test_empty_mapping(self):
        from repro.utils.parallel import SharedMemoryArena

        with SharedMemoryArena({}) as arena:
            assert arena.handle.load() == {}

    def test_cross_process_shipping(self):
        from repro.utils.parallel import SharedMemoryArena

        arrays = self._arrays()
        expected = float(sum(a.sum() for a in arrays.values()))
        with SharedMemoryArena(arrays) as arena:
            results = map_parallel(_arena_sum, [arena.handle] * 3,
                                   backend="process", max_workers=2)
        assert results == [expected] * 3
