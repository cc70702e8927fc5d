"""The unified ExecutionBackend layer: registry, worker resolution, map
semantics, the serial/thread equivalence matrix across the plan pipeline
and the round engine, and the loud failure of a removed backend name.

Only correctness is checked here: the wall-clock checks live in
``benchmarks/bench_timing.py``, outside tier-1.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import (CodecProfiler, FedSZCompressor, FedSZConfig,
                        NetworkModel, get_policy, pipeline)
from repro.fl import FederatedSimulation, FedSZUpdateCodec, train_clients_parallel
from repro.fl.coordinator.records import deterministic_fields
from repro.fl.coordinator.transport import ShipTask, SimulatedTransport
from repro.nn import build_model
from repro.utils.parallel import (
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    get_backend,
    map_parallel,
    resolve_worker_count,
)
from repro.utils.serialization import pack_bytes_dict, unpack_bytes_dict
from tiered_policy import TieredPolicy

BACKENDS = ("serial", "thread")


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise RuntimeError(f"worker failed on {x}")


def _thread_of(_) -> int:
    time.sleep(0.02)  # long enough that every free pool thread takes a task
    return threading.get_ident()


def _nested_map(xs: "list[int]") -> "list[int]":
    # a fan-out issued from inside a pool worker, which never sees the
    # persistent scope of the thread that entered it
    assert get_backend("thread")._active_scope() is None
    return map_parallel(_square, xs, max_workers=2, backend="thread")


def _simplecnn():
    return build_model("simplecnn", num_classes=10, in_channels=3,
                       image_size=16, seed=0)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("serial", "thread")

    def test_get_backend_by_name_and_instance(self):
        thread = get_backend("thread")
        assert isinstance(thread, ThreadBackend)
        assert get_backend(thread) is thread
        assert isinstance(get_backend("serial"), SerialBackend)

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="serial, thread"):
            get_backend("mpi")

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
        # workers share the caller's objects: closures run, and their side
        # effects land in the caller's state
        acc = []
        for backend in BACKENDS:
            assert map_parallel(lambda x: x + 1, [1, 2], backend=backend) == [2, 3]
            map_parallel(acc.append, [7], backend=backend)
        assert acc == [7, 7]

    def test_map_in_a_wider_scope_keeps_its_worker_count(self, monkeypatch):
        # the scope's pool serves a narrower map on no more threads than it
        # asked for, and a compress in it (the CLI opens the scope at the
        # pipeline's worker count) stays on the cores; with more claiming
        # threads than cores, switching every microsecond, every item still
        # runs once, in item order
        backend, calls, out, tensor_threads = get_backend("thread"), [], [], set()
        task = pipeline._compress_tensor_task
        monkeypatch.setattr(pipeline, "_compress_tensor_task",
                            lambda args: tensor_threads.add(_thread_of(args)) or task(args))
        rng = np.random.default_rng(3)
        state = {f"layer{i}.weight": rng.normal(0, 1, 4096).astype(np.float32)
                 for i in range(16)}

        def run():
            with backend.persistent(8):
                spinups = backend.pool_spinups
                out.append(backend.map(_thread_of, range(16), workers=2))
                out.append(backend.map(lambda x: calls.append(x) or x * x,
                                       range(3000), workers=8))
                with pytest.raises(RuntimeError, match="worker failed on 1"):
                    backend.map(_boom, [1, 2, 3], workers=2)
                FedSZCompressor(FedSZConfig(pipeline_workers=8)).compress_state_dict(state)
                out.append(backend.pool_spinups - spinups)

        interval, runner = sys.getswitchinterval(), threading.Thread(target=run, daemon=True)
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "the map did not finish"
        threads, squares, new_pools = out
        assert len(set(threads)) <= 2 and new_pools == 0
        assert 0 < len(tensor_threads) <= min(8, os.cpu_count() or 1)
        assert sorted(calls) == list(range(3000))
        assert squares == [x * x for x in range(3000)]

    @pytest.mark.parametrize("persistent", [False, True],
                             ids=["per-call", "persistent"])
    def test_map_nested_in_a_pool_worker(self, persistent):
        # both outer tasks hold the pool's two slots while they fan out: a
        # nested map that reused the scope's pool would wait on itself, so
        # the run goes on a watched thread instead of the test's own
        backend = get_backend("thread")
        out = []

        def run():
            with backend.persistent(2) if persistent else contextlib.nullcontext():
                out.append(backend.map(_nested_map, [[1, 2], [3, 4]], workers=2))

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the nested fan-out deadlocked"
        assert out == [[[1, 4], [9, 16]]]


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
    @pytest.mark.parametrize("workers", [1, 2, 4])
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
            config = FedSZConfig(backend=backend, pipeline_workers=2)
            fedsz = FedSZCompressor(config, policy=TieredPolicy("szx", cutoff=4096))
            return fedsz.compress_state_dict(state)

        assert compress("thread") == compress("serial")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corruption_raises_valueerror_on_every_backend(self, state, backend):
        # keep the codec tag, garble one tensor's body: the failure happens in
        # a pipeline worker, and its ValueError must reach the caller intact
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
        assert payloads["serial"] == payloads["thread"]


class TestRoundEngineEquivalence:
    def _run(self, tiny_split, backend, workers, policy="uniform", delta=False,
             model="simplecnn"):
        train, test = tiny_split

        def factory():
            return build_model(model, num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2, backend=backend,
                                             policy=policy))
        sim = FederatedSimulation(factory, train, test, n_clients=3, codec=codec,
                                  seed=5, lr=0.1, max_workers=workers,
                                  backend=backend, delta=delta)
        return sim.run(2), sim.server.global_state()

    @pytest.mark.parametrize("policy, delta, model", [
        ("uniform", False, "simplecnn"),
        ("profiled", False, "simplecnn"),
        ("profiled", True, "simplecnn"),
        ("uniform", True, "alexnet"),
    ], ids=["uniform", "profiled", "profiled-delta", "alexnet-delta"])
    def test_round_records_identical_across_backends(self, tiny_split, policy,
                                                     delta, model):
        """A seeded 2-round simulation produces identical RoundRecords and
        global states on the serial and thread backends; the profiled case
        plans every ship (a cold full state, then delta residuals) from the
        profiler's exact cache on each backend.  AlexNet trains through
        dropout, whose masks must not depend on which worker holds a client."""
        runs = {backend: self._run(tiny_split, backend, workers=2,
                                   policy=policy, delta=delta, model=model)
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

    @pytest.mark.parametrize("workers", [2, 3])
    def test_client_replicas_consistent_after_thread_round(self, tiny_split,
                                                           workers):
        # pool threads train the replicas in place, so after a round every
        # client model holds exactly what the serial loop leaves in it
        train, test = tiny_split
        sims = {}
        for backend, n in (("serial", 1), ("thread", workers)):
            sims[backend] = FederatedSimulation(_simplecnn, train, test, n_clients=3,
                                                seed=5, lr=0.1, max_workers=n,
                                                backend=backend)
            sims[backend].run_round(0)
        for a, b in zip(sims["serial"].clients, sims["thread"].clients):
            for key, value in a.model.state_dict().items():
                np.testing.assert_array_equal(value, b.model.state_dict()[key])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_thread_ship_batch_matches_serial(self, workers):
        # the pool's threads share one codec and read each task's tensors in
        # place; the results must match the serial loop's, in task order
        rng = np.random.default_rng(12)
        codec = FedSZUpdateCodec(FedSZConfig())
        net = NetworkModel(bandwidth_mbps=4.0)
        tasks = [ShipTask(client_id=i, codec=codec, network=net,
                          state={"w": rng.normal(0, 1, (32, 64)).astype(np.float32),
                                 "b": rng.normal(0, 1, 32).astype(np.float32)})
                 for i in range(3)]
        serial = SimulatedTransport(backend="serial").ship_batch(tasks)
        pooled = SimulatedTransport(backend="thread",
                                    max_workers=workers).ship_batch(tasks)
        assert [r.client_id for r in pooled] == [r.client_id for r in serial]
        for a, b in zip(serial, pooled):
            assert list(a.state) == list(b.state)
            for key in a.state:
                np.testing.assert_array_equal(a.state[key], b.state[key])
            assert a.payload_bytes == b.payload_bytes
            assert a.transfer_seconds == b.transfer_seconds

    def test_unknown_backend_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ValueError, match="unknown execution backend"):
            FederatedSimulation(_simplecnn, train, test, n_clients=2, backend="mpi")


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


#: every public way to name a backend besides the CLI's ``--backend``
_BACKEND_ENTRY_POINTS = {
    "get_backend": lambda split: get_backend("process"),
    "resolve_worker_count": lambda split: resolve_worker_count(2, 4, backend="process"),
    "FedSZConfig": lambda split: FedSZConfig(backend="process"),
    "FederatedSimulation": lambda split: FederatedSimulation(
        _simplecnn, *split, n_clients=2, backend="process"),
    "CodecProfiler": lambda split: CodecProfiler(backend="process"),
    "get_policy": lambda split: get_policy("profiled", backend="process"),
    "map_parallel": lambda split: map_parallel(_square, [1, 2], backend="process"),
    "train_clients_parallel": lambda split: train_clients_parallel(
        [], {}, backend="process"),
    "SimulatedTransport": lambda split: SimulatedTransport(backend="process"),
}


@pytest.mark.parametrize("entry", [*_BACKEND_ENTRY_POINTS,
                                   "repro compress", "repro simulate"])
def test_removed_process_backend_fails_naming_what_remains(entry, tiny_split,
                                                           capsys):
    """``backend="process"`` is gone: every entry point rejects it and names
    the two backends that remain, the CLI through argparse's choices."""
    if entry.startswith("repro "):
        with pytest.raises(SystemExit) as excinfo:
            main([entry.split()[1], "--backend", "process"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert re.search(r"--backend: invalid choice: 'process' "
                         r"\(choose from '?serial'?, '?thread'?\)", err), err
        return
    with pytest.raises(ValueError, match=r"unknown execution backend 'process'; "
                                         r"available: serial, thread$"):
        _BACKEND_ENTRY_POINTS[entry](tiny_split)
