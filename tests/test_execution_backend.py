"""The one execution setting, the worker count: worker resolution, map
semantics, the worker-count equivalence matrix across the plan pipeline and
the round engine, and the loud failure of a removed backend or its option.

Only correctness is checked here: the wall-clock checks live in
``benchmarks/bench_timing.py``, outside tier-1.
"""

from __future__ import annotations

import contextlib
import importlib
import os
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
from repro.fl.coordinator import Coordinator
from repro.fl.coordinator.records import deterministic_fields
from repro.fl.coordinator.transport import ShipTask, SimulatedTransport
from repro.nn import build_model
from repro.utils.parallel import (
    POOL,
    ExecutionBackend,
    get_backend,
    map_parallel,
    resolve_worker_count,
)
from repro.utils.serialization import pack_bytes_dict, unpack_bytes_dict
from tiered_policy import TieredPolicy


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
    assert POOL._active_scope() is None
    return map_parallel(_square, xs, max_workers=2)


def _simplecnn():
    return build_model("simplecnn", num_classes=10, in_channels=3,
                       image_size=16, seed=0)


class TestGetBackend:
    def test_get_backend_by_name_and_instance(self):
        assert isinstance(POOL, ExecutionBackend)
        assert get_backend("thread") is POOL
        assert get_backend(POOL) is POOL

    def test_unknown_backend_raises_with_choices(self):
        with pytest.raises(ValueError, match="available: thread$"):
            get_backend("mpi")


class TestWorkerResolution:
    def test_thread_default_keeps_executor_heuristic(self):
        expected = min(32, (os.cpu_count() or 1) + 4)
        assert resolve_worker_count(None, 1000) == expected

    @pytest.mark.parametrize("workers, n_items, expected", [
        (8, 3, 3), (8, 0, 1), (1, 10, 1), (3, 8, 3), (None, 0, 1)])
    def test_clamped_to_items_and_floor_one(self, workers, n_items, expected):
        assert resolve_worker_count(workers, n_items) == expected

    @pytest.mark.parametrize("workers", [0, -1])
    def test_invalid_worker_count_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            resolve_worker_count(workers, 4)


class TestMapSemantics:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_map_preserves_order(self, workers):
        items = list(range(23))
        assert map_parallel(_square, items, max_workers=workers) == \
            [x * x for x in items]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_empty_items(self, workers):
        assert map_parallel(_square, [], max_workers=workers) == []

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_exceptions_propagate(self, workers):
        with pytest.raises(RuntimeError, match="worker failed"):
            map_parallel(_boom, [1, 2, 3], max_workers=workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_closures_share_the_callers_state(self, workers):
        # workers share the caller's objects: closures run, and their side
        # effects land in the caller's state
        acc = []
        assert map_parallel(lambda x: x + 1, [1, 2, 3, 4], workers) == [2, 3, 4, 5]
        map_parallel(acc.append, [7, 8, 9, 10], workers)
        assert sorted(acc) == [7, 8, 9, 10]

    def test_map_in_a_wider_scope_keeps_its_worker_count(self, monkeypatch):
        # the scope's pool serves a narrower map on no more threads than it
        # asked for, and a compress in it (the CLI opens the scope at the
        # pipeline's worker count) stays on the cores; with more claiming
        # threads than cores, switching every microsecond, every item still
        # runs once, in item order
        calls, out, tensor_threads = [], [], set()
        task = pipeline._compress_tensor_task
        monkeypatch.setattr(pipeline, "_compress_tensor_task",
                            lambda args: tensor_threads.add(_thread_of(args)) or task(args))
        rng = np.random.default_rng(3)
        state = {f"layer{i}.weight": rng.normal(0, 1, 4096).astype(np.float32)
                 for i in range(16)}

        def run():
            with POOL.persistent(8):
                spinups = POOL.pool_spinups
                out.append(POOL.map(_thread_of, range(16), workers=2))
                out.append(POOL.map(lambda x: calls.append(x) or x * x,
                                       range(3000), workers=8))
                with pytest.raises(RuntimeError, match="worker failed on 1"):
                    POOL.map(_boom, [1, 2, 3], workers=2)
                FedSZCompressor(FedSZConfig(pipeline_workers=8)).compress_state_dict(state)
                out.append(POOL.pool_spinups - spinups)

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
        out = []

        def run():
            with POOL.persistent(2) if persistent else contextlib.nullcontext():
                out.append(POOL.map(_nested_map, [[1, 2], [3, 4]], workers=2))

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the nested fan-out deadlocked"
        assert out == [[[1, 4], [9, 16]]]


# -- equivalence matrix: every fan-out stage, every worker count, bit-identical

class TestPipelineEquivalence:
    @pytest.fixture(scope="class")
    def state(self):
        return build_model("simplecnn", num_classes=10, in_channels=3,
                           image_size=16, seed=1).state_dict()

    def test_bitstreams_bit_identical_across_worker_counts(self, state):
        reference = FedSZCompressor(FedSZConfig()).compress_state_dict(state)
        ref_recon = FedSZCompressor(FedSZConfig()).decompress_state_dict(reference)
        for workers in (1, 2, 3, 4):
            fedsz = FedSZCompressor(FedSZConfig(pipeline_workers=workers))
            payload = fedsz.compress_state_dict(state)
            assert payload == reference, workers
            recon = fedsz.decompress_state_dict(payload)
            for key in ref_recon:
                np.testing.assert_array_equal(recon[key], ref_recon[key])

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_mixed_dtype_state_bit_identical(self, workers):
        # float64 weights and an empty tensor beside the float32 ones
        rng = np.random.default_rng(5)
        state = {"conv.weight": rng.normal(0, 1, (64, 3, 3, 3)).astype(np.float32),
                 "conv.bias": rng.normal(0, 1, 64).astype(np.float32),
                 "head.weight": rng.normal(0, 0.1, (50, 800)).astype(np.float64),
                 "empty": np.zeros(0, dtype=np.float32)}
        reference = FedSZCompressor(FedSZConfig())
        fedsz = FedSZCompressor(FedSZConfig(pipeline_workers=workers))
        payload = fedsz.compress_state_dict(state)
        assert payload == reference.compress_state_dict(state)
        recon = fedsz.decompress_state_dict(payload)
        for key, value in reference.decompress_state_dict(payload).items():
            np.testing.assert_array_equal(recon[key], value)
            assert recon[key].dtype == value.dtype

    def test_mixed_codec_plan_bit_identical_across_worker_counts(self, state):
        def compress(workers):
            config = FedSZConfig(pipeline_workers=workers)
            fedsz = FedSZCompressor(config, policy=TieredPolicy("szx", cutoff=4096))
            return fedsz.compress_state_dict(state)

        reference = compress(1)
        assert all(compress(workers) == reference for workers in (2, 3, 4))

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_corruption_raises_valueerror_at_every_worker_count(self, state, workers):
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
        fedsz = FedSZCompressor(FedSZConfig(pipeline_workers=workers))
        with pytest.raises(ValueError) as error:
            fedsz.decompress_state_dict(corrupt)
        assert str(error.value) == str(serial_error.value)

    @settings(max_examples=6, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property_any_worker_count(self, workers, seed):
        rng = np.random.default_rng(seed)
        state = {
            "a.weight": rng.normal(0, 0.05, size=3000).astype(np.float32),
            "b.weight": rng.normal(0, 0.1, size=(40, 50)).astype(np.float32),
            "c.bias": rng.normal(0, 0.01, size=64).astype(np.float32),
        }
        reference = FedSZCompressor(FedSZConfig()).compress_state_dict(state)
        assert FedSZCompressor(FedSZConfig(pipeline_workers=workers)
                               ).compress_state_dict(state) == reference


class TestRoundEngineEquivalence:
    def _run(self, tiny_split, workers, policy="uniform", delta=False,
             model="simplecnn"):
        train, test = tiny_split

        def factory():
            return build_model(model, num_classes=10, in_channels=3,
                               image_size=16, seed=0)

        codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2, policy=policy))
        sim = FederatedSimulation(factory, train, test, n_clients=3, codec=codec,
                                  seed=5, lr=0.1, max_workers=workers, delta=delta)
        return sim.run(2), sim.server.global_state()

    @pytest.mark.parametrize("policy, delta, model", [
        ("uniform", False, "simplecnn"),
        ("profiled", False, "simplecnn"),
        ("profiled", True, "simplecnn"),
        ("uniform", True, "alexnet"),
    ], ids=["uniform", "profiled", "profiled-delta", "alexnet-delta"])
    def test_round_records_identical_across_worker_counts(self, tiny_split, policy,
                                                          delta, model):
        """A seeded 2-round simulation produces identical RoundRecords and
        global states on 1 and 2 workers; the profiled case plans every ship
        (a cold full state, then delta residuals) from the profiler's exact
        cache at each worker count.  AlexNet trains through dropout, whose
        masks must not depend on which worker holds a client."""
        runs = {workers: self._run(tiny_split, workers, policy=policy,
                                   delta=delta, model=model)
                for workers in (1, 2)}
        reference, reference_state = runs[1]
        for workers, (result, state) in runs.items():
            assert deterministic_fields(result) == \
                deterministic_fields(reference), workers
            assert all(np.array_equal(state[k], reference_state[k])
                       for k in reference_state), workers
            assert result.accuracies == reference.accuracies, workers
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
        # client model holds exactly what the one-worker loop leaves in it
        train, test = tiny_split
        sims = []
        for n in (1, workers):
            sims.append(FederatedSimulation(_simplecnn, train, test, n_clients=3,
                                            seed=5, lr=0.1, max_workers=n))
            sims[-1].run_round(0)
        for a, b in zip(sims[0].clients, sims[1].clients):
            for key, value in a.model.state_dict().items():
                np.testing.assert_array_equal(value, b.model.state_dict()[key])

    @pytest.mark.parametrize("workers", [2, 3])
    def test_thread_ship_batch_matches_serial(self, workers):
        # the pool's threads share one codec and read each task's tensors in
        # place; the results must match the one-worker loop's, in task order
        rng = np.random.default_rng(12)
        codec = FedSZUpdateCodec(FedSZConfig())
        net = NetworkModel(bandwidth_mbps=4.0)
        tasks = [ShipTask(client_id=i, codec=codec, network=net,
                          state={"w": rng.normal(0, 1, (32, 64)).astype(np.float32),
                                 "b": rng.normal(0, 1, 32).astype(np.float32)})
                 for i in range(3)]
        serial = SimulatedTransport(max_workers=1).ship_batch(tasks)
        pooled = SimulatedTransport(max_workers=workers).ship_batch(tasks)
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
    """The deprecated ``repro.fl.parallel`` shim is gone; the real
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


#: the two entry points that still take a backend: each accepts only "thread"
_BACKEND_NAMES = {
    "get_backend": lambda split, name: get_backend(name),
    "FederatedSimulation": lambda split, name: FederatedSimulation(
        _simplecnn, *split, n_clients=2, backend=name),
}

#: every other library entry point that used to take ``backend=``
_BACKEND_OPTIONS = {
    "resolve_worker_count": lambda split, kw: resolve_worker_count(2, 4, **kw),
    "map_parallel": lambda split, kw: map_parallel(_square, [1, 2], **kw),
    "FedSZConfig": lambda split, kw: FedSZConfig(**kw),
    "CodecProfiler": lambda split, kw: CodecProfiler(**kw),
    "profile_tensors": lambda split, kw: CodecProfiler().profile_tensors({}, **kw),
    "get_policy": lambda split, kw: get_policy("profiled", **kw),
    "train_clients_parallel": lambda split, kw: train_clients_parallel([], {}, **kw),
    "SimulatedTransport": lambda split, kw: SimulatedTransport(**kw),
    "Coordinator": lambda split, kw: Coordinator(**kw),
}


@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry in _BACKEND_NAMES for name in ("serial", "process")])
def test_removed_backend_name_fails_naming_what_remains(entry, name, tiny_split):
    """The worker count alone picks the calling thread or the pool: the
    entry points that still take a backend name it ``thread`` only."""
    with pytest.raises(ValueError, match=f"unknown execution backend '{name}'; "
                                         f"available: thread$"):
        _BACKEND_NAMES[entry](tiny_split, name)


@pytest.mark.parametrize("entry", [*_BACKEND_OPTIONS, "repro compress",
                                   "repro simulate"])
def test_removed_backend_option_rejected(entry, tiny_split, capsys):
    """``backend=`` and ``--backend`` are gone wherever they only chose
    between ``serial`` and the pool: naming one is an error, not an option
    that selects nothing."""
    if entry.startswith("repro "):
        with pytest.raises(SystemExit) as excinfo:
            main([entry.split()[1], "--backend", "thread"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend thread" in capsys.readouterr().err
        return
    with pytest.raises(TypeError, match="unexpected keyword argument 'backend'"):
        _BACKEND_OPTIONS[entry](tiny_split, {"backend": "thread"})
