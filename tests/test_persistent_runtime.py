"""Tests for the persistent runtime: long-lived pool scopes, one pool per
federated run, and the journal resume of a profiled run — plus the
bit-identity matrix proving every worker count reproduces the 1-worker run
on the calling thread exactly."""

import contextlib
import threading

import numpy as np
import pytest

from repro.core.config import FedSZConfig
from repro.core.pipeline import FedSZCompressor
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.fl.client import FLClient
from repro.fl.coordinator.records import deterministic_fields
from repro.nn import build_model
from repro.utils.parallel import POOL


def _factory():
    return build_model("simplecnn", num_classes=10, in_channels=3, image_size=16, seed=0)


def _alexnet():
    # narrow: its two dropout layers are what the test needs
    return build_model("alexnet", num_classes=10, in_channels=3, image_size=16, seed=0,
                       width=8, hidden=64)


def _make_sim(tiny_split, model_factory=_factory, **kwargs):
    train, test = tiny_split
    kwargs.setdefault("codec", RawUpdateCodec())
    kwargs.setdefault("lr", 0.1)
    kwargs.setdefault("seed", 5)
    return FederatedSimulation(model_factory, train, test, **kwargs)


def _square(x):
    return x * x


def _boom(x):
    if x == 2:
        raise ValueError("worker task failure")
    return x


# ---------------------------------------------------------------------------
# Persistent pool scope
# ---------------------------------------------------------------------------

class TestPersistentScope:
    def test_one_pool_serves_many_maps(self):
        before = POOL.pool_spinups
        with POOL.persistent(2) as scope:
            assert scope is not None
            for _ in range(3):
                assert POOL.map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert POOL.pool_spinups - before == 1

    def test_fresh_pools_without_scope(self):
        before = POOL.pool_spinups
        for _ in range(2):
            POOL.map(_square, [1, 2, 3], workers=2)
        assert POOL.pool_spinups - before == 2

    def test_scope_survives_worker_exception(self):
        """A failed map must not poison the pool."""
        before = POOL.pool_spinups
        with POOL.persistent(2):
            with pytest.raises(ValueError, match="worker task failure"):
                POOL.map(_boom, [1, 2, 3], workers=2)
            assert POOL.map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert POOL.pool_spinups - before == 1

    def test_one_worker_never_builds_a_pool(self, tiny_split, monkeypatch):
        # one worker is the sequential reference: a map, a scope, a compress
        # and a simulation round each run every item on the calling thread,
        # and no pool exists to count
        import repro.core.pipeline as pipeline
        import repro.fl.coordinator.transport as transport

        caller, threads = threading.get_ident(), []

        def on_thread(task):
            def run(item):
                threads.append(threading.get_ident())
                return task(item)
            return run

        for module, name in ((pipeline, "_compress_tensor_task"),
                             (pipeline, "_decompress_tensor_task"),
                             (transport, "ship_update_task")):
            monkeypatch.setattr(module, name, on_thread(getattr(module, name)))
        before = POOL.pool_spinups
        assert POOL.map(on_thread(_square), [1, 2, 3], workers=1) == [1, 4, 9]
        with POOL.persistent(1) as scope:
            assert scope is None
            assert POOL.map(on_thread(_square), [1, 2, 3], workers=1) == [1, 4, 9]
        state = build_model("simplecnn", num_classes=10, in_channels=3,
                            image_size=16, seed=1).state_dict()
        fedsz = FedSZCompressor(FedSZConfig(pipeline_workers=1))
        fedsz.decompress_state_dict(fedsz.compress_state_dict(state))
        _make_sim(tiny_split, n_clients=3, max_workers=1).run_round(0)
        assert POOL.pool_spinups == before
        # 6 map items, 2 x the simplecnn's lossy tensors, 3 ships
        assert len(threads) > 9 and set(threads) == {caller}

    def test_single_worker_scope_degrades(self):
        before = POOL.pool_spinups
        with POOL.persistent(1) as scope:
            assert scope is None
        assert POOL.pool_spinups == before

    @pytest.mark.parametrize("fails", [False, True], ids=["clean", "raising"])
    def test_pool_threads_exit_with_their_scope(self, fails):
        # the scope joins its workers on the way out, even when its body
        # raises: no pool thread outlives the run that opened it
        before = set(threading.enumerate())
        expect = pytest.raises(RuntimeError, match="run failed") if fails \
            else contextlib.nullcontext()
        with expect, POOL.persistent(2):
            assert POOL.map(_square, range(8), workers=2) == \
                [x * x for x in range(8)]
            assert set(threading.enumerate()) - before
            if fails:
                raise RuntimeError("run failed")
        assert set(threading.enumerate()) <= before


# ---------------------------------------------------------------------------
# Bit-identity: the persistent runtime vs the 1-worker reference
# ---------------------------------------------------------------------------

class TestPersistentBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_matrix_matches_one_worker_reference(self, tiny_split, workers):
        """Seeded records are bit-identical with a persistent pool at workers
        {1, 2, 3, 4}, against the 1-worker run on the calling thread."""
        reference = _make_sim(tiny_split, n_clients=4, max_workers=1).run(2)
        persistent = _make_sim(tiny_split, n_clients=4, max_workers=workers).run(2)
        assert deterministic_fields(persistent) == deterministic_fields(reference)

    def test_fedsz_bitstreams_match_one_worker_reference(self, tiny_split):
        def run(workers):
            codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2))
            return _make_sim(tiny_split, n_clients=3, max_workers=workers,
                             codec=codec).run(2)
        reference, persistent = run(1), run(3)
        assert deterministic_fields(persistent) == deterministic_fields(reference)

    def test_pooled_dropout_replicas_match_one_worker_reference(self, tiny_split):
        """Alexnet replicas trained on a persistent 2-thread pool: which
        worker trained a client in an earlier round must not leak into its
        dropout masks."""
        runs = []
        for workers in (1, 2):
            sim = _make_sim(tiny_split, model_factory=_alexnet, n_clients=4,
                            max_workers=workers)
            runs.append((sim.run(3), sim.server.global_state()))
        (reference, ref_state), (pooled, pooled_state) = runs
        assert deterministic_fields(pooled) == deterministic_fields(reference)
        for key in ref_state:
            np.testing.assert_array_equal(pooled_state[key], ref_state[key])

    @pytest.mark.parametrize("workers, spinups", [(1, 0), (2, 1), (3, 1), (4, 1)])
    def test_persistent_run_spins_one_pool(self, tiny_split, workers, spinups):
        # one pool serves the whole run; one worker builds none
        before = POOL.pool_spinups
        _make_sim(tiny_split, n_clients=4, max_workers=workers).run(2)
        assert POOL.pool_spinups - before == spinups

    def test_failed_run_closes_its_scope(self, tiny_split):
        # a ship that raises mid-run reaches the caller, and the run's pool
        # goes with it: no scope stays open and no pool thread lives on
        class FailingCodec(RawUpdateCodec):
            def encode(self, state):
                raise RuntimeError("encode failed")

        before = set(threading.enumerate())
        sim = _make_sim(tiny_split, n_clients=4, max_workers=4,
                        codec=FailingCodec())
        with pytest.raises(RuntimeError, match="encode failed"):
            sim.run(2)
        assert POOL._active_scope() is None
        assert set(threading.enumerate()) <= before


# ---------------------------------------------------------------------------
# Roster changes
# ---------------------------------------------------------------------------

class TestRosterInvalidation:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_roster_change_matches_fresh_reference(self, tiny_split, workers):
        """A client replaced between two rounds inside one persistent scope
        trains as the replacement: the records match the same rounds run
        outside any scope, where every map spins a fresh pool."""
        def run(persistent):
            sim = _make_sim(tiny_split, n_clients=4, max_workers=workers)
            coord = sim.coordinator
            records = []
            with POOL.persistent(coord.max_workers) if persistent \
                    else contextlib.nullcontext():
                records.append(coord.run_round(0))
                replacement = FLClient(client_id=0, model=_factory(),
                                       dataset=coord.clients[0].dataset,
                                       seed=coord.clients[0].seed)
                coord.clients[0] = replacement
                records.append(coord.run_round(1))
            return [(r.accuracy, tuple(r.client_losses), r.transmitted_bytes)
                    for r in records]
        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# Journal resume of a profiled run
# ---------------------------------------------------------------------------

def _profiled_codec():
    config = FedSZConfig(error_bound=1e-2, policy="profiled",
                         policy_options={"bandwidth_mbps": 10.0,
                                         "max_bound": 1e-2})
    return FedSZUpdateCodec(config)


_RESUME_CASES = [(1, False), (1, True), (2, False), (2, True)]


class TestJournalResumeProfiled:
    @pytest.mark.parametrize("workers, delta", _RESUME_CASES,
                             ids=[f"{w}-delta" if d else str(w) for w, d in _RESUME_CASES])
    def test_resume_with_cold_profiler_matches_uninterrupted(self, tiny_split,
                                                             tmp_path, workers,
                                                             delta):
        """A journaled profiled run, resumed by a fresh codec whose profiler
        has measured nothing, matches the uninterrupted run: the profile of a
        tensor is a function of its bytes, never of what the cache held."""
        journal = tmp_path / "journal"
        options = dict(n_clients=2, max_workers=workers, delta=delta)
        _make_sim(tiny_split, codec=_profiled_codec(), journal_dir=journal,
                  **options).run(1)

        codec = _profiled_codec()
        resumed_sim = _make_sim(tiny_split, codec=codec, journal_dir=journal,
                                resume=True, **options)
        assert codec.profiler.cache_info()["profiles"] == 0
        resumed = resumed_sim.run(2)
        assert codec.profiler.cache_info()["misses"] > 0

        reference_sim = _make_sim(tiny_split, codec=_profiled_codec(), **options)
        reference = reference_sim.run(2)
        assert deterministic_fields(resumed) == deterministic_fields(reference)
        ref_state = reference_sim.server.global_state()
        res_state = resumed_sim.server.global_state()
        assert list(res_state) == list(ref_state)
        for key in ref_state:
            assert np.array_equal(res_state[key], ref_state[key]), key
