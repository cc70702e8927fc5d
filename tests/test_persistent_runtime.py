"""Tests for the persistent runtime: long-lived pool scopes on the execution
backends, one pool per federated run, and the journal resume of a profiled
run — plus the bit-identity matrix proving every backend x worker count
reproduces the serial 1-worker run exactly."""

import contextlib
import copy
import pickle
import threading

import numpy as np
import pytest

from repro.core.config import FedSZConfig
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.fl.client import FLClient
from repro.fl.coordinator.records import deterministic_fields
from repro.nn import build_model
from repro.utils.parallel import get_backend


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
# Persistent pool scope on the execution backends
# ---------------------------------------------------------------------------

class TestPersistentScope:
    def test_one_pool_serves_many_maps(self):
        backend = get_backend("thread")
        before = backend.pool_spinups
        with backend.persistent(2) as scope:
            assert scope is not None
            for _ in range(3):
                assert backend.map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert backend.pool_spinups - before == 1

    def test_fresh_pools_without_scope(self):
        backend = get_backend("thread")
        before = backend.pool_spinups
        for _ in range(2):
            backend.map(_square, [1, 2, 3], workers=2)
        assert backend.pool_spinups - before == 2

    def test_scope_survives_worker_exception(self):
        """Satellite requirement: a failed map must not poison the pool."""
        backend = get_backend("thread")
        before = backend.pool_spinups
        with backend.persistent(2):
            with pytest.raises(ValueError, match="worker task failure"):
                backend.map(_boom, [1, 2, 3], workers=2)
            assert backend.map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert backend.pool_spinups - before == 1

    def test_serial_backend_never_builds_a_pool(self):
        # serial resolves every map and scope to one inline worker, so no
        # pool exists to count
        backend = get_backend("serial")
        before = backend.pool_spinups
        assert backend.map(_square, [1, 2, 3], workers=4) == [1, 4, 9]
        with backend.persistent(4) as scope:
            assert scope is None
            assert backend.map(_square, [1, 2, 3], workers=4) == [1, 4, 9]
        assert backend.pool_spinups == before
        with pytest.raises(NotImplementedError, match="serial"):
            backend._make_executor(2)

    def test_single_worker_scope_degrades(self):
        backend = get_backend("thread")
        before = backend.pool_spinups
        with backend.persistent(1) as scope:
            assert scope is None
        assert backend.pool_spinups == before

    def test_pickled_backend_drops_scope_state(self):
        backend = get_backend("thread")
        with backend.persistent(2):
            clone = pickle.loads(pickle.dumps(backend))
            assert clone._active_scope() is None

    def test_deepcopied_backend_drops_scope_state(self):
        # FederatedSimulation deep-copies codecs, and a profiled codec holds
        # its profiler's backend: the copy neither trips over the scope's
        # thread-local bookkeeping nor inherits the scope
        backend = get_backend("thread")
        with backend.persistent(2) as scope:
            clone = copy.deepcopy(backend)
            assert clone._active_scope() is None
            assert backend._active_scope() is scope

    @pytest.mark.parametrize("fails", [False, True], ids=["clean", "raising"])
    def test_pool_threads_exit_with_their_scope(self, fails):
        # the scope joins its workers on the way out, even when its body
        # raises: no pool thread outlives the run that opened it
        backend = get_backend("thread")
        before = set(threading.enumerate())
        expect = pytest.raises(RuntimeError, match="run failed") if fails \
            else contextlib.nullcontext()
        with expect, backend.persistent(2):
            assert backend.map(_square, range(8), workers=2) == \
                [x * x for x in range(8)]
            assert set(threading.enumerate()) - before
            if fails:
                raise RuntimeError("run failed")
        assert set(threading.enumerate()) <= before


# ---------------------------------------------------------------------------
# Bit-identity: the persistent runtime vs the serial 1-worker reference
# ---------------------------------------------------------------------------

class TestPersistentBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("workers", [1, 3, 4])
    def test_matrix_matches_serial_reference(self, tiny_split, backend, workers):
        """Seeded records are bit-identical with a persistent pool across
        serial/thread x workers {1, 3, 4}, against the serial 1-worker run."""
        reference = _make_sim(tiny_split, n_clients=4, max_workers=1,
                              backend="serial").run(2)
        persistent = _make_sim(tiny_split, n_clients=4, max_workers=workers,
                               backend=backend).run(2)
        assert deterministic_fields(persistent) == deterministic_fields(reference)

    def test_fedsz_bitstreams_match_serial_reference(self, tiny_split):
        def run(backend, workers):
            codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2))
            return _make_sim(tiny_split, n_clients=3, max_workers=workers,
                             backend=backend, codec=codec).run(2)
        reference, persistent = run("serial", 1), run("thread", 3)
        assert deterministic_fields(persistent) == deterministic_fields(reference)

    def test_pooled_dropout_replicas_match_serial_reference(self, tiny_split):
        """Alexnet replicas trained on a persistent 2-thread pool: which
        worker trained a client in an earlier round must not leak into its
        dropout masks."""
        runs = {}
        for name, workers in (("serial", 1), ("thread", 2)):
            sim = _make_sim(tiny_split, model_factory=_alexnet, n_clients=4,
                            max_workers=workers, backend=name)
            runs[name] = (sim.run(3), sim.server.global_state())
        (reference, ref_state), (pooled, pooled_state) = runs["serial"], runs["thread"]
        assert deterministic_fields(pooled) == deterministic_fields(reference)
        for key in ref_state:
            np.testing.assert_array_equal(pooled_state[key], ref_state[key])

    @pytest.mark.parametrize("backend, spinups", [("serial", 0), ("thread", 1)],
                             ids=["serial", "thread"])
    def test_persistent_run_spins_one_pool(self, tiny_split, backend, spinups):
        # one pool serves the whole run on the thread backend; serial has none
        pool_backend = get_backend(backend)
        before = pool_backend.pool_spinups
        _make_sim(tiny_split, n_clients=4, max_workers=4,
                  backend=backend).run(2)
        assert pool_backend.pool_spinups - before == spinups

    def test_failed_run_closes_its_scope(self, tiny_split):
        # a ship that raises mid-run reaches the caller, and the run's pool
        # goes with it: no scope stays open and no pool thread lives on
        class FailingCodec(RawUpdateCodec):
            def encode(self, state):
                raise RuntimeError("encode failed")

        backend = get_backend("thread")
        before = set(threading.enumerate())
        sim = _make_sim(tiny_split, n_clients=4, max_workers=4, backend="thread",
                        codec=FailingCodec())
        with pytest.raises(RuntimeError, match="encode failed"):
            sim.run(2)
        assert backend._active_scope() is None
        assert set(threading.enumerate()) <= before


# ---------------------------------------------------------------------------
# Roster changes
# ---------------------------------------------------------------------------

class TestRosterInvalidation:
    @pytest.mark.parametrize("backend, workers",
                             [("serial", 1), ("thread", 2), ("thread", 4)])
    def test_roster_change_matches_fresh_reference(self, tiny_split, backend,
                                                   workers):
        """A client replaced between two rounds inside one persistent scope
        trains as the replacement: the records match the same rounds run
        outside any scope, where every map spins a fresh pool."""
        def run(persistent):
            sim = _make_sim(tiny_split, n_clients=4, max_workers=workers,
                            backend=backend)
            coord = sim.coordinator
            records = []
            with coord.backend.persistent(coord.max_workers) if persistent \
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


_RESUME_CASES = [("serial", False), ("serial", True), ("thread", False),
                 ("thread", True)]


class TestJournalResumeProfiled:
    @pytest.mark.parametrize("backend, delta", _RESUME_CASES,
                             ids=[f"{b}-delta" if d else b for b, d in _RESUME_CASES])
    def test_resume_with_cold_profiler_matches_uninterrupted(self, tiny_split,
                                                             tmp_path, backend,
                                                             delta):
        """A journaled profiled run, resumed by a fresh codec whose profiler
        has measured nothing, matches the uninterrupted run: the profile of a
        tensor is a function of its bytes, never of what the cache held."""
        journal = tmp_path / "journal"
        options = dict(n_clients=2, backend=backend, max_workers=2, delta=delta)
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
