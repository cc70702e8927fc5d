"""Tests for the persistent fleet runtime: long-lived pool scopes on the
execution backends, worker-resident clients in the coordinator, and the
durable drift-aware profile cache — plus the bit-identity matrix proving
every backend x worker count reproduces the serial 1-worker run exactly."""

import contextlib
import json
import os
import pickle

import numpy as np
import pytest

from repro.core.config import FedSZConfig
from repro.core.profiling import CodecProfiler, ProfiledPolicy
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.fl.client import FLClient
from repro.fl.coordinator.coordinator import TrainTask, _train_client_task
from repro.fl.coordinator.records import deterministic_fields
from repro.fl.coordinator.residency import (discard_fleet, install_fleet,
                                            resident_client)
from repro.nn import build_model
from repro.utils.parallel import get_backend


def _factory():
    return build_model("simplecnn", num_classes=10, in_channels=3, image_size=16, seed=0)


def _make_sim(tiny_split, **kwargs):
    train, test = tiny_split
    kwargs.setdefault("codec", RawUpdateCodec())
    kwargs.setdefault("lr", 0.1)
    kwargs.setdefault("seed", 5)
    return FederatedSimulation(_factory, train, test, **kwargs)


# module-level and picklable for the process backend
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
            with backend.executor(workers=2) as pool:
                assert pool.submit(_square, 5).result() == 25
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

    def test_serial_scope_is_noop_but_runs_initializer(self):
        backend = get_backend("serial")
        ran = []
        with backend.persistent(4, initializer=ran.append, initargs=(1,)) as scope:
            assert scope is None
            assert backend.map(_square, [2]) == [4]
        assert ran == [1]

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

    def test_process_scope_initializer_installs_state(self, tiny_split):
        """The process pool's initializer makes the fleet resident once."""
        train, _ = tiny_split
        client = FLClient(client_id=0, model=_factory(), dataset=train, seed=3)
        backend = get_backend("process")
        before = backend.pool_spinups
        with backend.persistent(2, initializer=install_fleet,
                                initargs=("t-proc", 0, {0: client})):
            task = TrainTask(client_id=0, epochs=1, round_index=0,
                             global_state=client.model.state_dict(),
                             fleet=("t-proc", 0))
            updates = backend.map(_train_client_task, [task, task], workers=2)
        assert len(updates) == 2
        assert updates[0].client_id == 0
        assert backend.pool_spinups - before == 1


# ---------------------------------------------------------------------------
# Worker-resident fleet registry
# ---------------------------------------------------------------------------

class TestResidency:
    def test_resolve_and_discard(self, tiny_split):
        train, _ = tiny_split
        client = FLClient(client_id=7, model=_factory(), dataset=train, seed=3)
        install_fleet("t-reg", 0, {7: client})
        try:
            assert resident_client("t-reg", 0, 7) is client
            with pytest.raises(LookupError, match="generation"):
                resident_client("t-reg", 1, 7)
            with pytest.raises(LookupError, match="not part of"):
                resident_client("t-reg", 0, 8)
        finally:
            discard_fleet("t-reg")
        with pytest.raises(LookupError, match="no resident fleet"):
            resident_client("t-reg", 0, 7)
        discard_fleet("t-reg")  # idempotent

    def test_reinstall_replaces_generation(self, tiny_split):
        train, _ = tiny_split
        a = FLClient(client_id=0, model=_factory(), dataset=train, seed=1)
        b = FLClient(client_id=0, model=_factory(), dataset=train, seed=2)
        install_fleet("t-gen", 0, {0: a})
        try:
            install_fleet("t-gen", 1, {0: b})
            assert resident_client("t-gen", 1, 0) is b
            with pytest.raises(LookupError):
                resident_client("t-gen", 0, 0)
        finally:
            discard_fleet("t-gen")


# ---------------------------------------------------------------------------
# Bit-identity: the persistent runtime vs the serial 1-worker reference
# ---------------------------------------------------------------------------

class TestPersistentBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_matrix_matches_serial_reference(self, tiny_split, backend, workers):
        """Acceptance criterion: seeded records are bit-identical with
        persistent pools + worker-resident clients across serial/thread/
        process x workers {1, 4}, against the serial 1-worker run."""
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

    def test_persistent_run_spins_one_pool(self, tiny_split):
        backend = get_backend("thread")
        before = backend.pool_spinups
        _make_sim(tiny_split, n_clients=4, max_workers=4,
                  backend="thread").run(2)
        assert backend.pool_spinups - before == 1


# ---------------------------------------------------------------------------
# Roster invalidation
# ---------------------------------------------------------------------------

class TestRosterInvalidation:
    def test_shared_memory_backend_bumps_generation(self, tiny_split):
        """Satellite requirement: worker-resident state is invalidated when
        the client roster changes between rounds."""
        train, _ = tiny_split
        sim = _make_sim(tiny_split, n_clients=4, max_workers=4, backend="thread")
        coord = sim.coordinator
        with coord.persistent_runtime():
            coord.run_round(0)
            resident = coord._resident
            assert resident.generation == 0
            replacement = FLClient(client_id=2, model=_factory(),
                                   dataset=coord.clients[2].dataset, seed=99)
            coord.clients[2] = replacement
            coord.run_round(1)
            assert resident.generation == 1
            assert resident.active
            # the registry now resolves the *new* client object
            assert resident_client(resident.token, 1, 2) is replacement

    def test_pickling_backend_deactivates_residency(self, tiny_split):
        # max_workers=1 keeps this cheap: the scope degrades inline but the
        # invalidation path is the same one a live process pool takes
        sim = _make_sim(tiny_split, n_clients=3, max_workers=1, backend="process")
        coord = sim.coordinator
        with coord.persistent_runtime():
            coord.run_round(0)
            resident = coord._resident
            replacement = FLClient(client_id=1, model=_factory(),
                                   dataset=coord.clients[1].dataset, seed=99)
            coord.clients[1] = replacement
            record = coord.run_round(1)
            assert resident.active is False
            # the round still trained the replacement via full-ship tasks
            assert len(record.client_losses) == 3

    @pytest.mark.parametrize("backend,workers", [("thread", 4), ("process", 2)])
    def test_roster_change_matches_fresh_reference(self, tiny_split, backend,
                                                   workers):
        """Invalidation is not just detected — the results stay correct.

        The reference runs the same rounds outside any persistent scope, so
        every map spins a fresh pool and every task ships its full client.
        On the process backend the roster change deactivates residency, so
        the persistent run's second round ships full clients over the live
        multi-worker pool."""
        def run(persistent):
            sim = _make_sim(tiny_split, n_clients=4, max_workers=workers,
                            backend=backend)
            coord = sim.coordinator
            records = []
            with coord.persistent_runtime() if persistent \
                    else contextlib.nullcontext():
                records.append(coord.run_round(0))
                replacement = FLClient(client_id=0, model=_factory(),
                                       dataset=coord.clients[0].dataset,
                                       seed=coord.clients[0].seed)
                coord.clients[0] = replacement
                records.append(coord.run_round(1))
                if persistent:
                    assert coord._resident.active is (backend == "thread")
            return [(r.accuracy, tuple(r.client_losses), r.transmitted_bytes)
                    for r in records]
        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# Durable profile cache
# ---------------------------------------------------------------------------

class TestDurableProfileCache:
    def _tensors(self, seed=0):
        rng = np.random.default_rng(seed)
        return {"w": rng.normal(size=(48, 32)).astype(np.float32),
                "b": rng.normal(size=(64,)).astype(np.float32)}

    def test_warm_start_is_measurement_free(self, tmp_path):
        path = tmp_path / "cache.json"
        cold = CodecProfiler(cost_model="analytic", profile_cache=path)
        profiles = cold.profile_tensors(self._tensors())
        assert cold.cache_info()["misses"] == 2
        assert path.exists()

        warm = CodecProfiler(cost_model="analytic", profile_cache=path)
        reloaded = warm.profile_tensors(self._tensors())
        assert warm.cache_info() == {"hits": 2, "misses": 0, "drifts": 0,
                                     "profiles": 2}
        for name in profiles:
            assert reloaded[name].measurements == profiles[name].measurements

    def test_drift_reuses_within_threshold(self, tmp_path):
        profiler = CodecProfiler(cost_model="analytic",
                                 profile_cache=tmp_path / "cache.json",
                                 drift_threshold=0.25)
        base = self._tensors()
        profiler.profile_tensors(base)
        nudged = {k: v + np.float32(1e-5) for k, v in base.items()}
        profiler.profile_tensors(nudged)
        info = profiler.cache_info()
        assert info["hits"] == 2 and info["drifts"] == 0

    def test_drift_remeasures_past_threshold(self, tmp_path):
        profiler = CodecProfiler(cost_model="analytic",
                                 profile_cache=tmp_path / "cache.json",
                                 drift_threshold=0.25)
        base = self._tensors()
        profiler.profile_tensors(base)
        shifted = {k: v * np.float32(10.0) for k, v in base.items()}
        profiler.profile_tensors(shifted)
        info = profiler.cache_info()
        assert info["drifts"] == 2 and info["misses"] == 2

    def test_grid_mismatch_starts_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        CodecProfiler(cost_model="analytic",
                      profile_cache=path).profile_tensors(self._tensors())
        other = CodecProfiler(cost_model="analytic", profile_cache=path,
                              error_bounds=(1e-2,))
        other.profile_tensors(self._tensors())
        assert other.cache_info()["misses"] == 2

    def test_version_one_cache_starts_empty(self, tmp_path):
        # version-1 measurements priced SZ bodies of HUF3 plus zlib
        path = tmp_path / "cache.json"
        CodecProfiler(cost_model="analytic",
                      profile_cache=path).profile_tensors(self._tensors())
        payload = json.loads(path.read_text())
        assert payload["version"] == 2 and payload["entries"]
        path.write_text(json.dumps(dict(payload, version=1)))
        stale = CodecProfiler(cost_model="analytic", profile_cache=path)
        stale.profile_tensors(self._tensors())
        assert stale.cache_info()["misses"] == 2

    def test_corrupt_cache_starts_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        profiler = CodecProfiler(cost_model="analytic", profile_cache=path)
        profiler.profile_tensors(self._tensors())
        assert profiler.cache_info()["misses"] == 2

    def test_policy_rejects_cache_with_explicit_profiler(self, tmp_path):
        with pytest.raises(ValueError, match="belong to the profiler"):
            ProfiledPolicy(profiler=CodecProfiler(cost_model="analytic"),
                           profile_cache=tmp_path / "cache.json")

    def test_invalid_drift_threshold(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            CodecProfiler(cost_model="analytic", drift_threshold=0.0)


# ---------------------------------------------------------------------------
# Profile-cache counters in round records + warm rounds
# ---------------------------------------------------------------------------

def _profiled_codec(tmp_path=None, **options):
    policy_options = {"bandwidth_mbps": 10.0, "max_bound": 1e-2, **options}
    if tmp_path is not None:
        policy_options["profile_cache"] = os.fspath(tmp_path)
    config = FedSZConfig(error_bound=1e-2, policy="profiled",
                         policy_options=policy_options)
    return FedSZUpdateCodec(config)


class TestRoundRecordCounters:
    def test_raw_codec_reports_none(self, tiny_split):
        result = _make_sim(tiny_split, n_clients=2).run(1)
        assert result.rounds[0].profile_cache is None

    def test_profiled_codec_reports_counters(self, tiny_split, tmp_path):
        codec = _profiled_codec(tmp_path / "cache.json")
        result = _make_sim(tiny_split, n_clients=2, codec=codec).run(2)
        first, last = result.rounds[0].profile_cache, result.rounds[1].profile_cache
        assert set(first) == {"hits", "misses", "drifts", "profiles"}
        assert first["misses"] > 0
        # counters are cumulative: later rounds never report less
        assert last["hits"] >= first["hits"]
        assert last["misses"] >= first["misses"]

    def test_warm_cache_makes_later_rounds_measurement_free(self, tiny_split,
                                                            tmp_path):
        """Acceptance criterion: with a warm cache, round 2+ plan-building is
        profiler-measurement-free (drift-tolerant reuse turns every lookup
        into a hit)."""
        codec = _profiled_codec(tmp_path / "cache.json", drift_threshold=50.0)
        result = _make_sim(tiny_split, n_clients=2, codec=codec).run(3)
        counters = [r.profile_cache for r in result.rounds]
        assert counters[0]["misses"] > 0
        for later in counters[1:]:
            assert later["misses"] == counters[0]["misses"]
            assert later["drifts"] == 0
        assert counters[2]["hits"] > counters[0]["hits"]

    def test_second_run_starts_warm_from_disk(self, tiny_split, tmp_path):
        path = tmp_path / "cache.json"
        _make_sim(tiny_split, n_clients=2,
                  codec=_profiled_codec(path, drift_threshold=50.0)).run(1)
        codec = _profiled_codec(path, drift_threshold=50.0)
        result = _make_sim(tiny_split, n_clients=2, codec=codec).run(1)
        info = result.rounds[0].profile_cache
        assert info["misses"] == 0 and info["drifts"] == 0 and info["hits"] > 0


# ---------------------------------------------------------------------------
# Journal resume with a warm profile cache
# ---------------------------------------------------------------------------

class TestJournalResumeWarmCache:
    def test_resume_with_warm_cache_matches_uninterrupted(self, tiny_split,
                                                          tmp_path):
        """Satellite requirement: journal resume=True works with a warm
        profile cache — the resumed half plans from the cache the first half
        wrote, and the combined records match an uninterrupted reference."""
        journal = tmp_path / "journal"
        cache_a = tmp_path / "cache_a.json"
        cache_ref = tmp_path / "cache_ref.json"

        # first half: one journaled round, cache written to disk
        _make_sim(tiny_split, n_clients=2, codec=_profiled_codec(cache_a),
                  journal_dir=journal).run(1)
        assert cache_a.exists()

        # resumed half: replays round 0, runs round 1 live from the warm cache
        codec = _profiled_codec(cache_a)
        resumed_sim = _make_sim(tiny_split, n_clients=2, codec=codec,
                                journal_dir=journal, resume=True)
        assert codec.profiler.cache_info()["profiles"] > 0, \
            "resumed run should construct with the warm cache loaded"
        resumed = resumed_sim.run(2)

        # uninterrupted reference with its own (initially empty) cache file,
        # so drift-tolerant reuse follows the same measurement history
        reference = _make_sim(tiny_split, n_clients=2,
                              codec=_profiled_codec(cache_ref)).run(2)
        assert deterministic_fields(resumed) == deterministic_fields(reference)
