"""Tests for the persistent fleet runtime: long-lived pool scopes on the
execution backends, worker-resident clients in the coordinator, and the
journal resume of a profiled run — plus the bit-identity matrix proving
every backend x worker count reproduces the serial 1-worker run exactly."""

import contextlib
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import FedSZConfig
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.fl.client import FLClient
from repro.fl.coordinator.coordinator import TrainTask, _train_client_task
from repro.fl.coordinator.records import deterministic_fields
from repro.fl.coordinator.residency import (discard_fleet, install_fleet,
                                            resident_client)
from repro.nn import build_model
from repro.utils.parallel import SharedMemoryArena, get_backend


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

    def test_serial_backend_never_builds_a_pool(self):
        # serial resolves every map and scope to one inline worker, so no
        # pool exists to count
        backend = get_backend("serial")
        before = backend.pool_spinups
        assert backend.map(_square, [1, 2, 3], workers=4) == [1, 4, 9]
        with backend.persistent(4):
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


#: a pool holder that hard-exits, as the journal's crash hook does, after
#: printing its workers' pids
_ORPHANING_CHILD = textwrap.dedent("""
    import multiprocessing, os
    from repro.utils.parallel import get_backend
    with get_backend("process").persistent(2) as pool:
        pool.map(abs, range(8))
        print(*(p.pid for p in multiprocessing.active_children()), flush=True)
        os._exit(42)
""")


def _proc_state(pid: int) -> "str | None":
    """The state letter of ``/proc/<pid>/stat``, or ``None`` once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_process_workers_exit_with_their_pool_holder(tmp_path):
    # the output goes to files: surviving workers would hold a pipe open
    out, err = tmp_path / "pids.txt", tmp_path / "stderr.txt"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with out.open("w") as stdout, err.open("w") as stderr:
        child = subprocess.run([sys.executable, "-c", _ORPHANING_CHILD], env=env,
                               stdout=stdout, stderr=stderr, timeout=60)
    assert child.returncode == 42, err.read_text()[-2000:]
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 10
        while any(_proc_state(pid) not in (None, "Z") for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.1)
        states = {pid: _proc_state(pid) for pid in pids}
        assert all(state in (None, "Z") for state in states.values()), states
    finally:
        for pid in pids:
            if _proc_state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)


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

    def test_resident_dropout_replicas_match_serial_reference(self, tiny_split):
        """Worker-resident alexnet replicas on worker processes: which worker
        trained a client in an earlier round must not leak into its dropout
        masks."""
        runs = {}
        for label, name, workers in (("reference", "serial", 1),
                                     ("pooled", "process", 2)):
            sim = _make_sim(tiny_split, model_factory=_alexnet, n_clients=4,
                            max_workers=workers, backend=name)
            runs[label] = (sim.run(3), sim.server.global_state())
        (reference, ref_state), (pooled, pooled_state) = runs["reference"], runs["pooled"]
        assert deterministic_fields(pooled) == deterministic_fields(reference)
        for key in ref_state:
            np.testing.assert_array_equal(pooled_state[key], ref_state[key])

    def test_fedsz_bitstreams_match_serial_reference(self, tiny_split):
        def run(backend, workers):
            codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2))
            return _make_sim(tiny_split, n_clients=3, max_workers=workers,
                             backend=backend, codec=codec).run(2)
        reference, persistent = run("serial", 1), run("thread", 3)
        assert deterministic_fields(persistent) == deterministic_fields(reference)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_persistent_run_spins_one_pool(self, tiny_split, backend):
        pool_backend = get_backend(backend)
        before = pool_backend.pool_spinups
        _make_sim(tiny_split, n_clients=4, max_workers=4,
                  backend=backend).run(2)
        assert pool_backend.pool_spinups - before == 1

    def test_resident_train_task_pickles_smaller_than_a_full_ship(self, tiny_split):
        # the full-ship task carries the client (its shard included) and the
        # broadcast state; the resident one a fleet reference and an arena
        # handle (483 B against 188,718 B here)
        sim = _make_sim(tiny_split, n_clients=4)
        client, state = sim.clients[0], sim.server.global_state()
        full = pickle.dumps(TrainTask(client_id=client.client_id, epochs=1,
                                      round_index=0, global_state=state,
                                      client=client))
        with SharedMemoryArena(state) as arena:
            resident = pickle.dumps(TrainTask(client_id=client.client_id, epochs=1,
                                              round_index=0, state_handle=arena.handle,
                                              fleet=("test", 0)))
        assert len(resident) < len(full)


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
# Journal resume of a profiled run
# ---------------------------------------------------------------------------

def _profiled_codec():
    config = FedSZConfig(error_bound=1e-2, policy="profiled",
                         policy_options={"bandwidth_mbps": 10.0,
                                         "max_bound": 1e-2})
    return FedSZUpdateCodec(config)


_RESUME_CASES = [("serial", False), ("thread", False), ("thread", True),
                 ("process", True)]


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
        if not get_backend(backend).pickles_arguments:
            # a process worker measures on its own copy of the profiler
            assert codec.profiler.cache_info()["misses"] > 0

        reference_sim = _make_sim(tiny_split, codec=_profiled_codec(), **options)
        reference = reference_sim.run(2)
        assert deterministic_fields(resumed) == deterministic_fields(reference)
        ref_state = reference_sim.server.global_state()
        res_state = resumed_sim.server.global_state()
        assert list(res_state) == list(ref_state)
        for key in ref_state:
            assert np.array_equal(res_state[key], ref_state[key]), key
