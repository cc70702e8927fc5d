"""Coordinator services: persistent runtime, durable rounds.

Drills over an 8-client FedAvg run on a simulated 2 Mbps uplink:

* **persistent runtime** — run the rounds under the persistent runtime (one
  long-lived 4-worker pool, worker-resident clients); the run must spin up
  one pool, and the per-client pickled train-task bytes of the resident form
  must undercut the full-ship form.
* **kill-and-resume** (``--kill-resume``) — launch a journaled ``alexnet`` run
  (the built-in model with dropout) in a child process that hard-exits
  mid-round (``REPRO_JOURNAL_CRASH_AFTER``), resume it from the journal, and
  require the combined result to match an uninterrupted reference on every
  deterministic field plus the final global state.

Two entry points:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_coordinator.py -o
  python_files="bench_*.py" -o python_functions="bench_*"`` — pytest-benchmark
  harness (thread backend, persists results),
* ``PYTHONPATH=src python benchmarks/bench_coordinator.py [--backend process]
  [--smoke] [--kill-resume]`` — direct CLI; ``--smoke`` is the
  correctness-only CI drill without timing assertions.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import fl_settings, quick_fl_data, save_results
from repro.core import NetworkModel
from repro.fl import FederatedSimulation, RawUpdateCodec
from repro.fl.coordinator import deterministic_fields
from repro.fl.coordinator.coordinator import TrainTask
from repro.metrics import ExperimentRecord, Table
from repro.nn import build_model
from repro.utils.parallel import SharedMemoryArena, get_backend

N_CLIENTS = 8
ROUNDS = 2
BANDWIDTH_MBPS = 2.0
SEED = 13
#: the kill-resume drill trains through dropout, so a resumed run must
#: reproduce the masks of the rounds it retrains
KILL_RESUME_MODEL = "alexnet"


def _build_simulation(train, test, cfg, backend: str = "thread",
                      simulate_delay: bool = True, **kwargs):
    def factory():
        return build_model(cfg["model"], num_classes=10, in_channels=3,
                           image_size=cfg["image_size"], seed=0)

    network = NetworkModel(bandwidth_mbps=BANDWIDTH_MBPS,
                           simulate_delay=simulate_delay)
    return FederatedSimulation(factory, train, test, n_clients=N_CLIENTS,
                               codec=RawUpdateCodec(), network=network,
                               batch_size=cfg["batch_size"], lr=cfg["lr"],
                               seed=SEED, uplink="parallel", backend=backend,
                               **kwargs)


# ---------------------------------------------------------------------------
def _run_persistent_drill(train, test, cfg, backend: str) -> dict:
    """Persistent runtime: one pool per run, resident train-task bytes."""
    exec_backend = get_backend(backend)
    sim = _build_simulation(train, test, cfg, backend=backend, max_workers=4)
    before = exec_backend.pool_spinups
    start = time.perf_counter()
    result = sim.run(ROUNDS)
    wall = time.perf_counter() - start
    spinups = exec_backend.pool_spinups - before
    if backend != "serial":
        assert spinups == 1, f"expected one pool per run, got {spinups}"

    client = sim.clients[0]
    global_state = sim.server.global_state()
    full_bytes = len(pickle.dumps(TrainTask(
        client_id=client.client_id, epochs=1, round_index=0,
        global_state=global_state, client=client)))
    with SharedMemoryArena(global_state) as arena:
        resident_bytes = len(pickle.dumps(TrainTask(
            client_id=client.client_id, epochs=1, round_index=0,
            state_handle=arena.handle, fleet=("bench", 0))))
    assert resident_bytes < full_bytes
    return {"wall": wall, "spinups": spinups, "result": result,
            "full_task_bytes": full_bytes,
            "resident_task_bytes": resident_bytes}


def _kill_resume_simulation(backend: str, **kwargs):
    """The kill-resume drill's run: child, reference and resume alike.

    The drill compares deterministic fields, which carry the analytic
    transfer time, so it sleeps no real transfer time: at 2 Mbps each raw
    alexnet ship would sleep seconds and check nothing more.
    """
    cfg = dict(fl_settings(), model=KILL_RESUME_MODEL)
    train, test = quick_fl_data("cifar10", seed=47)
    return _build_simulation(train, test, cfg, backend=backend,
                             simulate_delay=False, **kwargs)


def _run_kill_resume_drill(backend: str) -> dict:
    """Kill a journaled child mid-round, resume, compare to uninterrupted."""
    with tempfile.TemporaryDirectory(prefix="fedsz-journal-") as journal_dir:
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             child_env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        # die after the 7th journal event: run header + round 0 (round_start,
        # 8 ships, round_complete) would be 11 events, so event 7 lands in the
        # middle of round 0's client ships — a genuine mid-round crash
        child_env["REPRO_JOURNAL_CRASH_AFTER"] = "7"
        child = subprocess.run(
            [sys.executable, __file__, "--_child", "--backend", backend,
             "--journal-dir", journal_dir],
            env=child_env, capture_output=True, text=True)
        if child.returncode != 42:
            raise AssertionError(
                f"crash child expected to hard-exit 42, got {child.returncode}:\n"
                f"{child.stderr[-2000:]}")

        reference_sim = _kill_resume_simulation(backend)
        reference = reference_sim.run(ROUNDS)
        resumed_sim = _kill_resume_simulation(backend, journal_dir=journal_dir,
                                              resume=True)
        resumed = resumed_sim.run(ROUNDS)

        assert deterministic_fields(resumed) == deterministic_fields(reference), \
            "resumed run diverged from the uninterrupted reference"
        ref_state = reference_sim.server.global_state()
        res_state = resumed_sim.server.global_state()
        assert all(np.array_equal(ref_state[k], res_state[k]) for k in ref_state), \
            "resumed final global state is not bit-identical"
        return {"crash_exit": child.returncode,
                "rounds": len(resumed.rounds),
                "final_accuracy": resumed.final_accuracy}


def _child_main(backend: str, journal_dir: str) -> int:
    """Child half of the kill-resume drill: run journaled until the crash hook."""
    sim = _kill_resume_simulation(backend, journal_dir=journal_dir)
    sim.run(ROUNDS)  # REPRO_JOURNAL_CRASH_AFTER hard-exits before completion
    return 0  # reached only if the crash hook never fired


# ---------------------------------------------------------------------------
def _check_and_report(backend: str, persist: bool, kill_resume: bool) -> int:
    cfg = fl_settings()
    train, test = quick_fl_data("cifar10", seed=47)

    persistent = _run_persistent_drill(train, test, cfg, backend)

    table = Table(f"Coordinator services ({backend} backend) - {N_CLIENTS} "
                  f"clients, {ROUNDS} rounds, {BANDWIDTH_MBPS:g} Mbps simulated uplink",
                  ["drill", "wall (s)", "bit-identical"])
    record = ExperimentRecord("coordinator", "persistent runtime + durable rounds")
    record.add(backend=backend, host_cores=os.cpu_count() or 1)
    table.add_row(f"runtime persistent ({persistent['spinups']} pool spinups)",
                  f"{persistent['wall']:.2f}", "-")
    record.add(drill="runtime-persistent", wall_seconds=persistent["wall"],
               pool_spinups=persistent["spinups"],
               final_accuracy=persistent["result"].final_accuracy)
    record.add(full_task_bytes=persistent["full_task_bytes"],
               resident_task_bytes=persistent["resident_task_bytes"])
    if kill_resume:
        resume_stats = _run_kill_resume_drill(backend)
        table.add_row("kill-and-resume", "-", "True")
        record.add(drill="kill-and-resume", **resume_stats)

    if persist:
        save_results("coordinator", table, record)
    else:
        print()
        print(table.render())
    return 0


def bench_coordinator(benchmark):
    """pytest-benchmark harness (historic entry point; thread backend)."""
    benchmark.pedantic(
        lambda: _check_and_report("thread", persist=True, kill_resume=False),
        rounds=1, iterations=1)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--backend", default="thread",
                        choices=("serial", "thread", "process"),
                        help="execution backend for pooled stages")
    parser.add_argument("--smoke", action="store_true",
                        help="correctness-only drill: results are not "
                             "persisted (CI mode)")
    parser.add_argument("--kill-resume", action="store_true",
                        help="also run the crash-mid-round + journal-resume drill")
    parser.add_argument("--_child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--journal-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args._child:
        return _child_main(args.backend, args.journal_dir)
    return _check_and_report(args.backend, persist=not args.smoke,
                             kill_resume=args.kill_resume)


if __name__ == "__main__":
    sys.exit(main())
