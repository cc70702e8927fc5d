"""Round-engine concurrency: parallel workers vs the sequential reference.

An 8-client FedAvg round over a simulated 2 Mbps uplink (``simulate_delay=True``,
the paper's MPI-delay-injection methodology) is executed sequentially
(``max_workers=1``) and with a 4-worker pool on the selected execution backend
(``--backend serial|thread|process``).  The parallel engine must be measurably
faster in wall clock — the injected per-client transfer delays overlap across
workers, and on multicore hosts the BLAS-heavy training does too — while
reproducing the sequential accuracies and byte counts bit-for-bit on every
backend.

Two entry points:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_round_engine.py -o
  python_files="bench_*.py" -o python_functions="bench_*"`` — the historic
  pytest-benchmark harness (thread backend, persists results),
* ``PYTHONPATH=src python benchmarks/bench_round_engine.py [--backend process]
  [--smoke]`` — direct CLI; ``--smoke`` is the correctness-only CI drill that
  exercises the backend's picklability contract end-to-end without timing
  assertions or clobbering committed results.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import fl_settings, quick_fl_data, save_results
from repro.core import NetworkModel
from repro.fl import FederatedSimulation, RawUpdateCodec
from repro.fl.coordinator.coordinator import TrainTask
from repro.metrics import ExperimentRecord, Table
from repro.nn import build_model
from repro.utils.parallel import SharedMemoryArena, get_backend

N_CLIENTS = 8
WORKERS = 4
ROUNDS = 2
BANDWIDTH_MBPS = 2.0


def _build_simulation(train, test, cfg, max_workers: int,
                      backend: str = "thread") -> FederatedSimulation:
    def factory():
        return build_model(cfg["model"], num_classes=10, in_channels=3,
                           image_size=cfg["image_size"], seed=0)

    network = NetworkModel(bandwidth_mbps=BANDWIDTH_MBPS, simulate_delay=True)
    return FederatedSimulation(factory, train, test, n_clients=N_CLIENTS,
                               codec=RawUpdateCodec(), network=network,
                               batch_size=cfg["batch_size"], lr=cfg["lr"], seed=11,
                               max_workers=max_workers, uplink="parallel",
                               backend=backend)


def _pickled_task_bytes(sim: FederatedSimulation) -> "tuple[int, int]":
    """Per-client train-task pickle size: full-ship vs worker-resident form.

    The full-ship task carries the client (dataset shard included) and the
    broadcast state inline — O(shard) per client per round on a pickling
    backend.  The resident task carries a fleet reference and a shared-memory
    arena handle — O(task metadata).
    """
    client = sim.clients[0]
    global_state = sim.server.global_state()
    full = len(pickle.dumps(TrainTask(
        client_id=client.client_id, epochs=1, round_index=0,
        global_state=global_state, client=client)))
    with SharedMemoryArena(global_state) as arena:
        resident = len(pickle.dumps(TrainTask(
            client_id=client.client_id, epochs=1, round_index=0,
            state_handle=arena.handle, fleet=("bench", 0))))
    return full, resident


def _run_engine(backend: str, workers: int = WORKERS, rounds: int = ROUNDS):
    """Sequential vs ``workers``-wide run on ``backend``; returns walls/results."""
    cfg = fl_settings()
    train, test = quick_fl_data("cifar10", seed=47)
    exec_backend = get_backend(backend)
    walls = {}
    results = {}
    spinups = {}
    for max_workers in (1, workers):
        sim = _build_simulation(train, test, cfg, max_workers, backend=backend)
        before = exec_backend.pool_spinups
        start = time.perf_counter()
        results[max_workers] = sim.run(rounds)
        walls[max_workers] = time.perf_counter() - start
        spinups[max_workers] = exec_backend.pool_spinups - before
    return walls, results, spinups


def _run_persistence_drill(backend: str, workers: int = WORKERS,
                           rounds: int = ROUNDS) -> dict:
    """Persistent runtime: one pool per run and O(metadata) train tasks.

    Returns the run's pool-spinup count plus the per-client pickled task
    bytes of each shipping form; raises when the run spins up more than one
    pool or the resident form fails to undercut the full-ship form.
    """
    cfg = fl_settings()
    train, test = quick_fl_data("cifar10", seed=47)
    exec_backend = get_backend(backend)
    sim = _build_simulation(train, test, cfg, workers, backend=backend)
    before = exec_backend.pool_spinups
    start = time.perf_counter()
    sim.run(rounds)
    wall = time.perf_counter() - start
    spinups = exec_backend.pool_spinups - before
    full_bytes, resident_bytes = _pickled_task_bytes(sim)

    assert resident_bytes < full_bytes, \
        f"resident task ({resident_bytes}B) not smaller than full-ship ({full_bytes}B)"
    if backend != "serial" and workers > 1:
        assert spinups <= 1, f"expected one persistent pool, got {spinups}"
    return {"wall": wall, "spinups": spinups,
            "full_task_bytes": full_bytes, "resident_task_bytes": resident_bytes}


def _check_and_report(walls, results, backend: str, workers: int,
                      persist: bool, assert_speedup: bool,
                      spinups: "dict | None" = None,
                      persistence: "dict | None" = None) -> int:
    sequential, parallel = results[1], results[workers]
    speedup = walls[1] / walls[workers]

    table = Table(f"Round engine ({backend} backend) - {N_CLIENTS} clients, "
                  f"{ROUNDS} rounds, {BANDWIDTH_MBPS:g} Mbps simulated uplink",
                  ["workers", "wall (s)", "speedup", "final acc", "upload (KB)",
                   "pool spinups"])
    record = ExperimentRecord("round_engine",
                              "parallel round engine vs sequential reference")
    record.add(backend=backend, host_cores=os.cpu_count() or 1)
    for max_workers in (1, workers):
        result = results[max_workers]
        table.add_row(max_workers, f"{walls[max_workers]:.2f}",
                      f"{walls[1] / walls[max_workers]:.2f}x",
                      f"{result.final_accuracy:.1%}",
                      f"{result.total_transmitted_bytes / 1e3:.1f}",
                      (spinups or {}).get(max_workers, "-"))
        record.add(workers=max_workers, wall_seconds=walls[max_workers],
                   final_accuracy=result.final_accuracy,
                   transmitted_bytes=result.total_transmitted_bytes,
                   pool_spinups=(spinups or {}).get(max_workers))
    record.add(speedup=speedup)
    if persistence is not None:
        record.add(drill="persistent", **{
            "persistent_wall_seconds": persistence["wall"],
            "persistent_pool_spinups": persistence["spinups"],
            "full_task_bytes": persistence["full_task_bytes"],
            "resident_task_bytes": persistence["resident_task_bytes"]})
        print(f"\npersistent runtime ({backend}, {workers} workers): "
              f"{persistence['spinups']} pool spinup(s), "
              f"train task {persistence['resident_task_bytes']:,}B resident vs "
              f"{persistence['full_task_bytes']:,}B full-ship")
    if persist:
        save_results("round_engine", table, record)
    else:
        print()
        print(table.render())

    # The parallel engine must reproduce the sequential reference bit-for-bit...
    assert parallel.accuracies == sequential.accuracies
    assert [r.transmitted_bytes for r in parallel.rounds] == \
        [r.transmitted_bytes for r in sequential.rounds]
    assert [r.communication_seconds for r in parallel.rounds] == \
        [r.communication_seconds for r in sequential.rounds]
    assert np.all([r.client_losses == s.client_losses
                   for r, s in zip(parallel.rounds, sequential.rounds)])
    # ... while finishing measurably sooner (transfer delays overlap).  The
    # timing assertion is skipped on shared CI runners, where scheduling noise
    # on a loaded 2-core box would make a single-round wall-clock comparison
    # flaky; the table above still reports the measured speedup there.
    if assert_speedup and not os.environ.get("CI"):
        assert walls[workers] < walls[1] * 0.8, \
            f"expected >1.25x speedup, got {speedup:.2f}x"
    return 0


def bench_round_engine(benchmark):
    """pytest-benchmark harness (historic entry point; thread backend)."""
    walls, results, spinups = benchmark.pedantic(lambda: _run_engine("thread"),
                                                 rounds=1, iterations=1)
    _check_and_report(walls, results, backend="thread", workers=WORKERS,
                      persist=True, assert_speedup=True, spinups=spinups,
                      persistence=_run_persistence_drill("thread"))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--backend", default="thread",
                        choices=("serial", "thread", "process"),
                        help="execution backend for the parallel engine side")
    parser.add_argument("--workers", type=int, default=WORKERS,
                        help="worker-pool size of the parallel run")
    parser.add_argument("--smoke", action="store_true",
                        help="correctness-only drill: no timing assertion, "
                             "results are not persisted (CI mode)")
    parser.add_argument("--persistent", action="store_true",
                        help="also run the persistent-runtime drill: one "
                             "long-lived pool + worker-resident clients, "
                             "asserting one pool spinup per run and the "
                             "pickled train-task bytes reduction")
    args = parser.parse_args(argv)

    walls, results, spinups = _run_engine(args.backend, workers=args.workers)
    persistence = _run_persistence_drill(args.backend, workers=args.workers) \
        if args.persistent else None
    # the serial backend (or a 1-worker pool) runs both sides sequentially:
    # parity is still checked, a speedup is not expected
    assert_speedup = not args.smoke and args.backend != "serial" and args.workers > 1
    return _check_and_report(walls, results, backend=args.backend,
                             workers=args.workers, persist=not args.smoke,
                             assert_speedup=assert_speedup, spinups=spinups,
                             persistence=persistence)


if __name__ == "__main__":
    sys.exit(main())
