"""Cross-round residual shipping: delta codec ratio, error feedback, durability.

Four drills over a seeded FedAvg run of the round-engine bench model
(``simplecnn``), comparing full-state FedSZ shipping against the delta codec
(clients compress ``state - reference`` with an error-feedback accumulator
and FDL5 framing):

* **ratio** — the same run with and without ``delta=True``; round 0 is a cold
  full ship on both sides, and from round 2 onward (warm reference on every
  client) the delta payload must be at least ``RATIO_FLOOR`` times smaller.
  Per-round degrade reasons ride along from the :class:`RoundRecord` fields.
* **error feedback** — an FLClient-driven loop outside the simulation: each
  round the clients train, their true states are FedAvg'd into the
  uncompressed reference, and the delta-codec reconstructions are FedAvg'd
  into what the server actually sees.  Every float tensor must stay within
  ``EF_SLACK`` x the configured relative error bound of the reference —
  error feedback keeps single-round quantization errors from accumulating.
* **bit-identity** — the delta run re-executed across execution backends and
  worker counts must reproduce every deterministic round field (including
  ``delta_clients`` / ``delta_degrades``) bit-for-bit against the serial
  reference.
* **kill-and-resume** (``--kill-resume``) — a journaled delta run of
  ``alexnet`` (the built-in model with dropout) is crashed mid-round in a
  child process (``REPRO_JOURNAL_CRASH_AFTER``), resumed from the journal
  plus the delta sidecars, and must match an uninterrupted reference on every
  deterministic field and the final global state.

Two entry points:

* ``PYTHONPATH=src python -m pytest benchmarks/bench_delta.py -o
  python_files="bench_*.py" -o python_functions="bench_*"`` — pytest-benchmark
  harness (thread backend, persists results),
* ``PYTHONPATH=src python benchmarks/bench_delta.py [--backend thread]
  [--smoke] [--kill-resume]`` — direct CLI; ``--smoke`` is the
  correctness-only CI drill (reduced sizes, relaxed ratio floor, results are
  not persisted).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import save_results
from repro.core import FedSZConfig
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec, fedavg_aggregate
from repro.fl.client import FLClient
from repro.fl.coordinator import deterministic_fields
from repro.fl.delta import DeltaUpdateCodec, advance_accumulator
from repro.metrics import ExperimentRecord, Table
from repro.nn import build_model

ERROR_BOUND = 1e-2
#: partition threshold: every conv/linear weight of the bench model rides the
#: lossy (residual-compressed) channel; only the tiny biases stay lossless
THRESHOLD = 128
BATCH_SIZE = 32
SEED = 11
DATA_SEED = 47
#: required warm-reference payload shrink from round 2 onward (full scale);
#: the smoke drill runs the model at 16x16 where fixed per-ship container
#: overhead eats more of the win, so it only checks the direction
RATIO_FLOOR = 2.0
SMOKE_RATIO_FLOOR = 1.2
#: transient error-feedback slack: the accumulator folds last round's
#: quantization error into this round's residual, so a single round may
#: overshoot the bound by the carried error before feedback cancels it
EF_SLACK = 2.5
#: the kill-resume drill trains through dropout, so a resumed run must
#: reproduce the masks of the rounds it retrains
KILL_RESUME_MODEL = "alexnet"


def _settings(smoke: bool) -> dict:
    if smoke:
        return {"n_samples": 240, "image_size": 16, "n_clients": 4,
                "rounds": 3, "lr": 0.1}
    return {"n_samples": 480, "image_size": 32, "n_clients": 8,
            "rounds": 4, "lr": 0.1}


def _data(settings: dict):
    return train_test_split(
        make_dataset("cifar10", n_samples=settings["n_samples"],
                     image_size=settings["image_size"], seed=DATA_SEED),
        test_fraction=0.2, seed=3)


def _codec() -> FedSZUpdateCodec:
    return FedSZUpdateCodec(FedSZConfig(error_bound=ERROR_BOUND,
                                        threshold=THRESHOLD))


def _build_simulation(train, test, settings: dict, model: str = "simplecnn",
                      **kwargs):
    def factory():
        return build_model(model, num_classes=10, in_channels=3,
                           image_size=settings["image_size"], seed=0)

    kwargs.setdefault("backend", "serial")
    return FederatedSimulation(factory, train, test,
                               n_clients=settings["n_clients"],
                               codec=_codec(), batch_size=BATCH_SIZE,
                               lr=settings["lr"], seed=SEED,
                               uplink="parallel", **kwargs)


# ---------------------------------------------------------------------------
def _run_ratio_drill(train, test, settings: dict, backend: str,
                     ratio_floor: float) -> dict:
    """Full-state vs delta shipping: per-round bytes and degrades."""
    rounds = settings["rounds"]
    full = _build_simulation(train, test, settings, backend=backend,
                             delta=False).run(rounds)
    delta = _build_simulation(train, test, settings, backend=backend,
                              delta=True).run(rounds)

    ratios = [f.transmitted_bytes / d.transmitted_bytes
              for f, d in zip(full.rounds, delta.rounds)]
    # round 0 is a cold full ship on every client: both sides pay the same
    # payload (modulo the 13-byte FDL5 frame), and the record says why
    first = delta.rounds[0]
    assert not first.delta_clients, \
        f"round 0 shipped deltas without a warm reference: {first.delta_clients}"
    assert set(first.delta_degrades.values()) == {"cold"}, \
        f"round 0 degrades should all be 'cold': {first.delta_degrades}"
    # from round 2 onward every participant holds a warm server-acknowledged
    # reference, so the residual payload must clear the ratio floor
    for record, ratio in zip(delta.rounds[2:], ratios[2:]):
        assert not record.delta_degrades, \
            f"warm round {record.round_index} degraded: {record.delta_degrades}"
        assert sorted(record.delta_clients) == sorted(record.participants), \
            f"warm round {record.round_index} did not ship all-delta"
        assert ratio >= ratio_floor, \
            (f"round {record.round_index}: delta payload only "
             f"{ratio:.2f}x smaller than full-state (floor {ratio_floor}x)")
    return {"full": full, "delta": delta, "ratios": ratios}


def _run_error_bound_drill(settings: dict) -> float:
    """Delta reconstructions vs the uncompressed-FedAvg reference.

    Drives FLClients directly (no simulation) so the true trained states are
    observable each round: the FedAvg of the codec reconstructions — what the
    server aggregates — must track the FedAvg of the exact states within the
    configured relative error bound (times the transient EF slack).
    """
    train, _test = _data(settings)
    n_clients = settings["n_clients"]

    def factory():
        return build_model("simplecnn", num_classes=10, in_channels=3,
                           image_size=settings["image_size"], seed=0)

    clients = [FLClient(i, factory(), train, batch_size=BATCH_SIZE,
                        lr=settings["lr"], seed=100 + i)
               for i in range(n_clients)]
    codecs = [DeltaUpdateCodec(_codec()) for _ in range(n_clients)]
    accs: list = [None] * n_clients
    server_state = factory().state_dict()

    worst = 0.0
    for round_index in range(settings["rounds"]):
        true_states, recon_states = [], []
        for i, (client, codec) in enumerate(zip(clients, codecs)):
            client.receive_global(server_state)
            state = client.train_local(epochs=1, round_index=round_index).state
            codec.arm(server_state, round_index, delta=round_index > 0,
                      acc=accs[i])
            recon = codec.decode(codec.encode(state))
            accs[i] = advance_accumulator(state, recon, accs[i])
            true_states.append(state)
            recon_states.append(recon)
        reference = fedavg_aggregate(true_states)
        aggregated = fedavg_aggregate(recon_states)
        for name, ref in reference.items():
            ref = np.asarray(ref)
            if ref.dtype.kind != "f":
                continue
            bound = ERROR_BOUND * float(np.ptp(ref))
            err = float(np.max(np.abs(aggregated[name].astype(np.float64)
                                      - ref.astype(np.float64))))
            worst = max(worst, err / bound if bound else 0.0)
            assert err <= EF_SLACK * bound, \
                (f"round {round_index} {name}: aggregated reconstruction off "
                 f"the uncompressed reference by {err:.3e} "
                 f"(bound {bound:.3e}, slack {EF_SLACK}x)")
        server_state = aggregated  # train the next round on what FL really sees
    return worst


def _run_identity_drill(train, test, settings: dict, backend: str) -> list:
    """Delta runs across backend x workers match the serial run."""
    rounds = settings["rounds"]
    reference = _build_simulation(train, test, settings, backend="serial",
                                  max_workers=1, delta=True).run(rounds)
    labels = []
    for workers in (1, 4):
        label = f"{backend}-w{workers}"
        got = _build_simulation(train, test, settings, delta=True, backend=backend,
                                max_workers=workers).run(rounds)
        assert deterministic_fields(got) == deterministic_fields(reference), \
            f"delta run on {label} diverged from the serial reference"
        labels.append(label)
    return labels


def _run_kill_resume_drill(settings: dict, backend: str) -> dict:
    """Crash a journaled delta run mid-round, resume, compare bit-for-bit."""
    with tempfile.TemporaryDirectory(prefix="fedsz-delta-journal-") as journal_dir:
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             child_env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        # die after the 5th journal event: run header + round 0's round_start
        # leave events 3+ as the per-client ships, so event 5 lands mid-round
        # with some delta sidecars persisted and some not yet written
        child_env["REPRO_JOURNAL_CRASH_AFTER"] = "5"
        child = subprocess.run(
            [sys.executable, __file__, "--_child", "--backend", backend,
             "--journal-dir", journal_dir]
            + (["--smoke"] if settings["image_size"] == 16 else []),
            env=child_env, capture_output=True, text=True)
        if child.returncode != 42:
            raise AssertionError(
                f"crash child expected to hard-exit 42, got {child.returncode}:\n"
                f"{child.stderr[-2000:]}")

        train, test = _data(settings)
        rounds = settings["rounds"]
        reference_sim = _build_simulation(train, test, settings,
                                          model=KILL_RESUME_MODEL,
                                          backend=backend, delta=True)
        reference = reference_sim.run(rounds)
        resumed_sim = _build_simulation(train, test, settings,
                                        model=KILL_RESUME_MODEL, backend=backend,
                                        delta=True, journal_dir=journal_dir,
                                        resume=True)
        resumed = resumed_sim.run(rounds)

        assert deterministic_fields(resumed) == deterministic_fields(reference), \
            "resumed delta run diverged from the uninterrupted reference"
        ref_state = reference_sim.server.global_state()
        res_state = resumed_sim.server.global_state()
        assert all(np.array_equal(ref_state[k], res_state[k]) for k in ref_state), \
            "resumed final global state is not bit-identical"
        return {"crash_exit": child.returncode,
                "rounds": len(resumed.rounds),
                "final_accuracy": resumed.final_accuracy}


def _child_main(backend: str, journal_dir: str, smoke: bool) -> int:
    """Child half of the kill-resume drill: run journaled until the crash hook."""
    settings = _settings(smoke)
    train, test = _data(settings)
    sim = _build_simulation(train, test, settings, model=KILL_RESUME_MODEL,
                            backend=backend, delta=True, journal_dir=journal_dir)
    sim.run(settings["rounds"])  # REPRO_JOURNAL_CRASH_AFTER hard-exits first
    return 0  # reached only if the crash hook never fired


# ---------------------------------------------------------------------------
def _check_and_report(backend: str, smoke: bool, kill_resume: bool) -> int:
    settings = _settings(smoke)
    train, test = _data(settings)
    ratio_floor = SMOKE_RATIO_FLOOR if smoke else RATIO_FLOOR

    ratio = _run_ratio_drill(train, test, settings, backend, ratio_floor)
    worst_ef = _run_error_bound_drill(settings)
    identity_labels = _run_identity_drill(train, test, settings, backend)

    table = Table(
        f"Delta shipping vs full-state FedSZ - simplecnn "
        f"{settings['image_size']}x{settings['image_size']}, "
        f"{settings['n_clients']} clients, eb={ERROR_BOUND:g} REL",
        ["round", "full (B)", "delta (B)", "ratio", "delta clients", "degrades"])
    record = ExperimentRecord(
        "delta", "cross-round residual shipping: error-feedback delta codec "
                 "vs full-state FedSZ")
    record.add(backend=backend, smoke=smoke, error_bound=ERROR_BOUND,
               threshold=THRESHOLD, ratio_floor=ratio_floor,
               cpu_count=os.cpu_count(), **settings)
    for f, d, r in zip(ratio["full"].rounds, ratio["delta"].rounds,
                       ratio["ratios"]):
        degrades = ",".join(f"{cid}:{why}" for cid, why
                            in sorted(d.delta_degrades.items())) or "-"
        table.add_row(str(d.round_index), str(f.transmitted_bytes),
                      str(d.transmitted_bytes), f"{r:.2f}x",
                      str(len(d.delta_clients)), degrades)
        record.add(round=d.round_index, full_bytes=f.transmitted_bytes,
                   delta_bytes=d.transmitted_bytes, ratio=r,
                   accuracy_full=f.accuracy, accuracy_delta=d.accuracy,
                   delta_clients=len(d.delta_clients),
                   degrades=dict(d.delta_degrades))
    warm = ratio["ratios"][2:]
    record.add(warm_ratio_min=min(warm), warm_ratio_mean=float(np.mean(warm)),
               ef_worst_bound_fraction=worst_ef,
               bit_identical_variants=identity_labels)

    summary = Table("Delta drills", ["drill", "result"])
    summary.add_row("warm ratio (rounds 2+)",
                    f"min {min(warm):.2f}x / floor {ratio_floor:g}x")
    summary.add_row("error feedback",
                    f"worst {worst_ef:.2f} of bound (slack {EF_SLACK:g}x)")
    summary.add_row("bit-identical", ", ".join(identity_labels))
    if kill_resume:
        resume_stats = _run_kill_resume_drill(settings, backend)
        summary.add_row("kill-and-resume",
                        f"exit {resume_stats['crash_exit']}, "
                        f"{resume_stats['rounds']} rounds recovered")
        record.add(drill="kill-and-resume", **resume_stats)

    if smoke:
        print()
        print(table.render())
        print()
        print(summary.render())
    else:
        save_results("delta", [table, summary], record)
    return 0


def bench_delta(benchmark):
    """pytest-benchmark harness (historic entry point; thread backend)."""
    benchmark.pedantic(
        lambda: _check_and_report("thread", smoke=False, kill_resume=False),
        rounds=1, iterations=1)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--backend", default="thread",
                        choices=("serial", "thread", "process"),
                        help="execution backend for the identity drill")
    parser.add_argument("--smoke", action="store_true",
                        help="correctness-only drill: reduced sizes, relaxed "
                             "ratio floor, results are not persisted (CI mode)")
    parser.add_argument("--kill-resume", action="store_true",
                        help="also run the crash-mid-round + journal-resume drill")
    parser.add_argument("--_child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--journal-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args._child:
        return _child_main(args.backend, args.journal_dir, args.smoke)
    return _check_and_report(args.backend, smoke=args.smoke,
                             kill_resume=args.kill_resume)


if __name__ == "__main__":
    sys.exit(main())
