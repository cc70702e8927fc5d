"""Plan-driven state-dict pipeline: parallel fan-out and the codec frontier.

Two experiments on a paper-scale state dict (the repo's CPU-scaled ``resnet50``
rebuilt at the paper's size — ``width=64``, blocks ``(3, 4, 6, 3)``, ~23.5M
parameters — matching ``bench_entropy``):

1. **Parallel pipeline** — the same state dict compressed and decompressed at
   ``pipeline_workers=1`` (the strictly sequential reference, ``serial``
   backend) and ``pipeline_workers=N`` on the ``--backend`` execution backend
   (thread or process).  The bitstreams must be byte-identical and the
   reconstructions bit-equal; the parallel path must be at least
   ``--min-speedup`` faster in aggregate.  On the GIL-bound thread backend
   the pipeline clamps its fan-out to the cores actually available (tensor
   compression is pure CPU work), so on a single-core host the speedup
   assertion is skipped — the run still verifies bit-identity and records the
   hardware context (and backend) in the JSON.

2. **Codec frontier** — the ratio/throughput tradeoff of FedSZ's Table I
   under Algorithm 1's uniform plan: SZx (fastest) against SZ2/SZ3 (best
   ratio).  Every variant's reconstruction is checked against its plan's
   per-tensor error bounds.

``--smoke`` runs a small model with one repetition and no timing assertion so
CI can exercise the parallel path and every frontier variant on each Python
version.

Run with ``PYTHONPATH=src python benchmarks/bench_pipeline.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import save_results, trained_like_state
from repro.compressors.base import ErrorBoundMode
from repro.core import FedSZCompressor, FedSZConfig
from repro.metrics import ExperimentRecord, Table

#: Architecture overrides that restore a model to the size the paper profiles.
PAPER_SCALE = {"resnet50": {"width": 64, "blocks_per_stage": (3, 4, 6, 3)}}


def _verify_bounds(fedsz: FedSZCompressor, state: dict, recon: dict) -> None:
    """Assert the per-tensor error bounds of the last plan hold on ``recon``."""
    plan = fedsz.last_plan
    assert plan is not None
    for entry in plan:
        original = state[entry.name].astype(np.float64)
        tol = entry.error_bound if entry.mode is ErrorBoundMode.ABS \
            else entry.error_bound * float(original.max() - original.min())
        err = float(np.max(np.abs(recon[entry.name].astype(np.float64) - original)))
        assert err <= tol * (1 + 1e-6) + 1e-9, \
            f"{entry.name} ({entry.codec}): error {err} above bound {tol}"


def bench_parallel(state: dict, workers: int, repeats: int,
                   min_speedup: float | None, backend: str = "thread") -> tuple[Table, dict]:
    """Sequential vs parallel pipeline on the same state dict (bit-identical).

    The sequential reference always runs on the ``serial`` backend; the
    parallel side fans out on ``backend`` (thread or process).
    """
    sequential = FedSZCompressor(FedSZConfig(pipeline_workers=1, backend="serial"))
    parallel = FedSZCompressor(FedSZConfig(pipeline_workers=workers, backend=backend))
    effective = parallel._pipeline_workers()
    cores = os.cpu_count() or 1

    best = {"seq_c": float("inf"), "par_c": float("inf"),
            "seq_d": float("inf"), "par_d": float("inf")}
    payload = None
    for _ in range(repeats):
        start = time.perf_counter()
        seq_payload = sequential.compress_state_dict(state)
        best["seq_c"] = min(best["seq_c"], time.perf_counter() - start)
        start = time.perf_counter()
        par_payload = parallel.compress_state_dict(state)
        best["par_c"] = min(best["par_c"], time.perf_counter() - start)
        assert seq_payload == par_payload, "parallel pipeline changed the bitstream"
        payload = seq_payload

        start = time.perf_counter()
        recon_seq = sequential.decompress_state_dict(payload)
        best["seq_d"] = min(best["seq_d"], time.perf_counter() - start)
        start = time.perf_counter()
        recon_par = parallel.decompress_state_dict(payload)
        best["par_d"] = min(best["par_d"], time.perf_counter() - start)
        for key in recon_seq:
            np.testing.assert_array_equal(recon_seq[key], recon_par[key])

    original_mb = sum(v.nbytes for v in state.values()) / 1e6
    table = Table(f"Parallel state-dict pipeline - {effective} effective {backend} "
                  f"workers (requested {workers}, {cores} cores)",
                  ["stage", "sequential (s)", f"{effective} workers (s)", "speedup",
                   "MB/s parallel"])
    stages = [("compress", "seq_c", "par_c"), ("decompress", "seq_d", "par_d")]
    for label, seq_key, par_key in stages:
        table.add_row(label, f"{best[seq_key]:.2f}", f"{best[par_key]:.2f}",
                      f"{best[seq_key] / best[par_key]:.2f}x",
                      f"{original_mb / best[par_key]:.1f}")
    total_seq = best["seq_c"] + best["seq_d"]
    total_par = best["par_c"] + best["par_d"]
    speedup = total_seq / total_par
    table.add_row("TOTAL", f"{total_seq:.2f}", f"{total_par:.2f}",
                  f"{speedup:.2f}x", f"{original_mb / total_par:.1f}")

    stats = {"backend": backend, "requested_workers": workers,
             "effective_workers": effective,
             "host_cores": cores, "payload_bytes": len(payload),
             "sequential_seconds": total_seq, "parallel_seconds": total_par,
             "speedup": speedup, "bit_identical": True}
    if min_speedup is not None and effective > 1 and cores > 1 and speedup < min_speedup:
        print(f"FAIL: pipeline speedup {speedup:.2f}x is below the "
              f"{min_speedup:.1f}x target at {effective} {backend} workers",
              file=sys.stderr)
        stats["failed"] = True
    elif workers > 1 and (effective == 1 or cores == 1):
        print(f"note: host has {cores} core(s); parallel speedup not expected "
              f"on the {backend} backend (bit-identity still verified)")
    return table, stats


def bench_frontier(state: dict, repeats: int) -> tuple[Table, list[dict]]:
    """Ratio/throughput frontier of the uniform plan over SZx, SZ2 and SZ3."""
    original_mb = sum(v.nbytes for v in state.values()) / 1e6
    table = Table("Uniform-plan codec ratio/throughput frontier",
                  ["plan", "ratio", "compress (s)", "MB/s", "decompress (s)",
                   "MB/s "])
    rows: list[dict] = []
    for codec in ("szx", "sz2", "sz3"):
        label = f"uniform {codec}"
        fedsz = FedSZCompressor(FedSZConfig(lossy_compressor=codec))
        best_c = best_d = float("inf")
        payload = recon = report = None
        for _ in range(repeats):
            start = time.perf_counter()
            payload, report = fedsz.compress_with_report(state)
            best_c = min(best_c, time.perf_counter() - start)
            start = time.perf_counter()
            recon, _ = fedsz.decompress_with_report(payload)
            best_d = min(best_d, time.perf_counter() - start)
        _verify_bounds(fedsz, state, recon)
        table.add_row(label, f"{report.ratio:.2f}x", f"{best_c:.2f}",
                      f"{original_mb / best_c:.1f}", f"{best_d:.2f}",
                      f"{original_mb / best_d:.1f}")
        rows.append({"plan": label, "ratio": report.ratio,
                     "compress_seconds": best_c, "decompress_seconds": best_d,
                     "compressed_bytes": report.compressed_bytes})
    return table, rows


def bench_pipeline(model: str, workers: int, repeats: int,
                   min_speedup: float | None, model_kwargs: dict | None = None,
                   persist: bool = True, backend: str = "thread") -> int:
    state = trained_like_state(model, **(model_kwargs or {}))
    n_params = sum(v.size for v in state.values())
    print(f"{model}: {len(state)} tensors, {n_params / 1e6:.1f}M parameters, "
          f"{sum(v.nbytes for v in state.values()) / 1e6:.1f} MB")

    par_table, par_stats = bench_parallel(state, workers, repeats, min_speedup,
                                          backend=backend)
    frontier_table, frontier_rows = bench_frontier(state, repeats)

    record = ExperimentRecord("pipeline",
                              "plan-driven pipeline: parallel per-tensor fan-out "
                              "(bit-identical) and the uniform-plan codec frontier")
    record.add(model=model, parameters=int(n_params), **par_stats)
    for row in frontier_rows:
        record.add(**row)
    if persist:
        save_results("pipeline", [par_table, frontier_table], record)
    else:
        # smoke mode is a correctness drill on a toy model; don't clobber the
        # committed paper-scale numbers under benchmarks/results/
        print()
        print(par_table.render())
        print()
        print(frontier_table.render())

    best = max(frontier_rows, key=lambda r: r["ratio"])
    fastest = min(frontier_rows, key=lambda r: r["compress_seconds"])
    print(f"best ratio:   {best['plan']} at {best['ratio']:.2f}x")
    print(f"fastest:      {fastest['plan']} at "
          f"{fastest['compress_seconds']:.2f}s compress")
    return 1 if par_stats.get("failed") else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="resnet50",
                        help="model whose state dict supplies the tensors")
    parser.add_argument("--workers", type=int, default=4,
                        help="pipeline_workers for the parallel path")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions (best-of)")
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="fail unless the parallel pipeline is this much "
                             "faster (skipped on single-core hosts)")
    parser.add_argument("--backend", default="thread",
                        choices=("serial", "thread", "process"),
                        help="execution backend for the parallel pipeline side "
                             "(the sequential reference always runs serial)")
    parser.add_argument("--repro-scale", action="store_true",
                        help="use the repo's CPU-scaled architecture instead of "
                             "the paper-size rebuild")
    parser.add_argument("--smoke", action="store_true",
                        help="small model, single repetition, no timing assertion "
                             "(correctness-only CI mode)")
    args = parser.parse_args(argv)

    if args.smoke:
        return bench_pipeline("simplecnn", args.workers,
                              repeats=1, min_speedup=None, persist=False,
                              backend=args.backend)
    model_kwargs = None if args.repro_scale else PAPER_SCALE.get(args.model)
    return bench_pipeline(args.model, args.workers,
                          repeats=args.repeats, min_speedup=args.min_speedup,
                          model_kwargs=model_kwargs, backend=args.backend)


if __name__ == "__main__":
    sys.exit(main())
