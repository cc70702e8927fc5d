"""Profiled plan selection across the bandwidth sweep (Problems 1-2, Figure 8).

Two experiments on a trained-looking state dict:

1. **Plan crossover sweep** — the ``profiled`` plan policy resolves a full
   per-tensor plan at each bandwidth of a log sweep.  On slow links every
   tensor ships through a high-ratio EBLC; as the link speeds up the plan
   first migrates to faster codecs and finally falls back to the lossless
   ``verbatim`` tier (Eqn. (1) no longer pays).  The sweep records, per
   bandwidth, the codec mix, the modeled round time against shipping raw, and
   asserts the modeled time never exceeds the uncompressed baseline — the
   feasibility contract of Problem 1.

2. **Crossover agreement** — the bandwidth where the plan turns
   verbatim-dominant is compared against the analytic
   :func:`~repro.core.network.crossover_bandwidth` of the best measured
   candidate on the concatenated weights (Figure 8's ~crossover).  The two
   must land within an order of magnitude of each other — they answer the
   same question through different machinery.

``--smoke`` runs a small model on the deterministic analytic cost model with
no result persistence, so CI can exercise the profiled policy (and the
picklability of its candidate tasks) on every backend.

Run with ``PYTHONPATH=src python benchmarks/bench_selection.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import save_results, trained_like_state
from repro.core import (
    CodecProfiler,
    FedSZConfig,
    ProfiledPolicy,
    crossover_bandwidth,
    select_compressor,
)
from repro.core.partition import partition_state_dict
from repro.core.plan import PLAN_PROVENANCE_KEY
from repro.metrics import ExperimentRecord, Table

DEFAULT_BANDWIDTHS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 20000.0)


def sweep_plans(state: dict, bandwidths: "tuple[float, ...]", cost_model: str,
                backend: str, workers: int, bound: float) -> tuple[Table, list[dict]]:
    """Resolve the profiled plan at every bandwidth; one shared profiler."""
    config = FedSZConfig(error_bound=bound)
    lossy = partition_state_dict(state, config).lossy
    profiler = CodecProfiler(cost_model=cost_model, backend=backend, workers=workers)

    table = Table("Profiled plan selection vs link bandwidth",
                  ["bandwidth (Mbps)", "codec mix", "est ratio",
                   "modeled (s)", "raw (s)", "lossless tensors"])
    rows: list[dict] = []
    for bandwidth in bandwidths:
        policy = ProfiledPolicy(bandwidth_mbps=bandwidth, profiler=profiler,
                                max_bound=bound)
        plan = policy.build_plan(lossy, config)
        modeled = raw = est_compressed = 0.0
        counts: dict[str, int] = {}
        verbatim_bytes = 0
        for entry in plan:
            provenance = entry.options[PLAN_PROVENANCE_KEY]
            modeled += provenance["modeled_seconds"]
            raw += provenance["uncompressed_seconds"]
            est_compressed += lossy[entry.name].nbytes / provenance["estimated_ratio"]
            counts[entry.codec] = counts.get(entry.codec, 0) + 1
            if entry.codec == "verbatim":
                verbatim_bytes += int(lossy[entry.name].nbytes)
        assert modeled <= raw * (1 + 1e-9), \
            f"plan at {bandwidth} Mbps models {modeled:.3f}s against a " \
            f"{raw:.3f}s raw baseline — Eqn. (1) violated"
        mix = " + ".join(f"{n}x{c}" for c, n in sorted(counts.items()))
        lossy_bytes = sum(int(v.nbytes) for v in lossy.values())
        est_ratio = lossy_bytes / est_compressed if est_compressed else 1.0
        verbatim_tensors = counts.get("verbatim", 0)
        table.add_row(f"{bandwidth:,.0f}", mix, f"{est_ratio:.2f}x",
                      f"{modeled:.3f}", f"{raw:.3f}", verbatim_tensors)
        rows.append({"bandwidth_mbps": bandwidth, "codec_counts": counts,
                     "estimated_ratio": est_ratio, "modeled_seconds": modeled,
                     "uncompressed_seconds": raw,
                     "verbatim_tensors": verbatim_tensors,
                     "verbatim_bytes": verbatim_bytes,
                     "lossy_bytes": lossy_bytes,
                     "tensors": len(plan)})
    print(f"profiler cache after sweep: {profiler.cache_info()} "
          f"({len(bandwidths)} bandwidths x {len(lossy)} tensors)")
    return table, rows


def plan_crossover(rows: list[dict]) -> float:
    """First swept bandwidth where most lossy *bytes* ship verbatim (inf if never).

    Byte-weighted on purpose: the analytic crossover is computed on the
    concatenated weights, whose behaviour the few large tensors dominate —
    counting tensors would let the many small ones (which flip much earlier,
    their per-call overhead dwarfs their transfer time) skew the comparison.
    """
    for row in rows:
        if row["verbatim_bytes"] > row["lossy_bytes"] / 2:
            return row["bandwidth_mbps"]
    return float("inf")


def compare_crossover(state: dict, rows: list[dict], cost_model: str,
                      bound: float) -> tuple[Table, dict]:
    """Figure 8's analytic crossover vs where the swept plan flips.

    The plan abandons compression only once the *last* candidate stops paying
    — it migrates to ever-faster codecs as the link speeds up — so the
    analytic reference is the maximum per-candidate crossover over the grid,
    not the crossover of the slow/high-ratio codec that wins on slow links.
    """
    lossy_weights = [v.ravel() for k, v in state.items()
                     if "weight" in k and v.size > 1024]
    planned = plan_crossover(rows)
    if not lossy_weights:
        print("note: no lossy-compressible weight tensors; skipping the "
              "analytic crossover comparison")
        table = Table("Crossover: analytic Eqn. (1) vs the profiled plan sweep",
                      ["source", "crossover (Mbps)", "detail"])
        table.add_row("profiled plan sweep", f"{planned:,.0f}",
                      "first bandwidth where most lossy bytes ship verbatim")
        return table, {"plan_crossover_mbps": planned,
                       "analytic_crossover_mbps": None}
    weights = np.concatenate(lossy_weights)
    best, grid = select_compressor(weights, error_bounds=(bound,),
                                   cost_model=cost_model, sample_limit=65536)
    crossovers = {
        e.compressor: crossover_bandwidth(e.compress_seconds, e.decompress_seconds,
                                          weights.nbytes, weights.nbytes / e.ratio)
        for e in grid if e.ratio > 1.0}
    if not crossovers:
        print("note: no candidate achieved ratio > 1; compression never pays "
              "on this workload")
        crossovers = {"none": 0.0}
    last_codec, analytic = max(crossovers.items(), key=lambda item: item[1])
    table = Table("Crossover: analytic Eqn. (1) vs the profiled plan sweep",
                  ["source", "crossover (Mbps)", "detail"])
    table.add_row("crossover_bandwidth", f"{analytic:,.0f}",
                  f"last paying candidate {last_codec} (slow-link pick: "
                  f"{best.compressor} @ {best.error_bound:g}, "
                  f"ratio {best.ratio:.2f}x, "
                  f"crossover {crossovers.get(best.compressor, 0):,.0f} Mbps)")
    table.add_row("profiled plan sweep", f"{planned:,.0f}",
                  "first bandwidth where most lossy bytes ship verbatim")
    stats = {"analytic_crossover_mbps": analytic, "plan_crossover_mbps": planned,
             "per_candidate_crossovers_mbps": crossovers,
             "last_paying_candidate": last_codec,
             "best_candidate": best.compressor, "best_bound": best.error_bound,
             "best_ratio": best.ratio}
    return table, stats


def bench_selection(model: str, bandwidths: "tuple[float, ...]", cost_model: str,
                    backend: str, workers: int, bound: float,
                    persist: bool = True) -> int:
    state = trained_like_state(model)
    n_params = sum(v.size for v in state.values())
    print(f"{model}: {len(state)} tensors, {n_params / 1e6:.1f}M parameters, "
          f"{sum(v.nbytes for v in state.values()) / 1e6:.1f} MB "
          f"({cost_model} cost model, {backend} backend)")

    sweep_table, rows = sweep_plans(state, bandwidths, cost_model, backend,
                                    workers, bound)
    crossover_table, crossover_stats = compare_crossover(state, rows, cost_model,
                                                         bound)

    analytic = crossover_stats["analytic_crossover_mbps"]
    planned = crossover_stats["plan_crossover_mbps"]
    if np.isfinite(analytic) and np.isfinite(planned) and analytic > 0:
        agreement = max(planned / analytic, analytic / planned)
        crossover_stats["agreement_factor"] = agreement
        if agreement > 10.0:
            print(f"FAIL: plan crossover {planned:,.0f} Mbps disagrees with the "
                  f"analytic {analytic:,.0f} Mbps by {agreement:.1f}x",
                  file=sys.stderr)
            return 1

    record = ExperimentRecord("selection",
                              "profiled plan selection across the bandwidth "
                              "sweep and the Eqn.-1 crossover agreement")
    for row in rows:
        record.add(model=model, cost_model=cost_model, **row)
    record.add(model=model, cost_model=cost_model, **crossover_stats)
    if persist:
        save_results("selection", [sweep_table, crossover_table], record)
    else:
        # smoke mode is a correctness drill on a toy model; don't clobber the
        # committed numbers under benchmarks/results/
        print()
        print(sweep_table.render())
        print()
        print(crossover_table.render())
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="resnet50",
                        help="model whose state dict supplies the tensors")
    parser.add_argument("--bandwidths", type=float, nargs="+",
                        default=list(DEFAULT_BANDWIDTHS),
                        help="bandwidth sweep in Mbps")
    parser.add_argument("--bound", type=float, default=1e-2,
                        help="accuracy-proxy bound cap (Problem 2)")
    parser.add_argument("--cost-model", default="measured",
                        choices=("measured", "analytic"),
                        help="wall-clock measurement or the deterministic "
                             "analytic throughput table")
    parser.add_argument("--backend", default="thread",
                        choices=("serial", "thread", "process"),
                        help="execution backend for the candidate-grid fan-out")
    parser.add_argument("--workers", type=int, default=4,
                        help="profiler fan-out workers")
    parser.add_argument("--smoke", action="store_true",
                        help="small model, analytic cost model, no persistence "
                             "(correctness-only CI mode)")
    args = parser.parse_args(argv)

    model = "simplecnn" if args.smoke else args.model
    cost_model = "analytic" if args.smoke else args.cost_model
    return bench_selection(model, tuple(args.bandwidths),
                           cost_model=cost_model, backend=args.backend,
                           workers=args.workers, bound=args.bound,
                           persist=not args.smoke)


if __name__ == "__main__":
    sys.exit(main())
