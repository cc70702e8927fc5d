"""Consolidate committed benchmark records into ``results/summary.json``.

Every benchmark persists a full :class:`ExperimentRecord` as
``benchmarks/results/<name>.json``.  This script distills them into one small
``summary.json`` — the headline number(s) of each experiment next to its
description — so a reader (or the CI artifact browser) can see the state of
the reproduction without opening a dozen row-level records.

For each experiment a short list of headline keys is scanned across the rows;
the last row carrying a key wins (records append summary rows last).
Experiments without a registered key list still appear with their description
and row count, so newly added benches are never silently dropped.

Usage: ``python benchmarks/summarize.py [--check]`` — ``--check`` exits
non-zero when no records are found (CI guard against a wrong working dir).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: experiment name -> row keys worth surfacing in the summary
HEADLINE_KEYS: dict[str, list[str]] = {
    "delta": ["cold_ratio", "warm_ratio_min", "warm_ratio_mean",
              "ef_worst_bound_fraction", "bit_identical_variants"],
    "round_engine": ["speedup", "transmitted_bytes", "final_accuracy",
                     "resident_task_bytes"],
    "coordinator": ["final_accuracy", "resident_task_bytes", "full_task_bytes"],
    "pipeline": ["speedup", "ratio", "effective_workers"],
    "entropy": ["speedup", "total_default_seconds", "total_reference_seconds"],
    "selection": ["agreement_factor", "plan_crossover_mbps",
                  "analytic_crossover_mbps"],
    "table1": ["ratio", "accuracy", "baseline_accuracy"],
    "fig2": ["smooth_growth_max", "smooth_ratio_min"],
    "fig7": ["total_speedup", "transfer_speedup"],
    "fig9": ["speedup"],
}


def _headline(experiment: str, rows: list[dict]) -> dict:
    keys = HEADLINE_KEYS.get(experiment, [])
    picked: dict = {}
    for row in rows:
        for key in keys:
            if key in row:
                picked[key] = row[key]
    return picked


def summarize() -> dict:
    experiments: dict[str, dict] = {}
    for path in sorted(RESULTS_DIR.glob("*.json")):
        if path.name == "summary.json":
            continue
        record = json.loads(path.read_text())
        rows = record.get("rows", [])
        experiments[path.stem] = {
            "experiment": record.get("experiment", path.stem),
            "description": record.get("description", ""),
            "rows": len(rows),
            "headline": _headline(record.get("experiment", path.stem), rows),
        }
    return {"results_dir": str(RESULTS_DIR.relative_to(RESULTS_DIR.parent.parent)),
            "experiments": experiments}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail when no benchmark records are present")
    args = parser.parse_args(argv)

    summary = summarize()
    if args.check and not summary["experiments"]:
        print(f"no benchmark records under {RESULTS_DIR}", file=sys.stderr)
        return 1
    out = RESULTS_DIR / "summary.json"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
