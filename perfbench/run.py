"""FedSZ benchmark: one workload per process, end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload codec-resnet50 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps the layers' public functions with spans (``spans.py``) on
every other unit of work and reports per-layer self time, the unattributed
remainder and the tracing overhead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the process
exits non-zero when any output check failed.  See ``README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before NumPy loads: the round workload already runs one
# pool worker per core, and a second layer of BLAS threads oversubscribes them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"setup_s": "s", "round_s": "s", "compress_MBps": "MB/s",
              "decompress_MBps": "MB/s", "compression_ratio": "x",
              "final_accuracy": "fraction", "peak_rss_MB": "MB"}

#: per-layer span name -> reported self-time metric
LAYER_SPANS = {
    "huffman.build": "huffman.build_s", "huffman.pack": "huffman.pack_s",
    "huffman.decode": "huffman.decode_s", "predictors.predict": "predictors.predict_s",
    "quantizer.quantize": "quantizer.quantize_s",
    "quantizer.dequantize": "quantizer.dequantize_s",
    "lossless.compress": "lossless.compress_s",
    "lossless.decompress": "lossless.decompress_s",
    "lossy.compress": "lossy.compress_s", "lossy.decompress": "lossy.decompress_s",
    "partition": "partition.s", "plan.build": "plan.build_s",
    "serialization.pack": "serialization.pack_s",
    "serialization.unpack": "serialization.unpack_s",
    "pipeline.compress": "pipeline.compress_s",
    "pipeline.decompress": "pipeline.decompress_s",
    "client.train": "client.train_s", "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s", "delta.residual": "delta.residual_s",
    "delta.accumulate": "delta.accumulate_s",
    "network.transfer": "network.transfer_s", "transport.ship": "transport.ship_s",
    "server.aggregate": "server.aggregate_s", "server.evaluate": "server.evaluate_s",
    "journal.write": "journal.write_s",
}
LAYER_COUNTS = ("huffman.symbols", "huffman.bytes", "quantizer.outliers",
                "lossless.bytes_in", "lossless.bytes_out")


def blas_threads() -> "int | None":
    """Thread count of the OpenBLAS NumPy loaded, read from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def tail(samples: list[float], higher_is_better: bool = False) -> str:
    """The worst-side nearest-rank percentile with at least ten samples beyond it.

    For a time that is the highest such percentile; for a rate, the lowest.
    """
    n = len(samples)
    if n < 11:
        return f"n={n} (too few for a tail percentile)"
    pct = int(100 * (1 - 10 / n))
    value = sorted(samples, reverse=higher_is_better)[max(0, -(-pct * n // 100) - 1)]
    return f"p{100 - pct if higher_is_better else pct}={value:.4f} n={n}"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    from spans import Tracer, covered_time, self_times
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch, tracer)
        setups = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            gc.collect()  # the replaced set-up is garbage; keep it out of the peak RSS

        # a traced run needs one traced and one plain unit at the least
        min_steps = 2 if args.trace else 1
        attempted = failed = steps = 0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            done, bad = workload.step()
            attempted += done
            failed += bad
            steps += 1
            now = time.perf_counter()
            # closed loop: start another unit only if it should end in time
            if steps >= min_steps and now - start + (now - t0) > args.seconds:
                break
        metrics = workload.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    warm = [u for u in workload.units if u[3]]
    plain = [end - begin for begin, end, traced, _ in warm if not traced]
    env = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "blas_threads": blas_threads(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}
    print("env " + json.dumps(env))
    print("info " + json.dumps(workload.info))
    print(f"error_rate {failed / max(1, attempted):.4f} ({failed} of {attempted})")

    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics.setdefault("round_s", statistics.median(plain))
        metrics["peak_rss_MB"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # every timing sample set behind a metric: median, tail, sample count
        for name, samples in {"unit_wall_s": plain, **workload.samples}.items():
            print(f"{name}: median={statistics.median(samples):.4f} "
                  f"{tail(samples, higher_is_better=name.endswith('MBps'))}")
        values = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    else:
        # only odd-numbered units are traced, so every traced unit is warm;
        # per-layer figures are per traced unit (codec pass or round)
        traced = [u for u in warm if u[2]]
        n = len(traced)
        walls = [end - begin for begin, end, _, _ in traced]
        layer = dict.fromkeys(LAYER_SPANS.values(), 0.0)
        other = covered = 0.0
        for begin, end, _, _ in traced:
            for span, seconds in self_times(tracer.spans, begin, end).items():
                layer[LAYER_SPANS[span]] += seconds / n
            cover = covered_time(tracer.spans, begin, end)
            covered += cover
            other += (end - begin - cover) / n
        layer["transport.queue_wait_s"] = tracer.counts.get("transport.queue_wait_us", 0) / 1e6 / n
        for name in LAYER_COUNTS:
            layer[name] = tracer.counts.get(name, 0) / n
        layer["parallel.pool_spinups"] = 0.0
        layer["journal.bytes"] = 0.0
        layer.update(getattr(workload, "layer_counts", {}))
        layer["other_s"] = other
        layer["trace.coverage"] = covered / sum(walls)
        layer["trace.overhead"] = statistics.median(walls) / statistics.median(plain) - 1
        layer["trace.spans"] = len(tracer.spans) / n
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        if tracer.missing:
            print("absent layers: " + ", ".join(tracer.missing))
        for name, value in sorted(layer.items()):
            print(f"{name:24s} {value:.6g}")
        values = {name: {"value": value, "unit": _unit(name)}
                  for name, value in layer.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if failed == 0 else 1


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name in ("huffman.bytes", "lossless.bytes_in", "lossless.bytes_out", "journal.bytes"):
        return "B"
    if name.startswith("trace.") and name != "trace.spans":
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
