"""Chunked Huffman entropy stage: default decode vs the scalar reference.

The SZ2/SZ3 entropy stage dominates the paper's Table I timings, and on the
server side one process decodes million-parameter updates from many clients
per round.  This benchmark reproduces that workload on real model tensors: a
trained-looking state dict is quantized exactly as SZ2 would (linear
quantization of the residual against a mean predictor), each weight tensor's
quantization codes are Huffman-encoded into the chunked version-3 bitstream,
and the decode side is timed three ways —

* ``reference``: the per-symbol scalar loop (``_decode_scalar``) over the
  whole stream,
* ``default``: :meth:`HuffmanCoder.decode` at one worker — the whole stream
  as one in-thread band, the vectorized row walk from ``_MIN_VECTOR_CHUNKS``
  chunks up and the scalar loop below,
* ``banded``: the same decode split into bands on an N-worker thread pool.

All three must return bit-identical symbol arrays; the default path must be
at least ``--min-speedup`` (default 3x) faster than the reference in
aggregate.  ``--smoke`` runs a small model without the timing assertion so CI
exercises every decode path on every Python version; it fails unless one of
its streams has enough chunks for the vectorized walk.

The repo's CPU-scaled ``resnet50`` has only ~224K parameters; Table I profiles
the 25.6M-parameter original, so by default the full benchmark rebuilds the
architecture at the paper's size (``width=64``, blocks ``(3, 4, 6, 3)`` —
~23.5M parameters).  ``--repro-scale`` keeps the repo's small variant instead.

Run with ``PYTHONPATH=src python benchmarks/bench_entropy.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import os
import struct
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import save_results, trained_like_state
from repro.compressors.huffman import (
    _MIN_VECTOR_CHUNKS,
    DEFAULT_CHUNK_SYMBOLS,
    HuffmanCoder,
    _decode_reference,
)
from repro.compressors.quantizer import LinearQuantizer
from repro.metrics import ExperimentRecord, Table

#: Architecture overrides that restore a model to the size the paper profiles.
PAPER_SCALE = {"resnet50": {"width": 64, "blocks_per_stage": (3, 4, 6, 3)}}


def tensor_symbol_streams(state: dict[str, np.ndarray], rel_bound: float,
                          threshold: int = 1024) -> "list[tuple[str, np.ndarray]]":
    """SZ2-style quantization codes for every lossy-partition weight tensor."""
    quantizer = LinearQuantizer()
    streams = []
    for name, array in state.items():
        if "weight" not in name or array.size <= threshold:
            continue
        data = array.astype(np.float64).ravel()
        value_range = float(data.max() - data.min())
        abs_bound = max(rel_bound * value_range, 1e-12)
        predictions = np.full_like(data, float(data.mean()))
        streams.append((name, quantizer.quantize(data, predictions, abs_bound).codes))
    return streams


def bench_entropy(model: str, workers: int, chunk: int, rel_bound: float,
                  repeats: int, min_speedup: float | None,
                  model_kwargs: dict | None = None) -> int:
    state = trained_like_state(model, **(model_kwargs or {}))
    streams = tensor_symbol_streams(state, rel_bound)
    coder = HuffmanCoder(chunk_size=chunk)
    decoders = {"reference": _decode_reference,
                "default": coder.decode,
                "banded": lambda payload: coder.decode(payload, max_workers=workers)}

    table = Table(f"Chunked Huffman decode - {model}, chunk cap {chunk}, "
                  f"banded on {workers} workers, cpu_count {os.cpu_count()}",
                  ["tensor", "symbols", "chunks", "payload (KB)", "reference (ms)",
                   "default (ms)", f"banded x{workers} (ms)", "speedup"])
    record = ExperimentRecord("entropy",
                              "chunked Huffman decode: default one-band decode "
                              "(vectorized row walk) and the N-worker banded "
                              "thread-pool path vs the per-symbol scalar reference")

    totals = dict.fromkeys(decoders, 0.0)
    total_syms = 0
    widest = 0
    for name, symbols in streams:
        payload = coder.encode(symbols)
        # the HUF3 chunk count: the u32 after magic, CRC, alphabet, count, chunk size
        n_chunks = struct.unpack_from("<I", payload, 24)[0]
        widest = max(widest, n_chunks)
        seconds = {}
        for label, decode in decoders.items():
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                decoded = decode(payload)
                best = min(best, time.perf_counter() - start)
            np.testing.assert_array_equal(decoded, symbols)
            seconds[label] = best
            totals[label] += best
        total_syms += symbols.size
        table.add_row(name, symbols.size, n_chunks, f"{len(payload) / 1e3:.1f}",
                      *(f"{seconds[label] * 1e3:.1f}" for label in decoders),
                      f"{seconds['reference'] / seconds['default']:.2f}x")
        record.add(tensor=name, symbols=int(symbols.size), chunks=n_chunks,
                   payload_bytes=len(payload),
                   reference_seconds=seconds["reference"],
                   default_seconds=seconds["default"],
                   banded_seconds=seconds["banded"])

    speedup = totals["reference"] / totals["default"] if totals["default"] else float("inf")
    table.add_row("TOTAL", total_syms, "", "",
                  *(f"{totals[label] * 1e3:.1f}" for label in decoders),
                  f"{speedup:.2f}x")
    record.add(model=model, workers=workers, chunk=chunk, cpu_count=os.cpu_count(),
               total_symbols=total_syms,
               total_reference_seconds=totals["reference"],
               total_default_seconds=totals["default"],
               total_banded_seconds=totals["banded"], speedup=speedup)
    save_results("entropy", table, record)
    print(f"decode throughput: {total_syms / totals['reference'] / 1e6:.1f} Msym/s "
          f"reference, {total_syms / totals['default'] / 1e6:.1f} Msym/s default "
          f"({speedup:.2f}x), {total_syms / totals['banded'] / 1e6:.1f} Msym/s "
          f"banded on {workers} workers")

    if widest < _MIN_VECTOR_CHUNKS:
        print(f"FAIL: no stream reaches the {_MIN_VECTOR_CHUNKS}-chunk crossover, "
              f"so the vectorized walk went unmeasured", file=sys.stderr)
        return 1
    if min_speedup is not None and speedup < min_speedup:
        print(f"FAIL: decode speedup {speedup:.2f}x is below the "
              f"{min_speedup:.1f}x target", file=sys.stderr)
        return 1
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="resnet50",
                        help="model whose state dict supplies the tensors")
    parser.add_argument("--workers", type=int, default=4,
                        help="thread-pool size for the banded decode path")
    parser.add_argument("--chunk", type=int, default=DEFAULT_CHUNK_SYMBOLS,
                        help="max symbols per Huffman chunk")
    parser.add_argument("--bound", type=float, default=1e-2,
                        help="relative error bound used for quantization")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions per tensor (best-of)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail unless the default decode is this much faster "
                             "than the scalar reference")
    parser.add_argument("--repro-scale", action="store_true",
                        help="use the repo's CPU-scaled architecture instead of "
                             "the paper-size rebuild")
    parser.add_argument("--smoke", action="store_true",
                        help="small model, single repetition, no timing assertion "
                             "(correctness-only CI mode)")
    args = parser.parse_args(argv)

    if args.smoke:
        return bench_entropy("simplecnn", args.workers, args.chunk, args.bound,
                             repeats=1, min_speedup=None)
    model_kwargs = None if args.repro_scale else PAPER_SCALE.get(args.model)
    return bench_entropy(args.model, args.workers, args.chunk, args.bound,
                         repeats=args.repeats, min_speedup=args.min_speedup,
                         model_kwargs=model_kwargs)


if __name__ == "__main__":
    sys.exit(main())
