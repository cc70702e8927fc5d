"""Wall-clock checks: each parallel or vectorized path beats its reference.

Each check times the same work two ways and requires the faster path to
win.  Wall clocks race on a loaded host, so these checks stay out of the
tier-1 suite (``tests/``), which checks only what the program computes.

* Always (CI runs this): the round engine's 4-worker thread wall is under
  0.8x the sequential wall, on 8 clients sleeping their 2 Mbps transfers
  (best of two runs each).  The sleeps release the GIL, so this holds on a
  single core too.
* Only with ``REPRO_BENCH_SCALE=full`` (the ``bench_utils`` scale), since
  they take minutes:

  - the default Huffman decode is at least 3x the per-tuple scalar
    reference (``tests/huffman_reference.py``) over the SZ2-style codes of
    paper-scale ResNet-50;
  - the state-dict pipeline at 4 requested thread workers is at least 1.3x
    the sequential one on paper-scale ResNet-50 (multi-core only).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_timing.py \\
        -o python_files="bench_*.py" -o python_functions="bench_*" -q
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench_utils import current_scale, trained_like_state
from repro.compressors import huffman
from repro.compressors.huffman import HuffmanCoder

# the per-tuple scalar decoder is the test suite's oracle
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from huffman_reference import decode_reference  # noqa: E402
from repro.compressors.quantizer import LinearQuantizer
from repro.core import FedSZCompressor, FedSZConfig, NetworkModel
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, RawUpdateCodec
from repro.nn import build_model

multicore = pytest.mark.skipif((os.cpu_count() or 1) < 2,
                               reason="speedup needs more than one core")
full_scale = pytest.mark.skipif(current_scale() != "full",
                                reason="set REPRO_BENCH_SCALE=full")

#: ResNet-50 at the size the paper profiles (~23.5M parameters) instead of
#: the repo's CPU-scaled default
PAPER_RESNET50 = {"width": 64, "blocks_per_stage": (3, 4, 6, 3)}


def _best_of(repeats: int, fn, *args):
    """``fn(*args)``'s last result and its fastest wall over ``repeats``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


@full_scale
def bench_huffman_decode_beats_the_scalar_reference():
    # every lossy weight tensor's codes as SZ2 quantizes them against a mean
    # predictor at REL 1e-2, HUF4-coded with the default chunking
    state = trained_like_state("resnet50", **PAPER_RESNET50)
    coder = HuffmanCoder()
    totals = {"reference": 0.0, "default": 0.0}
    widest = 0
    for name, array in state.items():
        if "weight" not in name or array.size <= 1024:
            continue
        data = array.astype(np.float64).ravel()
        abs_bound = max(1e-2 * float(np.ptp(data)), 1e-12)
        symbols = LinearQuantizer().quantize(
            data, np.full_like(data, data.mean()), abs_bound).codes
        payload = coder.encode(symbols)
        widest = max(widest, HuffmanCoder._parse(payload, None).bit_offsets.size)
        for label, decode in (("reference", decode_reference),
                              ("default", lambda p: coder.decode(p, lambda n: None))):
            decoded, wall = _best_of(2, decode, payload)
            np.testing.assert_array_equal(decoded, symbols)
            totals[label] += wall
    # the widest stream must fill a row walk alone
    assert widest >= huffman._SHARED_WALK_CHUNKS
    speedup = totals["reference"] / totals["default"]
    assert speedup >= 3.0, f"default decode only {speedup:.2f}x the reference"


def _round_engine_wall(max_workers: int) -> float:
    """Wall of 2 rounds of 8 simplecnn clients sleeping 2 Mbps transfers
    (the quick-scale FL settings, pinned) on ``max_workers`` threads."""
    data = make_dataset("cifar10", n_samples=480, image_size=16, seed=47)
    train, test = train_test_split(data, test_fraction=0.25, seed=48)

    def factory():
        return build_model("simplecnn", num_classes=10, in_channels=3,
                           image_size=16, seed=0)

    sim = FederatedSimulation(factory, train, test, n_clients=8,
                              codec=RawUpdateCodec(),
                              network=NetworkModel(bandwidth_mbps=2.0,
                                                   simulate_delay=True),
                              batch_size=32, lr=0.15, seed=11,
                              max_workers=max_workers, uplink="parallel")
    start = time.perf_counter()
    sim.run(2)
    return time.perf_counter() - start


def bench_round_engine_workers_overlap_transfers():
    # best of two fresh runs a side, so one slow run cannot decide the gate
    sequential = min(_round_engine_wall(1) for _ in range(2))
    parallel = min(_round_engine_wall(4) for _ in range(2))
    assert parallel < 0.8 * sequential, \
        f"4 workers took {parallel:.2f}s against {sequential:.2f}s sequential"


@full_scale
@multicore
def bench_parallel_pipeline_beats_sequential():
    # compress plus decompress, best of two each, on the same bitstream
    state = trained_like_state("resnet50", **PAPER_RESNET50)
    sequential = FedSZCompressor(FedSZConfig(pipeline_workers=1))
    parallel = FedSZCompressor(FedSZConfig(pipeline_workers=4))
    payload, seq_c = _best_of(2, sequential.compress_state_dict, state)
    par_payload, par_c = _best_of(2, parallel.compress_state_dict, state)
    assert par_payload == payload
    _, seq_d = _best_of(2, sequential.decompress_state_dict, payload)
    _, par_d = _best_of(2, parallel.decompress_state_dict, payload)
    speedup = (seq_c + seq_d) / (par_c + par_d)
    assert speedup >= 1.3, (f"pipeline {speedup:.2f}x (compress {seq_c / par_c:.2f}x, "
                            f"decompress {seq_d / par_d:.2f}x)")
