"""SZ2 picks its predictor per tensor by estimated body bits.

Model weights are spiky, so block prediction buys them no lower code entropy
than quantizing against zero while its coefficients cost about half a bit
per value; smooth scientific fields are the reverse (the paper's Fig. 2).

* Every tile-or-larger weight tensor of the benchmark's paper-scale
  ResNet-50 state, and of the ``bench_utils.trained_like_state`` models,
  takes the zero predictor at REL 1e-2, 1e-3 and 1e-4.
* On ``miranda_like_field`` density and velocity fields of 400 and 100000
  values at the same bounds, the picked payload is never more than 1%
  larger than the hybrid's, including the 400-value slices whose tensor is
  scored whole.  The bound is on bytes, not on the mode: some 400-value
  slices have a zero body up to 7% smaller than the hybrid's, and a better
  cost model may pick it there.  At 100000 values the zero body is 5 to 19
  times the hybrid's, since no lossless stage collapses its runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from sz2_reference import HYBRID, ZERO, reference_compress
from repro.compressors.sz2 import _TILE_BLOCKS, SZ2Compressor
from repro.data import miranda_like_field

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "perfbench"), str(_ROOT / "benchmarks")]
import bench_utils  # noqa: E402
import workloads  # noqa: E402

_BOUNDS = (1e-2, 1e-3, 1e-4)
_TILE = _TILE_BLOCKS * 128  # values per tile at the default block size


def _predictor(comp: SZ2Compressor, array: np.ndarray) -> int:
    _, flat, abs_bound = comp._encode_prelude(array)
    prefix, _, _ = comp._body_parts(flat, abs_bound)
    return prefix[1][-1]


def _large_weights(state: dict) -> dict:
    return {name: value for name, value in state.items()
            if "weight" in name and value.size >= _TILE}


def test_benchmark_resnet50_weights_take_zero():
    state = workloads.trained_like_state("resnet50", 102, width=64,
                                         blocks_per_stage=(3, 4, 6, 3))
    large = _large_weights(state)
    assert len(large) == 41
    comp = SZ2Compressor(workloads.ERROR_BOUND)
    picks = {name: _predictor(comp, value) for name, value in large.items()}
    assert picks == dict.fromkeys(large, ZERO)


@pytest.mark.parametrize("bound", _BOUNDS)
def test_trained_like_weights_take_zero(bound):
    comp = SZ2Compressor(bound)
    large = {}
    for model in bench_utils.PAPER_MODELS + ("simplecnn",):
        large.update({f"{model}:{name}": value for name, value
                      in _large_weights(bench_utils.trained_like_state(model)).items()})
    assert large, "no model has a tile-or-larger weight tensor"
    picks = {name: _predictor(comp, value) for name, value in large.items()}
    assert picks == dict.fromkeys(large, ZERO)


@pytest.mark.parametrize("bound", _BOUNDS)
@pytest.mark.parametrize("length", [400, 100_000])
@pytest.mark.parametrize("kind", ["density", "velocity"])
def test_miranda_like_fields_cost_no_more_than_the_hybrid(kind, length, bound):
    comp = SZ2Compressor(bound)
    for seed in range(4):
        field = miranda_like_field(length, seed=seed, kind=kind)
        hybrid = len(reference_compress(comp, field, HYBRID))
        assert len(comp.compress(field)) <= 1.01 * hybrid, f"seed {seed}"


def test_choice_is_repeatable():
    weights = bench_utils.trained_like_state("alexnet")["classifier.5.weight"]
    comp = SZ2Compressor(1e-2)
    assert comp.compress(weights) == SZ2Compressor(1e-2).compress(weights)
