"""Prediction stages used by the block and interpolation compressors.

All predictors operate on 1-D arrays because FedSZ flattens every model tensor
before compression (Algorithm 1 of the paper).  This module provides:

* :func:`block_pad` — the edge-padded ``(n_blocks, block_size)`` view the
  blockwise compressors (SZx, ZFP) work on.  SZ2 picks per tensor between
  its block mean-or-regression hybrid and a zero predictor, and fits the
  blocks inside its own tiled kernel (:mod:`repro.compressors.sz2`).
* :class:`InterpolationPredictor` — SZ3's level-by-level linear/cubic
  interpolation predictor on a dyadic grid; each level predicts the midpoints
  of the previous (already reconstructed) level, so the whole pass is
  vectorized per level while still predicting from reconstructed values.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "block_pad",
    "InterpolationPredictor",
]


def block_pad(data: np.ndarray, block_size: int) -> tuple[np.ndarray, int]:
    """Pad ``data`` with edge values to a multiple of ``block_size``.

    Returns the padded 2-D view of shape ``(n_blocks, block_size)`` and the
    original length so callers can trim after reconstruction.
    """
    data = np.asarray(data, dtype=np.float64).ravel()
    n = data.size
    n_blocks = (n + block_size - 1) // block_size if n else 0
    padded_len = n_blocks * block_size
    if padded_len != n:
        pad_value = data[-1] if n else 0.0
        data = np.concatenate([data, np.full(padded_len - n, pad_value)])
    return data.reshape(n_blocks, block_size), n


class InterpolationPredictor:
    """SZ3-style dyadic interpolation predictor for 1-D data.

    The data is viewed as a dyadic hierarchy: level 0 holds anchor points with
    stride ``2**n_levels``; each finer level predicts the new midpoints by
    linear interpolation of the two enclosing points of the coarser
    (reconstructed) level.  :meth:`levels` yields, per level, the indices of
    the points introduced at that level and the indices of their left/right
    parents, which both the compressor and decompressor iterate in the same
    order.
    """

    def __init__(self, n: int, max_levels: int = 16) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = int(n)
        levels = 0
        while (1 << (levels + 1)) < max(self.n, 1) and levels < max_levels:
            levels += 1
        self.n_levels = levels
        self.anchor_stride = 1 << levels

    def anchor_indices(self) -> np.ndarray:
        """Indices stored verbatim (the coarsest grid, always includes 0)."""
        if self.n == 0:
            return np.zeros(0, dtype=np.int64)
        return np.arange(0, self.n, self.anchor_stride, dtype=np.int64)

    def levels(self):
        """Yield ``(new_idx, left_idx, right_idx)`` per refinement level.

        When the right parent would fall past the end of the array it does not
        exist on the coarser grid, so the left parent is reused (constant
        prediction at the boundary).
        """
        if self.n == 0:
            return
        stride = self.anchor_stride
        while stride > 1:
            half = stride // 2
            new_idx = np.arange(half, self.n, stride, dtype=np.int64)
            if new_idx.size:
                left_idx = new_idx - half
                right_candidate = new_idx + half
                right_idx = np.where(right_candidate < self.n, right_candidate, left_idx)
                yield new_idx, left_idx, right_idx
            stride = half

    @staticmethod
    def predict(values: np.ndarray, new_idx: np.ndarray, left_idx: np.ndarray,
                right_idx: np.ndarray) -> np.ndarray:
        """Linear interpolation of the midpoints from reconstructed parents."""
        left = values[left_idx]
        right = values[right_idx]
        same = right_idx == left_idx
        # halve-then-add: `0.5 * (left + right)` overflows to inf when both
        # parents sit near the float64 maximum; this form stays finite for
        # every finite input pair
        pred = 0.5 * left + 0.5 * right
        if np.any(same):
            pred = np.where(same, left, pred)
        return pred
