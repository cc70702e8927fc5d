"""ZFP-style transform-based lossy compressor (fixed-precision mode).

ZFP (Lindstrom, 2014) groups values into small blocks, aligns each block to a
common exponent (block floating point), applies a custom orthogonal transform,
and encodes the transform coefficients bit plane by bit plane.  ZFP has no
relative-error mode; the paper therefore drives it in *fixed precision* mode
(Section V-D1), where a fixed number of coefficient bit planes is kept.

This reproduction mirrors that structure for 1-D data:

* blocks of 4 values,
* per-block common exponent (the exponent of the largest magnitude),
* an orthonormal 4-point transform (DCT-II basis, standing in for ZFP's lifted
  transform — both are orthogonal so the coefficient energy compaction and the
  error behaviour are equivalent),
* uniform quantization of the normalized coefficients to ``precision`` bits,
  packed with NumPy in one pass.

When constructed through the common :class:`LossyCompressor` interface the
requested (relative) error bound is mapped to a precision, reproducing how the
paper selects "the closest analogous option" for ZFP.  In this derived-
precision mode every block is self-validated at compression time and blocks
that would exceed the bound are stored verbatim, so the bound is a hard
guarantee; passing ``precision`` explicitly requests ZFP's native
fixed-precision semantics instead, where the bound is only a target.

Payload body layout::

    u32   block size (always 4)
    u64   element count
    u8    precision bits per coefficient
    i16[] per-block exponents
    bytes packed coefficient bits
    bytes verbatim-block bitmap
    f64[] verbatim block values
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import BodyReader, ErrorBound, ErrorBoundMode, LossyCompressor
from repro.compressors.predictors import block_pad

__all__ = ["ZFPCompressor"]

_BLOCK = 4
_FIXED = struct.Struct("<IQB")  # block size, element count, precision


def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix of size ``n`` (rows are basis vectors)."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


_TRANSFORM = _dct_matrix(_BLOCK)
_INVERSE = _TRANSFORM.T


class ZFPCompressor(LossyCompressor):
    """Block-transform fixed-precision compressor (ZFP style)."""

    name = "zfp"

    def __init__(self, error_bound: ErrorBound | float = 1e-2,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL,
                 precision: int | None = None) -> None:
        super().__init__(error_bound, mode)
        if precision is not None and not (2 <= precision <= 30):
            raise ValueError("precision must be in [2, 30]")
        self._explicit_precision = precision

    def _resolve_precision(self, data: np.ndarray, abs_bound: float) -> int:
        """Map the requested error bound to a bit-plane count.

        ``precision ~= log2(range / bound) + 3`` gives the smallest precision
        whose quantization step (after the orthogonal transform) stays at or
        below the requested tolerance for typical blocks.
        """
        if self._explicit_precision is not None:
            return self._explicit_precision
        if data.size == 0 or abs_bound <= 0:
            return 16
        value_range = float(np.max(np.abs(data)))
        if value_range == 0.0:
            return 2
        with np.errstate(over="ignore"):
            ratio = value_range / abs_bound
        if not np.isfinite(ratio):
            # bound/range ratio beyond float64: request the maximum precision
            # and let the per-block verbatim escape pick up the remainder
            return 30
        precision = int(np.ceil(np.log2(max(ratio, 2.0)))) + 3
        return int(np.clip(precision, 2, 30))

    # ------------------------------------------------------------------
    def _compress_float1d(self, data: np.ndarray, abs_bound: float) -> bytes:
        n = data.size
        if n == 0:
            return _FIXED.pack(_BLOCK, 0, 0)

        precision = self._resolve_precision(data, abs_bound)
        blocks, original_len = block_pad(data, _BLOCK)

        # Block floating point: normalize by 2**exponent of the block maximum.
        block_max = np.max(np.abs(blocks), axis=1)
        exponents = np.zeros(blocks.shape[0], dtype=np.int16)
        nonzero = block_max > 0
        exponents[nonzero] = np.ceil(np.log2(block_max[nonzero])).astype(np.int16)
        with np.errstate(over="ignore"):
            # exponent 1024 (values past 2**1023) overflows the scale to inf;
            # those blocks reconstruct as NaN and take the verbatim escape
            scale = np.exp2(exponents.astype(np.float64))
        normalized = np.where(nonzero[:, None], blocks / scale[:, None], 0.0)

        coeffs = normalized @ _TRANSFORM.T  # orthonormal forward transform

        # Coefficients of an orthonormal transform of values in [-1, 1] lie in
        # [-2, 2]; quantize them uniformly with `precision` bits (sign folded in).
        step = 4.0 / (1 << precision)
        q = np.clip(np.rint(coeffs / step) + (1 << (precision - 1)), 0, (1 << precision) - 1)
        q = q.astype(np.uint64)

        # Self-validate each block when the precision was derived from an error
        # bound: 30 bit planes cannot honour every bound/range ratio, so blocks
        # whose reconstruction would exceed the bound are stored verbatim
        # instead.  An explicit precision requests pure fixed-precision
        # semantics (a target, not a guarantee) and skips the escape.
        verbatim = np.zeros(blocks.shape[0], dtype=bool)
        if self._explicit_precision is None:
            recon_coeffs = (q.astype(np.float64) - (1 << (precision - 1))) * step
            with np.errstate(invalid="ignore", over="ignore"):
                recon = (recon_coeffs @ _INVERSE.T) * scale[:, None]
                # negated <= so NaN/inf reconstructions (scale overflow past
                # 2**1023) count as failures instead of slipping through a
                # False `>` comparison
                verbatim = ~(np.abs(recon - blocks).max(axis=1) <= abs_bound)

        q = q.ravel()
        shifts = np.arange(precision - 1, -1, -1, dtype=np.uint64)
        bits = ((q[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        packed = np.packbits(bits.ravel())
        vb_bitmap = np.packbits(verbatim.astype(np.uint8))
        vb_values = blocks[verbatim].ravel().astype(np.float64)

        body = _FIXED.pack(_BLOCK, original_len, precision)
        body += struct.pack("<Q", exponents.size) + exponents.tobytes()
        body += struct.pack("<Q", packed.size) + packed.tobytes()
        body += struct.pack("<Q", vb_bitmap.size) + vb_bitmap.tobytes()
        body += struct.pack("<Q", vb_values.size) + vb_values.tobytes()
        return body

    # ------------------------------------------------------------------
    def _decompress_float1d(self, body: bytes, count: int, abs_bound: float,
                            dtype: np.dtype) -> np.ndarray:
        reader = BodyReader(body, "ZFP")
        block, original_len, precision = reader.fields(_FIXED)
        if original_len != count:
            raise reader.corrupt(f"body holds {original_len} elements but the "
                                 f"container declares {count}")
        if block != _BLOCK:
            raise reader.corrupt(f"block size {block}")
        if count == 0:
            reader.finish()
            return np.zeros(0, dtype=np.float64)
        if not 2 <= precision <= 30:
            # matches the compressor's [2, 30] range; larger values would
            # silently wrap numpy's uint64 shifts
            raise reader.corrupt(f"precision {precision}")
        # every section length is checked against the geometry before any
        # array is sized by it
        n_blocks = -(-count // block)
        exponents = reader.section(np.int16, n_blocks, "exponent")
        packed = reader.section(np.uint8, -(-n_blocks * block * precision // 8),
                                "packed coefficient byte")
        vb_bitmap = reader.section(np.uint8, -(-n_blocks // 8), "verbatim bitmap byte")
        verbatim = np.unpackbits(vb_bitmap, count=n_blocks).astype(bool)
        vb_values = reader.section(np.float64, block * int(verbatim.sum()), "verbatim value")
        reader.finish()

        total = n_blocks * block
        bits = np.unpackbits(packed)[: total * precision].reshape(total, precision)
        weights = (np.uint64(1) << np.arange(precision - 1, -1, -1, dtype=np.uint64))
        q = (bits.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)

        step = 4.0 / (1 << precision)
        coeffs = (q.astype(np.float64) - (1 << (precision - 1))) * step
        coeffs = coeffs.reshape(n_blocks, block)
        normalized = coeffs @ _INVERSE.T
        with np.errstate(over="ignore"):
            scale = np.exp2(exponents.astype(np.float64))
        with np.errstate(invalid="ignore", over="ignore"):
            # verbatim blocks may carry an overflowed (inf) scale; their
            # NaN products are overwritten from vb_values just below
            values = normalized * scale[:, None]
        if vb_values.size:
            values[verbatim] = vb_values.reshape(-1, block)
        return values.ravel()[:original_len]
