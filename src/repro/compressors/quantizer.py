"""Error-bounded linear quantization of prediction residuals.

The prediction-based compressors (SZ2, SZ3) turn each residual
``r = x - prediction`` into an integer code ``q = round(r / (2 * eps))`` so
that the reconstruction ``prediction + 2 * eps * q`` differs from ``x`` by at
most ``eps``.  Values whose code would fall outside the configured quantization
radius are flagged *unpredictable* and stored verbatim (lossless), exactly like
SZ's outlier handling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["LinearQuantizer", "QuantizationResult"]


@dataclass
class QuantizationResult:
    """Output of :meth:`LinearQuantizer.quantize`.

    ``codes`` holds shifted non-negative symbols (ready for Huffman): code 0 is
    reserved for unpredictable values, predictable values map to
    ``q + radius + 1``.  ``outliers`` stores the verbatim float values for the
    positions where ``codes == 0``, in order of appearance.
    """

    codes: np.ndarray
    outliers: np.ndarray
    reconstructed: np.ndarray


class LinearQuantizer:
    """Uniform quantizer with a symmetric integer radius and outlier escape."""

    def __init__(self, radius: int = 32768) -> None:
        if radius < 1:
            raise ValueError("radius must be >= 1")
        self.radius = int(radius)

    def quantize(self, data: np.ndarray, predictions: np.ndarray, abs_bound: float,
                 codes: "np.ndarray | None" = None) -> QuantizationResult:
        """Quantize ``data - predictions`` under the absolute bound.

        ``codes``, when given, is a caller-owned int64 array of ``data``'s
        shape (e.g. one tile's slice of a tensor-wide code array) that
        receives the codes in place; it is also the result's ``codes``.
        """
        data = np.asarray(data, dtype=np.float64)
        predictions = np.asarray(predictions, dtype=np.float64)
        if data.shape != predictions.shape:
            raise ValueError("data and predictions must have the same shape")
        if abs_bound <= 0:
            raise ValueError("abs_bound must be positive")
        if codes is None:
            codes = np.empty(data.shape, dtype=np.int64)
        elif codes.shape != data.shape or codes.dtype != np.int64:
            raise ValueError("codes must be an int64 array of the data's shape")
        # The quotient is screened in float64 *before* the int64 cast: a huge
        # residual-to-bound ratio (or a non-finite prediction) would otherwise
        # overflow the cast into arbitrary negative codes instead of taking the
        # outlier escape.  One float64 scratch buffer (`work`) serves as the
        # residual, the rounded quotient, the reconstruction candidate, and
        # finally the reconstruction itself; every operation is the same
        # float64 arithmetic as the naive expression-per-temporary form, so the
        # results are bit-identical while peak scratch drops from ~7 full-size
        # float64/int64 temporaries to this buffer, the int64 codes and the
        # transient |q| of the screen.
        with np.errstate(over="ignore", invalid="ignore"):
            work = np.subtract(data, predictions)         # residual
            np.divide(work, 2.0 * abs_bound, out=work)
            np.rint(work, out=work)                       # the quotient q
            # one comparison screens |q| <= radius: NaN and +-inf fail it
            predictable = np.abs(work) <= float(self.radius)
            npred = np.logical_not(predictable)
            np.copyto(work, 0.0, where=npred)
            np.copyto(codes, work, casting="unsafe")      # q as int64
            # the reconstruction itself must be screened too: with a huge
            # bound, `2 * abs_bound * q` can round past the float64 maximum
            # even when the quotient is small (e.g. data 1.75e308 predicted at
            # 1.6e308 with bound 1e307), so such positions take the outlier
            # escape instead of reconstructing as inf
            np.multiply(work, 2.0 * abs_bound, out=work)
            np.add(work, predictions, out=work)           # the candidate
            np.isfinite(work, out=npred)
            predictable &= npred
            np.logical_not(predictable, out=npred)
            np.copyto(codes, 0, where=npred)
            np.copyto(work, data, where=npred)            # the reconstruction
        np.add(codes, self.radius + 1, out=codes, where=predictable)
        return QuantizationResult(codes=codes, outliers=data[npred], reconstructed=work)

    def dequantize(self, codes: np.ndarray, outliers: np.ndarray, predictions: np.ndarray,
                   abs_bound: float, out: "np.ndarray | None" = None) -> np.ndarray:
        """Invert :meth:`quantize` given the same predictions.

        ``out``, when given, is a caller-owned float array of ``codes``'
        shape (e.g. one tile's slice of the decoded tensor) that receives
        the reconstruction and is returned.  Its dtype may be narrower than
        float64: the arithmetic stays float64 and each value is rounded once
        on store, exactly as casting the float64 result afterwards would.

        Mirrors the scratch discipline of :meth:`quantize`: one float64
        buffer (`work`) serves as the shifted quotient, the scaled residual,
        and the reconstruction, with every operation the same float64
        arithmetic as the naive expression-per-temporary form — bit-identical
        results, one temporary instead of four.
        """
        codes = np.asarray(codes, dtype=np.int64)
        predictions = np.asarray(predictions, dtype=np.float64)
        work = np.subtract(codes, self.radius + 1).astype(np.float64)
        if out is None:
            out = work
        elif out.shape != codes.shape:
            raise ValueError("out must have the shape of codes")
        unpred = codes == 0
        n_unpred = int(np.count_nonzero(unpred))
        if outliers.size < n_unpred:
            raise ValueError("not enough outlier values to dequantize")
        with np.errstate(over="ignore", invalid="ignore"):
            # unpredictable positions (code 0 → q = -radius-1) may overflow
            # here; they are overwritten from the outlier list just below
            np.multiply(work, 2.0 * abs_bound, out=work)
            np.add(predictions, work, out=out)
            if n_unpred:
                out[unpred] = outliers[:n_unpred]
        return out

    # -- payload helpers -----------------------------------------------------
    @staticmethod
    def pack_outliers(outliers: np.ndarray) -> bytes:
        """Serialize verbatim outlier values (float64, length prefixed)."""
        outliers = np.asarray(outliers, dtype=np.float64)
        return struct.pack("<Q", outliers.size) + outliers.tobytes()

    @staticmethod
    def unpack_outliers(payload: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
        """Inverse of :func:`pack_outliers`; returns the array and next offset."""
        (count,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        values = np.frombuffer(payload, dtype=np.float64, count=count, offset=offset).copy()
        return values, offset + 8 * count
