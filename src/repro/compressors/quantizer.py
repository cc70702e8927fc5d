"""Error-bounded linear quantization of prediction residuals.

The prediction-based compressors (SZ2, SZ3) turn each residual
``r = x - prediction`` into an integer code ``q = round(r / (2 * eps))`` so
that the reconstruction ``prediction + 2 * eps * q`` differs from ``x`` by at
most ``eps``.  Values whose code would fall outside the configured quantization
radius are flagged *unpredictable* and stored verbatim (lossless), exactly like
SZ's outlier handling.

The encoder works in the tensor's own dtype: :meth:`LinearQuantizer.quantize`
reads float32 or float64 values as they are and widens them to float64 only
inside its arithmetic, and it writes ``int32`` codes (they lie in
``0 .. 2 * radius + 1``).  The reconstruction is built only when a caller
reads it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["LinearQuantizer", "QuantizationResult"]


@dataclass
class QuantizationResult:
    """Output of :meth:`LinearQuantizer.quantize`.

    ``codes`` holds shifted non-negative ``int32`` symbols (ready for
    Huffman): code 0 is reserved for unpredictable values, predictable
    values map to ``q + radius + 1``.  ``outliers`` stores the verbatim
    values, as float64, for the positions where ``codes == 0``, in order of
    appearance.

    :attr:`reconstructed` is what :meth:`LinearQuantizer.dequantize` makes of
    ``codes`` and ``outliers`` with the same predictions and bound, built on
    first read from the codes as they are then (a caller that changes the
    codes in place and still needs the quantizer's reconstruction reads it
    first).  It equals the float64 reconstruction of the quantized values
    bit for bit, except that a zero quotient reconstructs as ``+0.0`` where
    ``rint`` gave ``-0.0``.  ``rebuild`` is ``None`` for a result with no
    reconstruction of its own (SZ2's recoded reference-grid codes).
    """

    codes: np.ndarray
    outliers: np.ndarray
    rebuild: "Callable[[np.ndarray, np.ndarray], np.ndarray] | None" = \
        field(default=None, repr=False, compare=False)

    @functools.cached_property
    def reconstructed(self) -> np.ndarray:
        if self.rebuild is None:
            raise ValueError("this quantization result has no reconstruction")
        return self.rebuild(self.codes, self.outliers)


class LinearQuantizer:
    """Uniform quantizer with a symmetric integer radius and outlier escape."""

    def __init__(self, radius: int = 32768) -> None:
        if radius < 1:
            raise ValueError("radius must be >= 1")
        self.radius = int(radius)

    def quantize(self, data: np.ndarray, predictions: "np.ndarray | None", abs_bound: float,
                 codes: "np.ndarray | None" = None) -> QuantizationResult:
        """Quantize ``data - predictions`` under the absolute bound.

        ``data`` is read in its own dtype when that is float32 or float64
        (anything else is widened to float64); the arithmetic is float64
        either way, so a float32 tensor codes exactly as its float64 copy
        would.  ``predictions=None`` quantizes ``data`` itself (a zero
        prediction) without the subtract and add passes.

        ``codes``, when given, is a caller-owned ``int32`` array of
        ``data``'s shape (e.g. one tile's slice of a tensor-wide code array)
        that receives the codes in place; it is also the result's ``codes``.

        Every value whose quotient is NaN, infinite or past the radius, or
        whose reconstruction ``prediction + 2 * bound * q`` would round past
        the float64 range, takes the outlier escape.  Two scalar tests stand
        in for the per-element screens when they prove that no value needs
        them.  If the smallest and largest quotients lie inside the radius,
        no quotient escapes (a NaN fails the test, since it is the min and
        the max).  And every reconstruction is finite when
        ``max|prediction| + 2 * bound * radius`` is (the prediction term is
        absent for a zero prediction): ``|q| <= radius`` and rounding is
        monotone, so each ``|prediction + 2 * bound * q|`` rounds to at most
        that sum.
        """
        data = np.asarray(data)
        if data.dtype.type not in (np.float32, np.float64):
            data = data.astype(np.float64)
        if predictions is not None:
            predictions = np.asarray(predictions, dtype=np.float64)
            if data.shape != predictions.shape:
                raise ValueError("data and predictions must have the same shape")
        if abs_bound <= 0:
            raise ValueError("abs_bound must be positive")
        if 2 * self.radius + 1 > np.iinfo(np.int32).max:
            raise ValueError(f"radius {self.radius} needs codes past int32")
        if codes is None:
            codes = np.empty(data.shape, dtype=np.int32)
        elif codes.shape != data.shape or codes.dtype != np.int32:
            raise ValueError("codes must be an int32 array of the data's shape")
        step = 2.0 * abs_bound
        radius = float(self.radius)
        # The quotient is screened in float64 *before* the integer cast: a
        # huge residual-to-bound ratio (or a non-finite prediction) would
        # otherwise overflow the cast into arbitrary codes instead of taking
        # the outlier escape.  One float64 scratch buffer (`work`) holds the
        # residual, then the quotient, then the reconstruction candidate.
        with np.errstate(over="ignore", invalid="ignore"):
            if predictions is None:
                work = np.divide(data, step, dtype=np.float64)
            else:
                work = np.subtract(data, predictions, dtype=np.float64)  # residual
                np.divide(work, step, out=work)
            np.rint(work, out=work)                           # the quotient q
            inside = work.size > 0 and -radius <= work.min() and work.max() <= radius
            reach = step * radius       # the largest |2 * bound * q| of a code
            if predictions is not None and inside:
                # every prediction is finite here: an infinite one makes its
                # quotient infinite or NaN
                reach += max(-float(predictions.min()), float(predictions.max()))
            if inside and math.isfinite(reach):
                np.add(work, self.radius + 1, out=codes, casting="unsafe")
                outliers = np.empty(0)
            else:
                predictable = np.abs(work) <= radius              # NaN and +-inf fail
                npred = np.logical_not(predictable)
                np.copyto(work, 0.0, where=npred)
                np.copyto(codes, work, casting="unsafe")          # q, 0 at escapes
                if predictions is not None or not math.isfinite(reach):
                    # the candidate itself may round past the float64
                    # maximum even for a small quotient (data 1.75e308
                    # predicted at 1.6e308 with bound 1e307)
                    np.multiply(work, step, out=work)
                    if predictions is not None:
                        np.add(work, predictions, out=work)       # the candidate
                    np.isfinite(work, out=npred)
                    predictable &= npred
                    np.logical_not(predictable, out=npred)
                    np.copyto(codes, 0, where=npred)
                np.add(codes, self.radius + 1, out=codes, where=predictable)
                outliers = data[npred].astype(np.float64, copy=False)
        return QuantizationResult(codes, outliers, functools.partial(
            _dequantize, predictions=predictions, abs_bound=abs_bound, radius=self.radius))

    def dequantize(self, codes: np.ndarray, outliers: np.ndarray,
                   predictions: "np.ndarray | None", abs_bound: float,
                   out: "np.ndarray | None" = None) -> np.ndarray:
        """Invert :meth:`quantize` given the same predictions.

        ``predictions=None`` inverts a zero-prediction :meth:`quantize` and
        skips the add pass; the values equal an explicit zeros array's bit
        for bit.

        ``out``, when given, is a caller-owned float array of ``codes``'
        shape (e.g. one tile's slice of the decoded tensor) that receives
        the reconstruction and is returned.  Its dtype may be narrower than
        float64: the arithmetic stays float64 and each value is rounded once
        on store, exactly as casting the float64 result afterwards would.

        ``codes`` may be any integer dtype (the decoder's are ``int32``)
        and are read as they are, not copied to ``int64``.

        One float64 buffer (`work`) serves as the shifted quotient, the
        scaled residual, and the reconstruction, with every operation the
        same float64 arithmetic as the naive expression-per-temporary form —
        bit-identical results, one temporary instead of four.
        """
        return _dequantize(codes, outliers, predictions, abs_bound, self.radius, out)

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


def _dequantize(codes: np.ndarray, outliers: np.ndarray,
                predictions: "np.ndarray | None", abs_bound: float, radius: int,
                out: "np.ndarray | None" = None) -> np.ndarray:
    """:meth:`LinearQuantizer.dequantize`, also the lazy reconstruction of a
    :class:`QuantizationResult` (kept apart so a trace of ``dequantize``
    sees decoding only)."""
    codes = np.asarray(codes)
    work = np.subtract(codes, radius + 1, dtype=np.float64)
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
        if predictions is None:
            # `work` never holds -0.0, so `0.0 + work` would be `work`
            np.multiply(work, 2.0 * abs_bound, out=out)
        else:
            np.multiply(work, 2.0 * abs_bound, out=work)
            np.add(np.asarray(predictions, dtype=np.float64), work, out=out)
        if n_unpred:
            out[unpred] = outliers[:n_unpred]
    return out
