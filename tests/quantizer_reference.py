"""The float64/int64 linear quantizer the lean encoder must match.

:func:`quantize_reference` is ``LinearQuantizer.quantize`` as it stood
before the encoder moved to the tensor's own dtype and ``int32`` codes: it
widens the data to float64, writes ``int64`` codes and builds the
reconstruction eagerly, screening every element.  The tests compare the
codes (as ``int64``), the outliers and the reconstruction against it bit
for bit; only the sign of a zero reconstruction may differ for a zero
prediction.
"""

from __future__ import annotations

import numpy as np


def quantize_reference(radius: int, data: np.ndarray, predictions: "np.ndarray | None",
                       abs_bound: float, codes: "np.ndarray | None" = None):
    """``(codes, outliers, reconstructed)`` of the reference quantizer."""
    data = np.asarray(data, dtype=np.float64)
    if predictions is not None:
        predictions = np.asarray(predictions, dtype=np.float64)
        if data.shape != predictions.shape:
            raise ValueError("data and predictions must have the same shape")
    if abs_bound <= 0:
        raise ValueError("abs_bound must be positive")
    if codes is None:
        codes = np.empty(data.shape, dtype=np.int64)
    elif codes.shape != data.shape or codes.dtype != np.int64:
        raise ValueError("codes must be an int64 array of the data's shape")
    with np.errstate(over="ignore", invalid="ignore"):
        if predictions is None:
            work = np.divide(data, 2.0 * abs_bound)
        else:
            work = np.subtract(data, predictions)     # residual
            np.divide(work, 2.0 * abs_bound, out=work)
        np.rint(work, out=work)                       # the quotient q
        # one comparison screens |q| <= radius: NaN and +-inf fail it
        predictable = np.abs(work) <= float(radius)
        npred = np.logical_not(predictable)
        np.copyto(work, 0.0, where=npred)
        np.copyto(codes, work, casting="unsafe")      # q as int64
        np.multiply(work, 2.0 * abs_bound, out=work)
        if predictions is not None:
            np.add(work, predictions, out=work)       # the candidate
        np.isfinite(work, out=npred)
        predictable &= npred
        np.logical_not(predictable, out=npred)
        np.copyto(codes, 0, where=npred)
        np.copyto(work, data, where=npred)            # the reconstruction
    np.add(codes, radius + 1, out=codes, where=predictable)
    return codes, data[npred], work
