"""Verbatim (lossless) storage behind the lossy-compressor interface.

The profiled plan policy (:mod:`repro.core.profiling`) needs a "do not
compress" tier: when Eqn. (1) says no candidate EBLC pays for itself on a
link — the Figure 8 regime above the crossover bandwidth — the per-tensor plan
falls back to shipping the tensor bit-exactly while keeping the version-4
mixed-codec bitstream shape (codec tag + self-describing payload).

:class:`VerbatimCompressor` is that tier: it stores the flattened array bytes
unchanged after the shared :class:`~repro.compressors.base.LossyCompressor`
header, so the reconstruction is exact (max error 0), compression costs one
memcpy, and the payload is the original size plus a ~20-byte header.  The
recorded absolute bound is 0.0 — the bound actually achieved — regardless of
the configured one.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import LossyCompressor

__all__ = ["VerbatimCompressor"]


class VerbatimCompressor(LossyCompressor):
    """Identity codec: bit-exact storage with the standard lossy container."""

    name = "verbatim"

    def compress(self, data: np.ndarray,
                 reference: "np.ndarray | None" = None) -> bytes:
        # Override the base implementation: the float64 working copy it hands
        # to ``_compress_float1d`` would double the size of float32 tensors,
        # and verbatim storage must cost exactly the original bytes.
        data = np.asarray(data)
        if data.dtype not in self._DTYPE_CODES:
            data = data.astype(np.float32)
        flat = np.ascontiguousarray(data).ravel()
        header = struct.pack("<BB", self._DTYPE_CODES[data.dtype], data.ndim)
        header += struct.pack(f"<{data.ndim}Q", *data.shape) if data.ndim else b""
        header += struct.pack("<d", 0.0)  # the bound actually achieved
        return header + flat.tobytes()

    def _compress_float1d(self, data: np.ndarray, abs_bound: float,
                          reference: "np.ndarray | None" = None) -> bytes:
        # unused by the ``compress`` override above; kept for ABC completeness
        return np.ascontiguousarray(data).tobytes()

    def _decompress_float1d(self, body: bytes, count: int, abs_bound: float,
                            dtype: np.dtype,
                            reference: "np.ndarray | None" = None) -> np.ndarray:
        expected = count * dtype.itemsize
        if len(body) != expected:
            raise ValueError(f"corrupt verbatim payload: body has {len(body)} "
                             f"bytes but the header declares {expected}")
        return np.frombuffer(body, dtype=dtype).copy()
