"""SZ3-style error-bounded lossy compressor (interpolation prediction).

SZ3 (Liang et al., 2023; Zhao et al., 2021) replaces SZ2's block predictors
with dynamic multi-level spline interpolation: a coarse set of anchor points is
stored, and each refinement level predicts the new midpoints by interpolating
the already-reconstructed coarser level, quantizing the interpolation error
against the bound.  No regression coefficients need to be stored, which is why
SZ3 typically edges out SZ2 at larger error bounds (Section II-A of the paper).

This reproduction implements the 1-D linear-interpolation variant level by
level (each level is a single vectorized pass that reads only reconstructed
values), followed by the same HUF4 Huffman stage as SZ2.  Like SZ2's, the
body has no lossless pass after it.

Payload body layout::

    u64   element count
    u32   quantizer radius
    u8    anchor dtype (0 = float32, 1 = float64)
    u64   anchor count, anchor values
    u64   Huffman stream length, HUF4 stream of the quantization codes (level order)
    u64   outlier count, f64[] verbatim outliers (level order)

The decoder checks the element, anchor and code counts against the
container's element count (the code count before the Huffman stream sizes
anything), accepts an
anchor flag of 0 or 1 only, requires exactly one outlier per zero code, and
rejects any byte after the last field (the outlier tail, or the 13-byte
empty-tensor escape) with :class:`ValueError`.

Anchors are stored verbatim and double as their own reconstruction, so their
storage dtype must honour the error bound: float32 is used whenever the cast
error stays within the bound (always true for float32 inputs, keeping those
bitstreams compact), otherwise the anchors are kept as float64.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from repro.compressors.base import ErrorBound, ErrorBoundMode, LossyCompressor
from repro.compressors.huffman import DEFAULT_CHUNK_TUPLES, HuffmanCoder
from repro.compressors.predictors import InterpolationPredictor
from repro.compressors.quantizer import LinearQuantizer

__all__ = ["SZ3Compressor"]


class SZ3Compressor(LossyCompressor):
    """Multi-level interpolation-prediction compressor (SZ3 style)."""

    name = "sz3"

    def __init__(self, error_bound: ErrorBound | float = 1e-2,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL,
                 quantizer_radius: int = 32768,
                 entropy_chunk: int = DEFAULT_CHUNK_TUPLES) -> None:
        super().__init__(error_bound, mode)
        self.quantizer = LinearQuantizer(quantizer_radius)
        # entropy_chunk caps the tuples per Huffman chunk
        self.huffman = HuffmanCoder(chunk_size=entropy_chunk)

    # ------------------------------------------------------------------
    def _compress_float1d(self, data: np.ndarray, abs_bound: float,
                          reference: "np.ndarray | None" = None) -> bytes:
        prefix, codes, suffix = self._body_parts(data, abs_bound)
        if codes is None:
            return b"".join(prefix + suffix)
        huff = self.huffman.encode(codes)
        return b"".join([*prefix, struct.pack("<Q", len(huff)), huff, *suffix])

    def _body_parts(self, data: np.ndarray, abs_bound: float
                    ) -> "tuple[list[bytes], np.ndarray | None, list[bytes]]":
        """Split the body into (pre-Huffman pieces, quantization
        codes, post-Huffman pieces).

        Same contract as :meth:`SZ2Compressor._body_parts`: ``codes is
        None`` marks the empty-array escape.
        """
        n = data.size
        if n == 0:
            return [struct.pack("<QIB", 0, self.quantizer.radius, 0)], None, []

        predictor = InterpolationPredictor(n)
        anchors_idx = predictor.anchor_indices()
        exact = data[anchors_idx]
        with np.errstate(over="ignore"):
            as_f32 = exact.astype(np.float32)
        f32_ok = np.all(np.isfinite(as_f32)) and \
            float(np.max(np.abs(as_f32.astype(np.float64) - exact))) <= abs_bound
        anchors = as_f32 if f32_ok else exact.astype(np.float64)

        # The decoder only sees the stored anchors; reconstruct from the same
        # values here so both sides run identical interpolation arithmetic.
        # Each level reads its values in the tensor's dtype and its
        # predictions from this float64 reconstruction.
        reconstructed = np.zeros(n, dtype=np.float64)
        reconstructed[anchors_idx] = anchors.astype(np.float64)

        code_chunks: list[np.ndarray] = []
        outlier_chunks: list[np.ndarray] = []
        for new_idx, left_idx, right_idx in predictor.levels():
            predictions = InterpolationPredictor.predict(reconstructed, new_idx, left_idx, right_idx)
            quant = self.quantizer.quantize(data[new_idx], predictions, abs_bound)
            reconstructed[new_idx] = quant.reconstructed
            code_chunks.append(quant.codes)
            outlier_chunks.append(quant.outliers)

        codes = np.concatenate(code_chunks) if code_chunks else np.zeros(0, dtype=np.int32)
        outliers = np.concatenate(outlier_chunks) if outlier_chunks else np.zeros(0, dtype=np.float64)

        prefix = [struct.pack("<QIB", n, self.quantizer.radius, 0 if f32_ok else 1),
                  struct.pack("<Q", anchors.size) + anchors.tobytes()]
        suffix = [LinearQuantizer.pack_outliers(outliers)]
        return prefix, codes, suffix

    # ------------------------------------------------------------------
    def _open_body(self, body: memoryview, count: int, abs_bound: float,
                   dtype: np.dtype, reference: "np.ndarray | None" = None):
        """Check the body up to its Huffman stream; see :meth:`_rebuild`.

        The element, anchor and code counts are checked against the
        container's ``count`` (the code count before the Huffman stream
        sizes anything) and the anchor flag must be 0 or 1; any mismatch
        raises :class:`ValueError`.
        """
        n, radius, anchor_code = struct.unpack_from("<QIB", body, 0)
        offset = struct.calcsize("<QIB")
        _check_length(n, count)
        anchor_dtype = _anchor_dtype(anchor_code)
        if n == 0:
            _expect_consumed(body, offset)
            return None, None, lambda codes: np.zeros(0, dtype=np.float64)
        (anchor_count,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        _check_anchors(anchor_count, n)
        anchors = np.frombuffer(body, dtype=anchor_dtype, count=anchor_count, offset=offset)
        offset += anchor_dtype.itemsize * anchor_count
        (huff_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        return (body[offset:offset + huff_len],
                functools.partial(_check_code_count, expected=n - anchor_count),
                functools.partial(self._rebuild, n, radius, anchors,
                                  body[offset + huff_len:], abs_bound))

    @staticmethod
    def _rebuild(n: int, radius: int, anchors: np.ndarray, tail: memoryview,
                 abs_bound: float, codes: np.ndarray) -> np.ndarray:
        """Reconstruct ``n`` values from the anchors, the decoded codes and
        ``tail``, the body after the Huffman stream.

        Every zero code must have exactly one outlier, and no byte may
        follow the outlier tail; any mismatch raises :class:`ValueError`.
        """
        _check_code_count(codes.size, n - anchors.size)
        outliers, offset = LinearQuantizer.unpack_outliers(tail, 0)
        _expect_consumed(tail, offset)

        predictor = InterpolationPredictor(n)
        quantizer = LinearQuantizer(radius)
        reconstructed = np.zeros(n, dtype=np.float64)
        reconstructed[predictor.anchor_indices()] = anchors.astype(np.float64)

        code_pos = 0
        outlier_pos = 0
        for new_idx, left_idx, right_idx in predictor.levels():
            level_codes = codes[code_pos : code_pos + new_idx.size]
            code_pos += new_idx.size
            n_unpred = int((level_codes == 0).sum())
            level_outliers = outliers[outlier_pos : outlier_pos + n_unpred]
            outlier_pos += n_unpred
            predictions = InterpolationPredictor.predict(reconstructed, new_idx, left_idx, right_idx)
            reconstructed[new_idx] = quantizer.dequantize(level_codes, level_outliers, predictions, abs_bound)
        if outlier_pos != outliers.size:
            raise ValueError(f"corrupt sz3 body: {outliers.size} outliers for "
                             f"{outlier_pos} escape codes")
        return reconstructed


def _check_length(n: int, count: int) -> None:
    if n != count:
        raise ValueError(f"corrupt sz3 body: length {n} does not match the "
                         f"header's {count} elements")


def _check_code_count(n_codes: int, expected: int) -> None:
    if n_codes != expected:
        raise ValueError(f"corrupt sz3 body: {n_codes} codes for {expected} "
                         f"interpolated elements")


def _check_anchors(anchor_count: int, n: int) -> None:
    """Raise unless ``anchor_count`` is the anchors an ``n``-value grid stores."""
    expected = -(-n // InterpolationPredictor(n).anchor_stride)
    if anchor_count != expected:
        raise ValueError(f"corrupt sz3 body: {anchor_count} anchors for {n} "
                         f"elements (expected {expected})")


def _anchor_dtype(anchor_code: int) -> np.dtype:
    if anchor_code not in (0, 1):
        raise ValueError(f"corrupt sz3 body: unknown anchor dtype flag {anchor_code}")
    return np.dtype(np.float64) if anchor_code else np.dtype(np.float32)


def _expect_consumed(body: bytes, offset: int) -> None:
    if offset != len(body):
        raise ValueError(f"corrupt sz3 body: {len(body) - offset} bytes after "
                         f"the last field")
