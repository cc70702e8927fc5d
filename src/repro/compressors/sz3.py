"""SZ3-style error-bounded lossy compressor (interpolation prediction).

SZ3 (Liang et al., 2023; Zhao et al., 2021) replaces SZ2's block predictors
with dynamic multi-level spline interpolation: a coarse set of anchor points is
stored, and each refinement level predicts the new midpoints by interpolating
the already-reconstructed coarser level, quantizing the interpolation error
against the bound.  No regression coefficients need to be stored, which is why
SZ3 typically edges out SZ2 at larger error bounds (Section II-A of the paper).

This reproduction implements the 1-D linear-interpolation variant level by
level (each level is a single vectorized pass that reads only reconstructed
values), followed by the same Huffman + lossless finishing stages as SZ2.

Payload body layout::

    u64   element count
    u32   quantizer radius
    u8    anchor dtype (0 = float32, 1 = float64)
    u64   anchor count, anchor values
    u64   Huffman stream length, Huffman-coded quantization codes (level order)
    u64   outlier count, f64[] verbatim outliers (level order)

wrapped in the configured lossless backend.

Anchors are stored verbatim and double as their own reconstruction, so their
storage dtype must honour the error bound: float32 is used whenever the cast
error stays within the bound (always true for float32 inputs, keeping those
bitstreams compact), otherwise the anchors are kept as float64.
"""

from __future__ import annotations

import functools
import struct
from typing import Callable

import numpy as np

from repro.compressors.base import ErrorBound, ErrorBoundMode, LossyCompressor
from repro.compressors.codebook import entropy_encode
from repro.compressors.huffman import DEFAULT_CHUNK_SYMBOLS, HuffmanCoder
from repro.compressors.lossless import LosslessCodec, get_lossless
from repro.compressors.predictors import InterpolationPredictor
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.streaming import SZStreamDecoder, SZStreamEncoder
from repro.utils.bitstream import StreamBuffer

__all__ = ["SZ3Compressor"]


class SZ3Compressor(LossyCompressor):
    """Multi-level interpolation-prediction compressor (SZ3 style)."""

    name = "sz3"

    def __init__(self, error_bound: ErrorBound | float = 1e-2,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL,
                 quantizer_radius: int = 32768,
                 lossless_backend: str | LosslessCodec = "zlib",
                 entropy_chunk: int = DEFAULT_CHUNK_SYMBOLS,
                 entropy_workers: int | None = 1,
                 entropy_backend: str = "thread") -> None:
        super().__init__(error_bound, mode)
        self.quantizer = LinearQuantizer(quantizer_radius)
        # entropy_chunk caps the symbols per Huffman chunk; entropy_workers=1
        # decodes in-thread as one vectorized band, >1 in bands on the named
        # execution backend (serial / thread / process).
        self.huffman = HuffmanCoder(chunk_size=entropy_chunk, max_workers=entropy_workers,
                                    backend=entropy_backend)
        if isinstance(lossless_backend, LosslessCodec):
            self.lossless = lossless_backend
        else:
            self.lossless = get_lossless(lossless_backend, level=1) if lossless_backend == "zlib" \
                else get_lossless(lossless_backend)

    # ------------------------------------------------------------------
    def _compress_float1d(self, data: np.ndarray, abs_bound: float) -> bytes:
        prefix, codes, suffix = self._body_parts(data, abs_bound)
        if codes is None:
            return self.lossless.compress(b"".join(prefix + suffix))
        huff = entropy_encode(self.huffman, codes, self._codebook)
        body = b"".join(prefix) + struct.pack("<Q", len(huff)) + huff + b"".join(suffix)
        return self.lossless.compress(body)

    def _body_parts(self, data: np.ndarray, abs_bound: float
                    ) -> "tuple[list[bytes], np.ndarray | None, list[bytes]]":
        """Split the plaintext body into (pre-Huffman pieces, quantization
        codes, post-Huffman pieces).

        Same contract as :meth:`SZ2Compressor._body_parts`: shared by the
        batch path and the streaming :class:`SZStreamEncoder`, with ``codes
        is None`` marking the empty-array escape.
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

        codes = np.concatenate(code_chunks) if code_chunks else np.zeros(0, dtype=np.int64)
        outliers = np.concatenate(outlier_chunks) if outlier_chunks else np.zeros(0, dtype=np.float64)

        prefix = [struct.pack("<QIB", n, self.quantizer.radius, 0 if f32_ok else 1),
                  struct.pack("<Q", anchors.size) + anchors.tobytes()]
        suffix = [LinearQuantizer.pack_outliers(outliers)]
        return prefix, codes, suffix

    # ------------------------------------------------------------------
    def _decompress_float1d(self, body: bytes, count: int, abs_bound: float,
                            dtype: np.dtype) -> np.ndarray:
        return self._decode_plain_body(self.lossless.decompress(body), count,
                                       abs_bound, dtype)

    def stream_decoder(self) -> SZStreamDecoder:
        """Incremental decoder that overlaps the Huffman stage with arrival."""
        return SZStreamDecoder(self)

    def stream_encoder(self) -> SZStreamEncoder:
        """Incremental encoder that emits the body as the Huffman stage codes."""
        return SZStreamEncoder(self)

    def _huffman_span(self, plain: "StreamBuffer", count: int
                      ) -> "tuple[int, int, Callable[[int], None] | None] | None":
        """Locate the embedded Huffman stream in a plaintext body prefix.

        Same contract as :meth:`SZ2Compressor._huffman_span`: ``(start,
        length, check_count)`` once the pre-Huffman fields (anchor block
        included) have arrived, ``None`` while more bytes are needed, length
        0 for the empty-array escape.  The element and anchor counts are
        checked against the container's ``count`` as they arrive, and
        ``check_count`` rejects any symbol count but ``count`` minus the
        anchors.
        """
        fixed = struct.calcsize("<QIB")
        if not plain.has(fixed):
            return None
        n, _, anchor_code = struct.unpack("<QIB", plain.view(0, fixed))
        _check_length(n, count)
        if n == 0:
            return fixed, 0, None
        itemsize = 8 if anchor_code else 4
        offset = fixed
        if not plain.has(8, offset):
            return None
        (anchor_count,) = struct.unpack("<Q", plain.view(offset, offset + 8))
        _check_anchors(anchor_count, n)
        offset += 8 + itemsize * anchor_count
        if not plain.has(8, offset):
            return None
        (huff_len,) = struct.unpack("<Q", plain.view(offset, offset + 8))
        return offset + 8, huff_len, functools.partial(
            _check_code_count, expected=n - anchor_count)

    def _decode_plain_body(self, body: bytes, count: int, abs_bound: float,
                           dtype: np.dtype,
                           codes: "np.ndarray | None" = None) -> np.ndarray:
        """Reconstruct from the decompressed body.

        ``codes`` carries pre-decoded Huffman symbols from the streaming
        consumer; ``None`` (the batch path) decodes them here.  Both sources
        run the same kernels, so the output is bit-identical either way.
        The element, anchor and code counts are checked against the
        container's ``count``; a mismatch raises :class:`ValueError`.
        """
        n, radius, anchor_code = struct.unpack_from("<QIB", body, 0)
        offset = struct.calcsize("<QIB")
        _check_length(n, count)
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        anchor_dtype = np.dtype(np.float64) if anchor_code else np.dtype(np.float32)
        (anchor_count,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        _check_anchors(anchor_count, n)
        anchors = np.frombuffer(body, dtype=anchor_dtype, count=anchor_count, offset=offset)
        offset += anchor_dtype.itemsize * anchor_count
        (huff_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        if codes is None:
            codes = self.huffman.decode(body[offset : offset + huff_len])
        offset += huff_len
        _check_code_count(codes.size, n - anchor_count)
        outliers, offset = LinearQuantizer.unpack_outliers(body, offset)

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
