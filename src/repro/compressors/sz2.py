"""SZ2-style error-bounded lossy compressor.

The real SZ2 (Liang et al., 2018) processes data in small blocks, predicts each
value with either a Lorenzo predictor or a per-block linear regression, chooses
the better predictor per block, quantizes the prediction error against the
error bound, Huffman-encodes the quantization codes, and finishes with a
lossless pass (Zstd).

This reproduction keeps the same pipeline with one documented substitution: the
sequential Lorenzo predictor (which consumes previously *decompressed*
neighbours) is replaced by a per-block constant (mean) predictor so the whole
compressor is a handful of vectorized NumPy passes.  The hybrid
mean-vs-regression selection, the per-element error-bound guarantee, the
Huffman stage, and the final lossless stage are all faithful to SZ2's design.

Both directions walk the tensor in tiles of :data:`_TILE_BLOCKS` blocks, so
every NumPy pass touches a cache-sized slice and no full-size float64
prediction or work array exists.  Per tile the encoder computes the block
means once, fits the regression slope and intercept, rounds all coefficients
to float32, scores both predictors with those float32 coefficients (the
decoder sees nothing else), selects per block, builds the chosen predictions
in place and quantizes into the tensor's code array; the decoder rebuilds a
tile's predictions and dequantizes it straight into the output dtype.  Every
per-row reduction and element-wise float64 operation is the one the
whole-array formulation runs, on the same values, so the bytes do not depend
on the tile size (``tests/sz2_reference.py`` keeps the whole-array oracle).

Payload body layout (after the :class:`~repro.compressors.base.LossyCompressor`
header)::

    u32   block size
    u64   number of blocks
    u32   quantizer radius
    u64   element count
    u64   selector byte count, selector bitmap (1 bit per block:
          0 = mean predictor, 1 = regression)
    u64   coefficient count, f32[] coefficients (1 per mean block,
          intercept and slope per regression block)
    u64   Huffman stream length, Huffman-coded quantization codes
    u64   outlier count, f64[] verbatim outliers

The entire body is then passed through the configured lossless backend.  An
empty tensor is the 16-byte ``block size, 0, radius`` prefix alone.

The decoder trusts no size in the body: before any field sizes an array it
checks ``block size >= 2``, ``blocks == ceil(count / block size)`` (so no
blocks only for an empty tensor), ``element count == count``, ``ceil(blocks /
8)`` selector bytes, one coefficient per block plus one per regression block,
``blocks * block size`` decoded codes, one outlier per zero code, and that no
byte follows the outlier tail, where ``count`` comes from the container
header.  Any mismatch raises :class:`ValueError`.
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
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.streaming import SZStreamDecoder, SZStreamEncoder
from repro.utils.bitstream import StreamBuffer

__all__ = ["SZ2Compressor"]

#: Blocks per tile of the encode and decode kernels.  A tile of 512 blocks of
#: 128 values is 64K float64 values (512 KB), so every per-tile pass stays in
#: cache.  Encode front-end seconds per pass over the ResNet-50 state's 58
#: weight tensors (23.5M values; 2-core host, median of 9 interleaved passes)
#: by tile size: 128 -> 0.404, 256 -> 0.373, 512 -> 0.390, 1024 -> 0.396,
#: 2048 -> 0.450.  128 to 1024 are level within this host's noise.
_TILE_BLOCKS = 512


class SZ2Compressor(LossyCompressor):
    """Blockwise hybrid-prediction error-bounded compressor (SZ2 style)."""

    name = "sz2"

    def __init__(self, error_bound: ErrorBound | float = 1e-2,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL,
                 block_size: int = 128, quantizer_radius: int = 32768,
                 lossless_backend: str | LosslessCodec = "zlib",
                 entropy_chunk: int = DEFAULT_CHUNK_SYMBOLS,
                 entropy_workers: int | None = 1,
                 entropy_backend: str = "thread") -> None:
        super().__init__(error_bound, mode)
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.block_size = int(block_size)
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

        Shared by the batch :meth:`_compress_float1d` and the streaming
        :class:`~repro.compressors.streaming.SZStreamEncoder`, which entropy-
        codes the returned symbols through a
        :class:`~repro.compressors.huffman.ChunkBandProducer` so both paths
        produce byte-identical bodies.  ``codes is None`` marks the
        empty-array escape (no embedded Huffman stream).
        """
        bs = self.block_size
        n = data.size
        if n == 0:
            return [struct.pack("<IQI", bs, 0, self.quantizer.radius)], None, []
        n_blocks = -(-n // bs)
        idx = np.arange(bs, dtype=np.float64)
        idx_mean = idx.mean()
        centred = idx - idx_mean
        idx_var = float((centred ** 2).sum())

        codes = np.empty(n_blocks * bs, dtype=np.int64)
        use_regression = np.empty(n_blocks, dtype=bool)
        first_coef = np.empty(n_blocks, dtype=np.float32)  # mean or intercept
        slope_coef = np.empty(n_blocks, dtype=np.float32)
        outliers: list[np.ndarray] = []
        rows = min(_TILE_BLOCKS, n_blocks)
        work = np.empty((rows, bs))
        pred = np.empty((rows, bs))
        mean, slope, intercept, mean_sse, reg_sse = np.empty((5, rows))
        # Values near the float64 extremes overflow the float32 coefficient
        # cast and the SSE accumulation to inf; that only deselects the
        # affected predictor (and the quantizer's outlier escape covers the
        # residuals), so the overflow is expected rather than a fault.
        with np.errstate(over="ignore", invalid="ignore"):
            for b0 in range(0, n_blocks, _TILE_BLOCKS):
                b1 = min(b0 + _TILE_BLOCKS, n_blocks)
                r = b1 - b0
                lo, hi = b0 * bs, b1 * bs
                if hi <= n:
                    tile = data[lo:hi].reshape(r, bs)
                else:
                    # the ragged last block is padded with the final value
                    tile = np.empty(hi - lo)
                    tile[: n - lo] = data[lo:]
                    tile[n - lo:] = data[-1]
                    tile = tile.reshape(r, bs)
                w, p = work[:r], pred[:r]
                m, s, i = mean[:r], slope[:r], intercept[:r]
                # least-squares fit y = i + s * idx per block
                np.add.reduce(tile, axis=1, out=m)
                np.divide(m, bs, out=m)
                np.subtract(tile, m[:, None], out=w)
                np.multiply(w, centred, out=w)
                np.add.reduce(w, axis=1, out=s)
                np.divide(s, idx_var, out=s)
                np.multiply(s, idx_mean, out=i)
                np.subtract(m, i, out=i)
                # Both predictors are scored with the float32 coefficients the
                # decoder will see, so the chosen predictions (and with them
                # the error bound) survive serialization exactly.
                m32, i32, s32 = m.astype(np.float32), i.astype(np.float32), s.astype(np.float32)
                m64 = m32.astype(np.float64)[:, None]
                np.subtract(tile, m64, out=w)
                np.square(w, out=w)
                np.add.reduce(w, axis=1, out=mean_sse[:r])
                np.multiply(s32.astype(np.float64)[:, None], idx, out=p)
                np.add(i32.astype(np.float64)[:, None], p, out=p)
                np.subtract(tile, p, out=w)
                np.square(w, out=w)
                np.add.reduce(w, axis=1, out=reg_sse[:r])
                sel = np.less(reg_sse[:r], mean_sse[:r], out=use_regression[b0:b1])
                np.copyto(p, m64, where=~sel[:, None])
                first_coef[b0:b1] = np.where(sel, i32, m32)
                slope_coef[b0:b1] = s32
                quant = self.quantizer.quantize(tile.ravel(), p.ravel(), abs_bound,
                                                codes=codes[lo:hi])
                outliers.append(quant.outliers)

        # Coefficients are stored in block order: one float for mean blocks,
        # two floats (intercept, slope) for regression blocks.
        position = _coefficient_positions(use_regression)
        coefficients = np.empty(n_blocks + int(np.count_nonzero(use_regression)),
                                dtype=np.float32)
        coefficients[position] = first_coef
        coefficients[position[use_regression] + 1] = slope_coef[use_regression]
        selector_bits = np.packbits(use_regression)

        prefix = [struct.pack("<IQI", bs, n_blocks, self.quantizer.radius),
                  struct.pack("<Q", n),
                  struct.pack("<Q", selector_bits.size) + selector_bits.tobytes(),
                  struct.pack("<Q", coefficients.size) + coefficients.tobytes()]
        suffix = [LinearQuantizer.pack_outliers(np.concatenate(outliers))]
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

        Returns ``(start, length, check_count)`` once the pre-Huffman fields
        have arrived, ``None`` while more bytes are needed.  Length 0 means
        the body has no Huffman stream (the empty-array escape).  The block
        geometry is checked against the container's ``count`` as soon as it
        arrives, and ``check_count`` rejects any symbol count but the
        ``blocks * block size`` codes that geometry implies; both raise the
        batch decode's errors.  The remaining fields are validated by the
        batch parser at finish.
        """
        if not plain.has(16):
            return None
        block_size, n_blocks, _ = struct.unpack("<IQI", plain.view(0, 16))
        _check_geometry(block_size, n_blocks, count)
        if n_blocks == 0:
            return 16, 0, None
        offset = 24  # past <IQI> and original_len
        if not plain.has(8, offset):
            return None
        (sel_len,) = struct.unpack("<Q", plain.view(offset, offset + 8))
        offset += 8 + sel_len
        if not plain.has(8, offset):
            return None
        (coef_count,) = struct.unpack("<Q", plain.view(offset, offset + 8))
        offset += 8 + 4 * coef_count
        if not plain.has(8, offset):
            return None
        (huff_len,) = struct.unpack("<Q", plain.view(offset, offset + 8))
        return offset + 8, huff_len, functools.partial(
            _check_code_count, n_blocks=n_blocks, block_size=block_size)

    def _decode_plain_body(self, body: bytes, count: int, abs_bound: float,
                           dtype: np.dtype,
                           codes: "np.ndarray | None" = None) -> np.ndarray:
        """Reconstruct from the decompressed body.

        ``codes`` carries pre-decoded Huffman symbols from the streaming
        consumer; ``None`` (the batch path) decodes them here.  Both sources
        run the same kernels, so the output is bit-identical either way.

        Every geometry field is checked against the container's ``count``
        before it sizes anything, and the body must be consumed exactly;
        any mismatch raises :class:`ValueError`.
        """
        block_size, n_blocks, radius = struct.unpack_from("<IQI", body, 0)
        offset = 16
        _check_geometry(block_size, n_blocks, count)
        if n_blocks == 0:
            _expect_consumed(body, offset)
            return np.zeros(0, dtype=dtype)
        (original_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        if original_len != count:
            raise ValueError(f"corrupt sz2 body: length {original_len} does not "
                             f"match the header's {count} elements")
        (sel_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        if sel_len != -(-n_blocks // 8):
            raise ValueError(f"corrupt sz2 body: {sel_len} selector bytes for "
                             f"{n_blocks} blocks")
        selector_bits = np.frombuffer(body, dtype=np.uint8, count=sel_len, offset=offset)
        offset += sel_len
        use_regression = np.unpackbits(selector_bits, count=n_blocks).astype(bool)
        (coef_count,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        n_regression = int(np.count_nonzero(use_regression))
        if coef_count != n_blocks + n_regression:
            raise ValueError(f"corrupt sz2 body: {coef_count} coefficients for "
                             f"{n_blocks} blocks ({n_regression} regression)")
        coefficients = np.frombuffer(body, dtype=np.float32, count=coef_count, offset=offset)
        offset += 4 * coef_count
        (huff_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        if codes is None:
            codes = self.huffman.decode(body[offset : offset + huff_len])
        offset += huff_len
        _check_code_count(codes.size, n_blocks, block_size)
        outliers, offset = LinearQuantizer.unpack_outliers(body, offset)
        _expect_consumed(body, offset)

        # Rebuild each tile's predictions from the stored coefficients and
        # dequantize it straight into the output dtype.  Mean blocks get slope
        # 0, so `mean + 0 * idx` is the mean itself (a -0.0 mean turns +0.0,
        # which `prediction + 2 * bound * q` cannot tell apart for a bound > 0).
        position = _coefficient_positions(use_regression)
        first = coefficients[position].astype(np.float64)
        slope = np.zeros(n_blocks)
        slope[use_regression] = coefficients[position[use_regression] + 1]
        idx = np.arange(block_size, dtype=np.float64)
        quantizer = LinearQuantizer(radius)
        out = np.empty(n_blocks * block_size, dtype=dtype)
        pred = np.empty((min(_TILE_BLOCKS, n_blocks), block_size))
        used = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for b0 in range(0, n_blocks, _TILE_BLOCKS):
                b1 = min(b0 + _TILE_BLOCKS, n_blocks)
                lo, hi = b0 * block_size, b1 * block_size
                p = pred[: b1 - b0]
                np.multiply(slope[b0:b1, None], idx, out=p)
                np.add(first[b0:b1, None], p, out=p)
                tile_codes = codes[lo:hi]
                n_out = int(np.count_nonzero(tile_codes == 0))
                quantizer.dequantize(tile_codes, outliers[used : used + n_out], p.ravel(),
                                     abs_bound, out=out[lo:hi])
                used += n_out
        if used != outliers.size:
            raise ValueError(f"corrupt sz2 body: {outliers.size} outliers for "
                             f"{used} escape codes")
        return out[:count]


def _check_geometry(block_size: int, n_blocks: int, count: int) -> None:
    """Raise unless ``n_blocks`` blocks of ``block_size`` hold ``count`` elements."""
    if block_size < 2:
        raise ValueError(f"corrupt sz2 body: block size {block_size} < 2")
    if n_blocks != -(-count // block_size):
        raise ValueError(f"corrupt sz2 body: {n_blocks} blocks of {block_size} "
                         f"cannot hold {count} elements")


def _check_code_count(n_codes: int, n_blocks: int, block_size: int) -> None:
    if n_codes != n_blocks * block_size:
        raise ValueError(f"corrupt sz2 body: {n_codes} codes for "
                         f"{n_blocks} blocks of {block_size}")


def _coefficient_positions(use_regression: np.ndarray) -> np.ndarray:
    """Index of each block's first coefficient in the packed coefficient array
    (mean blocks store one float, regression blocks two)."""
    return np.arange(use_regression.size) + np.cumsum(use_regression) - use_regression


def _expect_consumed(body: bytes, offset: int) -> None:
    if offset != len(body):
        raise ValueError(f"corrupt sz2 body: {len(body) - offset} bytes after "
                         f"the last field")
