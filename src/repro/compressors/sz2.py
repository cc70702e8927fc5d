"""SZ2-style error-bounded lossy compressor.

The real SZ2 (Liang et al., 2018) processes data in small blocks, predicts each
value with either a Lorenzo predictor or a per-block linear regression, chooses
the better predictor per block by its estimated cost, quantizes the prediction
error against the error bound, Huffman-encodes the quantization codes, and
finishes with a lossless pass (Zstd).

This reproduction keeps that pipeline with two documented substitutions.  The
sequential Lorenzo predictor (which consumes previously *decompressed*
neighbours) is replaced by a per-block constant (mean) predictor, so the whole
compressor is a handful of vectorized NumPy passes.  And the final lossless
pass is gone: the Huffman stage codes tuples of codes over their used range
(:mod:`repro.compressors.huffman`, HUF4), which reaches within ``1/k`` bit per
code of the codes' entropy and stores a compact code table, the two things
the lossless pass used to recover.  What HUF4 does not recover are long runs
of equal codes on smooth fields, which an order-0 code cannot see.  The
hybrid mean-vs-regression selection, the per-element error-bound guarantee
and the Huffman stage are faithful to SZ2's design.

Each tensor first picks its predictor (the body's predictor field):

* **hybrid** -- per block, the mean or the least-squares line, whichever has
  the smaller SSE, with a selector bit and float32 coefficients per block;
* **zero** -- every value quantized against zero, with no side fields;
* **reference grid** -- only when the caller supplies a reference array that
  the decoder holds too (a federated client's copy of the round's
  broadcast): the zero grid's index ``q = rint(x / 2 * bound)`` of each
  value minus the reference's index ``r`` on the same grid.  The decoder
  adds ``r`` back, so the reconstruction is the zero grid's bit for bit;
  only the codes change, and on a trained state near its broadcast most of
  them are 0.

Model weights are spiky (the paper's Fig. 2), so on them the block fits buy
no lower code entropy than plain quantization and the coefficients cost
about half a bit per value; on smooth fields the hybrid's codes are far
cheaper.  The encoder scores both candidates on the same blocks -- the whole
tensor when it fits one tile, else :data:`_SAMPLE_BLOCKS` evenly strided
whole blocks -- by estimated body bits: the codes' order-0 entropy and the
outliers scaled to the tensor, the size of a HUF4 code table over them,
and, for the hybrid, its selector and coefficient bits
(:func:`_estimated_bits`).  With a reference, the reference grid is priced
on the same blocks.  The cheapest estimate wins.  The rule is a
deterministic function of the values, the reference and the bound; the
decoder only reads the field.

The reference index ``r`` goes through the quantizer's own screens: a
reference value that the zero grid would store verbatim (non-finite, past
the radius, or reconstructing past the float64 range) takes ``r = 0``, and
the ragged last block is padded with the reference's final value, as the
tensor's is with its own.  A value that is an outlier on the zero grid stays
a verbatim outlier.  A value whose ``q - r`` leaves the radius takes the
same escape and stores its zero-grid reconstruction ``2 * bound * q`` as the
float64, so the decoder writes what the zero grid would.

Both directions walk the tensor in tiles of :data:`_TILE_BLOCKS` blocks, so
every NumPy pass touches a cache-sized slice and no full-size float64
prediction or work array exists.  Per hybrid tile the encoder computes the
block means once, fits the regression slope and intercept, rounds all
coefficients to float32, scores both block predictors with those float32
coefficients (the decoder sees nothing else), selects per block, builds the
chosen predictions in place and quantizes into the tensor's code array; the
decoder rebuilds a tile's predictions and dequantizes it straight into the
output dtype.  A zero tile is quantized, and dequantized, with no prediction
array at all.  Every per-row reduction and element-wise float64 operation is
the one the whole-array formulation runs, on the same values, so the bytes do
not depend on the tile size (``tests/sz2_reference.py`` keeps the whole-array
oracle of both modes).

Payload body layout (after the :class:`~repro.compressors.base.LossyCompressor`
header)::

    u32   block size
    u64   number of blocks
    u32   quantizer radius
    u64   element count
    u8    predictor (0 = hybrid, 1 = zero, 2 = reference grid)
    hybrid only:
      u64   selector byte count, selector bitmap (1 bit per block:
            0 = mean predictor, 1 = regression)
      u64   coefficient count, f32[] coefficients (1 per mean block,
            intercept and slope per regression block)
    u64   Huffman stream length, HUF4 stream of the quantization codes
    u64   outlier count, f64[] verbatim outliers

No lossless pass wraps the body.  An empty tensor is the 16-byte ``block
size, 0, radius`` prefix alone.

The decoder trusts no size in the body: before any field sizes an array it
checks ``block size >= 2``, ``blocks == ceil(count / block size)`` (so no
blocks only for an empty tensor), ``element count == count``, a predictor of
0, 1 or 2, for the reference grid a supplied reference of ``count`` values
in the header's dtype, for the hybrid ``ceil(blocks / 8)`` selector bytes
and one coefficient per block plus one per regression block, a Huffman
stream that declares ``blocks * block size`` codes (checked before the
stream sizes anything), one outlier per zero code, and that no byte follows
the outlier tail, where ``count`` comes from the container header.  Any mismatch raises
:class:`ValueError`.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from repro.compressors.base import ErrorBound, ErrorBoundMode, LossyCompressor
from repro.compressors.huffman import DEFAULT_CHUNK_TUPLES, HuffmanCoder
from repro.compressors.quantizer import LinearQuantizer, QuantizationResult

__all__ = ["SZ2Compressor"]

#: Blocks per tile of the encode and decode kernels.  A tile of 512 blocks of
#: 128 values is 64K float64 values (512 KB), so every per-tile pass stays in
#: cache.  Encode front-end seconds per pass over the ResNet-50 state's 58
#: weight tensors (23.5M values; 2-core host, median of 9 interleaved passes)
#: by tile size: 128 -> 0.404, 256 -> 0.373, 512 -> 0.390, 1024 -> 0.396,
#: 2048 -> 0.450.  128 to 1024 are level within this host's noise.
_TILE_BLOCKS = 512

#: The body's predictor field.  ``_HYBRID`` bodies carry a mean-or-regression
#: selector and float32 coefficients per block; ``_ZERO`` bodies quantize
#: every value against a zero prediction and carry neither; ``_REFERENCE``
#: bodies carry the zero grid's indices minus a reference's, which only a
#: decoder holding that reference can add back.
_HYBRID, _ZERO, _REFERENCE = 0, 1, 2

#: Whole blocks the predictor choice scores on a tensor larger than one tile.
#: Against scoring every block, over 117 multi-tile tensors (weights, delta
#: residuals, Miranda-like fields), 8 to 256 blocks all agree on every
#: choice.  On the 57 whose zero saving is under 0.2 of the hybrid's
#: estimate (the smallest is 0.042), the saving's worst error is 0.0151 at 8
#: and 16 blocks, 0.0098 at 32, 0.0049 at 64 and 0.0036 at 128; scoring
#: costs 0.29, 0.36, 0.58, 0.82 and 1.19 ms per tensor (2-core host, median
#: of 9 rounds).
_SAMPLE_BLOCKS = 64

#: The zero predictor must beat the hybrid's estimate by more than this many
#: bits: the estimator's 95th-percentile overstatement of zero's saving,
#: clamped at 0.  Against real bodies, on the 381 tensors of 128 to 65536
#: values scored whole (the float tensors of ``bench_utils``' trained-like
#: models and the 400-value Miranda-like slices, at REL 1e-2, 1e-3 and 1e-4),
#: the estimate *understates* zero's saving by 6.0 bytes at the 95th
#: percentile (median 16.7 bytes under, worst 25.8 bytes over).  Smooth fields
#: of 1000 to 65536 values are the estimate's blind spot: HUF4's tuples code
#: their correlated hybrid residuals below the order-0 entropy, so it
#: overstates zero's saving there by up to 3.2 KB, but the hybrid wins those
#: by far more.  Over all 477 tensors, no margin from 0 to 512 bits picks
#: zero where the hybrid body is smaller; 512 bits kept the hybrid on 162
#: tensors whose zero body was smaller (5.5 KB in all), 0 bits on 12 (132 B).
_ZERO_MARGIN_BITS = 0


class SZ2Compressor(LossyCompressor):
    """Blockwise hybrid- or zero-prediction error-bounded compressor (SZ2 style)."""

    name = "sz2"

    def __init__(self, error_bound: ErrorBound | float = 1e-2,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL,
                 block_size: int = 128, quantizer_radius: int = 32768,
                 entropy_chunk: int = DEFAULT_CHUNK_TUPLES) -> None:
        super().__init__(error_bound, mode)
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.block_size = int(block_size)
        self.quantizer = LinearQuantizer(quantizer_radius)
        # entropy_chunk caps the tuples per Huffman chunk
        self.huffman = HuffmanCoder(chunk_size=entropy_chunk)

    # ------------------------------------------------------------------
    def _compress_float1d(self, data: np.ndarray, abs_bound: float,
                          reference: "np.ndarray | None" = None) -> bytes:
        prefix, codes, suffix = self._body_parts(data, abs_bound, reference)
        if codes is None:
            return b"".join(prefix + suffix)
        huff = self.huffman.encode(codes)
        return b"".join([*prefix, struct.pack("<Q", len(huff)), huff, *suffix])

    def _body_parts(self, data: np.ndarray, abs_bound: float,
                    reference: "np.ndarray | None" = None
                    ) -> "tuple[list[bytes], np.ndarray | None, list[bytes]]":
        """Split the body into (pre-Huffman pieces, quantization
        codes, post-Huffman pieces).

        :meth:`_compress_float1d` Huffman-codes the codes between the two
        lists of pieces.  ``codes is None`` marks the empty-array escape (no
        embedded Huffman stream).  ``reference``, when given, is a flat
        array of ``data``'s size that makes the reference grid a candidate.
        """
        bs = self.block_size
        n = data.size
        n_blocks = -(-n // bs)
        head = struct.pack("<IQI", bs, n_blocks, self.quantizer.radius)
        if n == 0:
            return [head], None, []
        fit = _BlockFit(bs, min(_TILE_BLOCKS, n_blocks))
        use_regression = np.empty(n_blocks, dtype=bool)
        first_coef = np.empty(n_blocks, dtype=np.float32)  # mean or intercept
        slope_coef = np.empty(n_blocks, dtype=np.float32)
        codes = np.empty(n_blocks * bs, dtype=np.int64)

        # Score the predictors on the same blocks: a one-tile tensor whole
        # (so the winner's codes are the body's), a larger one on
        # _SAMPLE_BLOCKS evenly strided whole blocks.
        whole = n_blocks <= _TILE_BLOCKS
        ref_blocks = None
        if whole:
            blocks = next(_tiles(data, bs))[2]
            if reference is not None:
                ref_blocks = next(_tiles(reference, bs))[2]
            sel, first, slope, sample_codes = use_regression, first_coef, slope_coef, codes
        else:
            stride = (n // bs) // _SAMPLE_BLOCKS * bs
            rows = np.arange(0, _SAMPLE_BLOCKS * stride, stride)[:, None] + np.arange(bs)
            blocks = data[rows]
            if reference is not None:
                ref_blocks = reference[rows]
            sel = np.empty(_SAMPLE_BLOCKS, dtype=bool)
            first, slope = np.empty((2, _SAMPLE_BLOCKS), dtype=np.float32)
            sample_codes = None
        pred = fit.predict(blocks, sel, first, slope)
        hybrid = self.quantizer.quantize(blocks.ravel(), pred.ravel(), abs_bound,
                                         codes=sample_codes)
        zero = self.quantizer.quantize(blocks.ravel(), None, abs_bound)
        scale = n_blocks / blocks.shape[0]
        side = n_blocks * (1 + 32) + 32 * scale * int(np.count_nonzero(sel))
        hybrid_bits = _estimated_bits(hybrid, scale) + side
        zero_bits = _estimated_bits(zero, scale) + _ZERO_MARGIN_BITS
        predictor = _ZERO if zero_bits < hybrid_bits else _HYBRID
        candidates = {_HYBRID: hybrid, _ZERO: zero}
        if ref_blocks is not None:
            candidates[_REFERENCE] = _recode(zero, _reference_index(
                self.quantizer, ref_blocks.ravel(), abs_bound), self.quantizer.radius)
            if _estimated_bits(candidates[_REFERENCE], scale) < min(zero_bits, hybrid_bits):
                predictor = _REFERENCE

        if whole:
            winner = candidates[predictor]
            codes, outliers = winner.codes, [winner.outliers]
        else:
            outliers = []
            ref_tiles = _tiles(reference, bs) if predictor == _REFERENCE else None
            for b0, b1, tile in _tiles(data, bs):
                pred = None if predictor != _HYBRID else fit.predict(
                    tile, use_regression[b0:b1], first_coef[b0:b1], slope_coef[b0:b1]).ravel()
                quant = self.quantizer.quantize(tile.ravel(), pred, abs_bound,
                                                codes=codes[b0 * bs : b1 * bs])
                if ref_tiles is not None:
                    index = _reference_index(self.quantizer, next(ref_tiles)[2].ravel(),
                                             abs_bound)
                    quant = _recode(quant, index, self.quantizer.radius, out=quant.codes)
                outliers.append(quant.outliers)
        suffix = [LinearQuantizer.pack_outliers(np.concatenate(outliers))]
        if predictor != _HYBRID:
            return [head, struct.pack("<QB", n, predictor)], codes, suffix

        # Coefficients are stored in block order: one float for mean blocks,
        # two floats (intercept, slope) for regression blocks.
        position = _coefficient_positions(use_regression)
        coefficients = np.empty(n_blocks + int(np.count_nonzero(use_regression)),
                                dtype=np.float32)
        coefficients[position] = first_coef
        coefficients[position[use_regression] + 1] = slope_coef[use_regression]
        selector_bits = np.packbits(use_regression)
        prefix = [head, struct.pack("<QB", n, _HYBRID),
                  struct.pack("<Q", selector_bits.size) + selector_bits.tobytes(),
                  struct.pack("<Q", coefficients.size) + coefficients.tobytes()]
        return prefix, codes, suffix

    # ------------------------------------------------------------------
    def _decompress_float1d(self, body: bytes, count: int, abs_bound: float,
                            dtype: np.dtype,
                            reference: "np.ndarray | None" = None) -> np.ndarray:
        """Reconstruct from the body.

        Every geometry field, the Huffman stream's symbol count included, is
        checked against the container's ``count`` before it sizes anything,
        and the body must be consumed exactly; any mismatch raises
        :class:`ValueError`.  A reference-grid body also needs ``reference``
        to hold ``count`` values of ``dtype``; hybrid and zero bodies ignore
        it.
        """
        block_size, n_blocks, radius = struct.unpack_from("<IQI", body, 0)
        offset = 16
        _check_geometry(block_size, n_blocks, count)
        if n_blocks == 0:
            _expect_consumed(body, offset)
            return np.zeros(0, dtype=dtype)
        original_len, predictor = struct.unpack_from("<QB", body, offset)
        offset += 9
        if original_len != count:
            raise ValueError(f"corrupt sz2 body: length {original_len} does not "
                             f"match the header's {count} elements")
        predictor = _check_predictor(predictor)
        if predictor == _REFERENCE:
            reference = _check_reference(reference, count, dtype)
        if predictor == _HYBRID:
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
            coefficients = np.frombuffer(body, dtype=np.float32, count=coef_count,
                                         offset=offset)
            offset += 4 * coef_count
        (huff_len,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        codes = self.huffman.decode(
            memoryview(body)[offset : offset + huff_len],
            check_count=functools.partial(_check_code_count, n_blocks=n_blocks,
                                          block_size=block_size))
        offset += huff_len
        _check_code_count(codes.size, n_blocks, block_size)
        outliers, offset = LinearQuantizer.unpack_outliers(body, offset)
        _expect_consumed(body, offset)

        # Dequantize each tile straight into the output dtype.  A hybrid
        # tile's predictions are rebuilt from the stored coefficients first.
        # Mean blocks get slope 0, so `mean + 0 * idx` is the mean itself (a
        # -0.0 mean turns +0.0, which `prediction + 2 * bound * q` cannot tell
        # apart for a bound > 0).
        if predictor == _HYBRID:
            position = _coefficient_positions(use_regression)
            first = coefficients[position].astype(np.float64)
            slope = np.zeros(n_blocks)
            slope[use_regression] = coefficients[position[use_regression] + 1]
            idx = np.arange(block_size, dtype=np.float64)
            pred = np.empty((min(_TILE_BLOCKS, n_blocks), block_size))
        quantizer = LinearQuantizer(radius)
        ref_tiles = _tiles(reference, block_size) if predictor == _REFERENCE else None
        out = np.empty(n_blocks * block_size, dtype=dtype)
        used = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for b0 in range(0, n_blocks, _TILE_BLOCKS):
                b1 = min(b0 + _TILE_BLOCKS, n_blocks)
                lo, hi = b0 * block_size, b1 * block_size
                p = None
                if predictor == _HYBRID:
                    p = pred[: b1 - b0]
                    np.multiply(slope[b0:b1, None], idx, out=p)
                    np.add(first[b0:b1, None], p, out=p)
                    p = p.ravel()
                tile_codes = codes[lo:hi]
                escapes = tile_codes == 0
                n_out = int(np.count_nonzero(escapes))
                if ref_tiles is not None:
                    # back onto the zero grid; escapes keep code 0
                    tile_codes = tile_codes + _reference_index(
                        quantizer, next(ref_tiles)[2].ravel(), abs_bound)
                    tile_codes[escapes] = 0
                quantizer.dequantize(tile_codes, outliers[used : used + n_out], p,
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


class _BlockFit:
    """The hybrid predictor's block fits, with scratch for ``rows`` blocks."""

    def __init__(self, block_size: int, rows: int) -> None:
        self.idx = np.arange(block_size, dtype=np.float64)
        self.idx_mean = self.idx.mean()
        self.centred = self.idx - self.idx_mean
        self.idx_var = float((self.centred ** 2).sum())
        self.work = np.empty((rows, block_size))
        self.pred = np.empty((rows, block_size))
        self.mean, self.slope, self.intercept, self.mean_sse, self.reg_sse = np.empty((5, rows))

    def predict(self, tile: np.ndarray, use_regression: np.ndarray,
                first: np.ndarray, slope: np.ndarray) -> np.ndarray:
        """Fit and select each row of ``tile``; return the chosen predictions.

        The selection goes to ``use_regression``, each row's mean or
        intercept to ``first`` and its slope to ``slope`` (float32, as
        stored).  The returned view of the scratch is valid until the next
        call.
        """
        r = tile.shape[0]
        w, p = self.work[:r], self.pred[:r]
        m, s, i = self.mean[:r], self.slope[:r], self.intercept[:r]
        # Values near the float64 extremes overflow the float32 coefficient
        # cast and the SSE accumulation to inf; that only deselects the
        # affected predictor (and the quantizer's outlier escape covers the
        # residuals), so the overflow is expected rather than a fault.
        with np.errstate(over="ignore", invalid="ignore"):
            # least-squares fit y = i + s * idx per block
            np.add.reduce(tile, axis=1, out=m)
            np.divide(m, tile.shape[1], out=m)
            np.subtract(tile, m[:, None], out=w)
            np.multiply(w, self.centred, out=w)
            np.add.reduce(w, axis=1, out=s)
            np.divide(s, self.idx_var, out=s)
            np.multiply(s, self.idx_mean, out=i)
            np.subtract(m, i, out=i)
            # Both predictors are scored with the float32 coefficients the
            # decoder will see, so the chosen predictions (and with them the
            # error bound) survive serialization exactly.
            m32, i32, s32 = m.astype(np.float32), i.astype(np.float32), s.astype(np.float32)
            m64 = m32.astype(np.float64)[:, None]
            np.subtract(tile, m64, out=w)
            np.square(w, out=w)
            np.add.reduce(w, axis=1, out=self.mean_sse[:r])
            np.multiply(s32.astype(np.float64)[:, None], self.idx, out=p)
            np.add(i32.astype(np.float64)[:, None], p, out=p)
            np.subtract(tile, p, out=w)
            np.square(w, out=w)
            np.add.reduce(w, axis=1, out=self.reg_sse[:r])
            sel = np.less(self.reg_sse[:r], self.mean_sse[:r], out=use_regression)
            np.copyto(p, m64, where=~sel[:, None])
        first[:] = np.where(sel, i32, m32)
        slope[:] = s32
        return p


def _tiles(data: np.ndarray, block_size: int):
    """Yield ``(first block, end block, tile)`` over ``data`` in tiles of
    :data:`_TILE_BLOCKS` blocks; the ragged last block is padded with the
    final value."""
    n = data.size
    n_blocks = -(-n // block_size)
    for b0 in range(0, n_blocks, _TILE_BLOCKS):
        b1 = min(b0 + _TILE_BLOCKS, n_blocks)
        lo, hi = b0 * block_size, b1 * block_size
        if hi <= n:
            tile = data[lo:hi]
        else:
            tile = np.empty(hi - lo)
            tile[: n - lo] = data[lo:]
            tile[n - lo:] = data[-1]
        yield b0, b1, tile.reshape(b1 - b0, block_size)


def _estimated_bits(quant: QuantizationResult, scale: float) -> float:
    """Estimated body bits of one candidate from its sample's codes.

    The codes cost their order-0 entropy and each outlier its 64 bits, both
    scaled by ``scale`` to the whole tensor.  The code table is HUF4's for
    single codes: a bitmap byte per 8 codes of the used range and a 4-bit
    length per used code.  Its cost grows with how sparsely the codes
    spread, which decides small tensors whose codes are nearly all distinct.
    """
    lowest = int(quant.codes.min())
    counts = np.bincount(quant.codes - lowest)
    freq = counts[counts > 0]
    total = quant.codes.size
    entropy = float(total * np.log2(total) - np.dot(freq, np.log2(freq)))
    table = 8 * -(-counts.size // 8) + 4 * freq.size
    return scale * (entropy + 64 * quant.outliers.size) + table


def _reference_index(quantizer: LinearQuantizer, reference: np.ndarray,
                     abs_bound: float) -> np.ndarray:
    """Each reference value's zero-grid index ``rint(ref / 2 * bound)``.

    The index goes through the quantizer's own screens: a value that the
    zero grid would store verbatim (non-finite, past the radius, or
    reconstructing past the float64 range) takes index 0.
    """
    codes = quantizer.quantize(reference, None, abs_bound).codes
    np.subtract(codes, quantizer.radius + 1, out=codes, where=codes != 0)
    return codes


def _recode(zero: QuantizationResult, index: np.ndarray, radius: int,
            out: "np.ndarray | None" = None) -> QuantizationResult:
    """A zero-grid quantization recoded against the reference ``index``.

    The code ``q + radius + 1`` becomes ``q - index + radius + 1``.  A
    zero-grid outlier stays a verbatim outlier, and a value whose
    ``q - index`` leaves the radius escapes with code 0 and its zero-grid
    reconstruction ``2 * bound * q`` as the outlier, so the decoder writes
    what the zero grid would.  ``out`` may be ``zero.codes`` itself.
    """
    escape = zero.codes == 0
    codes = np.subtract(zero.codes, index, out=out)
    escape |= codes < 1
    escape |= codes > 2 * radius + 1
    codes[escape] = 0
    return QuantizationResult(codes=codes, outliers=zero.reconstructed[escape],
                              reconstructed=zero.reconstructed)


def _check_predictor(predictor: int) -> int:
    if predictor not in (_HYBRID, _ZERO, _REFERENCE):
        raise ValueError(f"corrupt sz2 body: unknown predictor {predictor}")
    return predictor


def _check_reference(reference: "np.ndarray | None", count: int,
                     dtype: np.dtype) -> np.ndarray:
    """The flat reference a reference-grid body decodes against."""
    if reference is None:
        raise ValueError("sz2 body is coded against a reference grid, but no "
                         "reference was supplied")
    reference = np.asarray(reference)
    if reference.size != count or reference.dtype != dtype:
        raise ValueError(f"sz2 body is coded against a reference of {count} "
                         f"{dtype} values, but the supplied reference holds "
                         f"{reference.size} {reference.dtype} values")
    return reference.ravel()
