"""SZx-style ultrafast error-bounded lossy compressor.

SZx (Yu et al., HPDC'22) trades compression ratio for speed: the data is split
into fixed-size blocks; a block whose value spread fits inside the error bound
becomes a *constant block* storing only its midpoint, and the remaining blocks
store their values with truncated precision via cheap bit-wise operations.

This reproduction keeps both mechanisms and stays fully vectorized:

* constant blocks: ``(max - min) / 2 <= eps`` → store the float64 midpoint;
* non-constant blocks: values are offset by the global minimum of the
  non-constant data and uniformly quantized with step ``2 * eps``; a single
  shared bit width (the smallest width that covers the largest code) is used,
  so every 8 codes fill exactly ``width`` bytes and the bit-packing is a fixed
  pattern of shifts per group (:func:`_pack_fixed`).  This is the "bit-wise
  truncation" stage expressed against a fixed-point representation.

Both paths honour the per-element absolute error bound.  The paper observed
SZx destroying model accuracy in their FL runs; our reimplementation preserves
the bound, so that particular finding does not reproduce (see EXPERIMENTS.md),
but the speed-vs-ratio positioning does.

Payload body layout::

    u32   block size
    u64   element count
    u8    bit width for non-constant values (255 = verbatim float64 escape)
    f64   offset (minimum of non-constant values)
    bytes constant-block bitmap
    f64[] constant block midpoints
    u64   packed-bits length, packed quantized values
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import BodyReader, ErrorBound, ErrorBoundMode, LossyCompressor
from repro.compressors.predictors import block_pad

__all__ = ["SZxCompressor"]

_FIXED = struct.Struct("<IQBd")  # block size, element count, bit width, offset

#: reserved bit-width flag: non-constant values stored verbatim as float64
#: (taken when the requested bound would need > 44-bit quantization codes,
#: where float64 quotient rounding could itself break the guarantee)
_VERBATIM_WIDTH = 255


class SZxCompressor(LossyCompressor):
    """Constant-block + fixed-point truncation compressor (SZx style)."""

    name = "szx"

    def __init__(self, error_bound: ErrorBound | float = 1e-2,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL,
                 block_size: int = 128) -> None:
        super().__init__(error_bound, mode)
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.block_size = int(block_size)

    # ------------------------------------------------------------------
    def _compress_float1d(self, data: np.ndarray, abs_bound: float) -> bytes:
        n = data.size
        if n == 0:
            return _FIXED.pack(self.block_size, 0, 0, 0.0)

        blocks, original_len = block_pad(data, self.block_size)
        n_blocks = blocks.shape[0]
        block_min = blocks.min(axis=1)
        block_max = blocks.max(axis=1)
        with np.errstate(over="ignore"):
            # max - min overflows to inf for mixed-sign near-float64-max
            # blocks; inf > 2*bound simply routes them to the non-constant
            # path (whose verbatim escape keeps the bound)
            constant = (block_max - block_min) <= 2.0 * abs_bound
            # midpoints are kept in float64: float32 rounding could push the
            # reconstruction error just past a tight absolute bound.  Computed
            # as min + spread/2 (never `(max + min) / 2`, whose sum overflows
            # to inf for near-float64-max magnitudes) the result always lies
            # in [min, max] and stays finite for constant blocks.
            midpoints = block_min + 0.5 * (block_max - block_min)

        nonconst_values = blocks[~constant].ravel()
        if nonconst_values.size:
            offset_value = float(nonconst_values.min())
            with np.errstate(over="ignore", invalid="ignore"):
                code_floats = np.floor((nonconst_values - offset_value) / (2.0 * abs_bound) + 0.5)
            # Beyond ~2^44 the float64 quotient itself carries more rounding
            # error than the bound allows (and a uint64 cast would overflow
            # silently past 2^64): escape to verbatim float64 storage, flagged
            # by the reserved width 255.
            if not np.all(np.isfinite(code_floats)) or float(code_floats.max()) >= 2.0 ** 44:
                width = _VERBATIM_WIDTH
                packed = np.frombuffer(nonconst_values.astype(np.float64).tobytes(), dtype=np.uint8)
            else:
                codes = code_floats.astype(np.uint64)
                max_code = int(codes.max()) if codes.size else 0
                width = max(int(max_code).bit_length(), 1)
                packed = _pack_fixed(codes, width)
        else:
            offset_value = 0.0
            width = 0
            packed = np.zeros(0, dtype=np.uint8)

        bitmap = np.packbits(constant.astype(np.uint8))
        const_mid = midpoints[constant]

        body = _FIXED.pack(self.block_size, original_len, width, offset_value)
        body += struct.pack("<Q", n_blocks)
        body += struct.pack("<Q", bitmap.size) + bitmap.tobytes()
        body += struct.pack("<Q", const_mid.size) + const_mid.tobytes()
        body += struct.pack("<Q", packed.size) + packed.tobytes()
        return body

    # ------------------------------------------------------------------
    def _decompress_float1d(self, body: bytes, count: int, abs_bound: float,
                            dtype: np.dtype) -> np.ndarray:
        reader = BodyReader(body, "SZx")
        block_size, original_len, width, offset_value = reader.fields(_FIXED)
        if original_len != count:
            raise reader.corrupt(f"body holds {original_len} elements but the "
                                 f"container declares {count}")
        if block_size < 2:
            raise reader.corrupt(f"block size {block_size}")
        if count == 0:
            reader.finish()
            return np.zeros(0, dtype=np.float64)
        n_blocks = -(-count // block_size)
        reader.length(n_blocks, "block count")
        bitmap = reader.section(np.uint8, -(-n_blocks // 8), "constant-block bitmap byte")
        constant = np.unpackbits(bitmap, count=n_blocks).astype(bool)
        midpoints = reader.section(np.float64, int(constant.sum()), "midpoint")
        n_nonconst = n_blocks - midpoints.size
        total = n_nonconst * block_size
        if n_nonconst == 0 and width == 0:
            packed_len = 0
        elif n_nonconst and width == _VERBATIM_WIDTH:
            packed_len = 8 * total
        elif n_nonconst and 1 <= width <= 64:
            # a shift count past 63 would silently wrap in numpy's uint64 ops
            packed_len = -(-total * width // 8)
        else:
            raise reader.corrupt(f"bit width {width} for {n_nonconst} non-constant blocks")
        packed = reader.section(np.uint8, packed_len, "packed byte")
        reader.finish()

        if n_nonconst:
            if width == _VERBATIM_WIDTH:
                decoded = np.frombuffer(packed.tobytes(), dtype=np.float64, count=total)
            else:
                codes = _unpack_fixed(packed, width, total)
                decoded = offset_value + codes.astype(np.float64) * 2.0 * abs_bound
            decoded = decoded.reshape(n_nonconst, block_size)
        # whole blocks fill a 2-D view of the output and a short last block
        # is filled on its own, so no padding is allocated: a block size far
        # past the element count costs nothing for a constant block
        values = np.empty(count, dtype=np.float64)
        full = count // block_size
        grid = values[:full * block_size].reshape(full, block_size)
        const_rows = np.flatnonzero(constant)
        grid[const_rows[const_rows < full]] = midpoints[const_rows < full, None]
        if n_nonconst:
            live_rows = np.flatnonzero(~constant)
            grid[live_rows[live_rows < full]] = decoded[live_rows < full]
        if full < n_blocks:
            values[full * block_size:] = midpoints[-1] if constant[-1] \
                else decoded[-1, :count - full * block_size]
        return values


def _byte_spans(width: int):
    """``(code, byte, shift)`` for every byte of an 8-code group a code touches.

    Code ``i`` of a group occupies bits ``[i * width, (i + 1) * width)``
    (MSB-first), so group byte ``j`` holds the code shifted right by
    ``(i + 1) * width - 8 * (j + 1)`` (left when that is negative).
    """
    for i in range(8):
        for j in range(i * width // 8, ((i + 1) * width - 1) // 8 + 1):
            yield i, j, (i + 1) * width - 8 * (j + 1)


def _pack_fixed(codes: np.ndarray, width: int) -> np.ndarray:
    """Pack ``uint64`` codes of ``width`` bits MSB-first, zero-padded.

    Byte for byte what :func:`numpy.packbits` makes of the codes' bits, but
    8 codes always fill ``width`` bytes, so each group byte is an OR of at
    most a few shifted codes: a fixed set of whole-column shifts instead of
    an ``n x width`` bit matrix.
    """
    groups = -(-codes.size // 8)
    lanes = np.zeros((groups, 8), dtype=np.uint64)
    lanes.reshape(-1)[:codes.size] = codes
    lanes = np.ascontiguousarray(lanes.T)
    out = np.zeros((width, groups), dtype=np.uint8)
    part = np.empty(groups, dtype=np.uint64)
    for i, j, shift in _byte_spans(width):
        if shift >= 0:
            np.right_shift(lanes[i], np.uint64(shift), out=part)
        else:
            np.left_shift(lanes[i], np.uint64(-shift), out=part)
        out[j] |= part.astype(np.uint8)  # the cast keeps the low byte
    return out.T.reshape(-1)[:-(-codes.size * width // 8)]


def _unpack_fixed(packed: np.ndarray, width: int, count: int) -> np.ndarray:
    """The mirror of :func:`_pack_fixed`: ``count`` codes of ``width`` bits."""
    groups = -(-count // 8)
    padded = np.zeros(groups * width, dtype=np.uint8)
    padded[:packed.size] = packed
    rows = padded.reshape(groups, width).T.astype(np.uint64)
    codes = np.zeros((8, groups), dtype=np.uint64)
    part = np.empty(groups, dtype=np.uint64)
    for i, j, shift in _byte_spans(width):
        if shift >= 0:
            np.left_shift(rows[j], np.uint64(shift), out=part)
        else:
            np.right_shift(rows[j], np.uint64(-shift), out=part)
        codes[i] |= part
    codes &= np.uint64((1 << width) - 1)
    return codes.T.reshape(-1)[:count]
