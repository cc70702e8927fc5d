"""Bit-level writer/reader over NumPy ``uint8`` buffers.

Both classes operate on whole NumPy ``uint8`` buffers so the hot paths stay
vectorized: bits are accumulated in Python integers only at the API boundary,
while bulk operations (``write_bits_array`` / ``read_bits_array``) pack and
unpack many fixed-width fields at once with :func:`numpy.packbits` /
:func:`numpy.unpackbits`.  No codec calls them: the Huffman stage packs its
codes with one scatter per group and ZFP with :func:`numpy.packbits`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitWriter", "BitReader"]


class BitWriter:
    """Accumulates bits most-significant-bit first into a byte buffer."""

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._pending_bits: list[int] = []

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._pending_bits.append(1 if bit else 0)

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` (MSB first)."""
        if width < 0:
            raise ValueError("width must be non-negative")
        for shift in range(width - 1, -1, -1):
            self._pending_bits.append((value >> shift) & 1)

    def write_bitarray(self, bits: np.ndarray) -> None:
        """Append a 1-D array of 0/1 values."""
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        if self._pending_bits:
            self._flush_pending()
        self._chunks.append(bits)

    def write_bits_array(self, values: np.ndarray, width: int) -> None:
        """Append every element of ``values`` using a fixed ``width`` in bits."""
        values = np.asarray(values, dtype=np.uint64).ravel()
        if width == 0 or values.size == 0:
            return
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        self.write_bitarray(bits.ravel())

    def _flush_pending(self) -> None:
        if self._pending_bits:
            self._chunks.append(np.asarray(self._pending_bits, dtype=np.uint8))
            self._pending_bits = []

    @property
    def nbits(self) -> int:
        """Number of bits written so far."""
        return sum(int(c.size) for c in self._chunks) + len(self._pending_bits)

    def getvalue(self) -> bytes:
        """Return the packed bytes (zero padded to a byte boundary)."""
        self._flush_pending()
        if not self._chunks:
            return b""
        allbits = np.concatenate(self._chunks) if len(self._chunks) > 1 else self._chunks[0]
        self._chunks = [allbits]
        return np.packbits(allbits).tobytes()


class BitReader:
    """Reads bits MSB-first from a byte buffer produced by :class:`BitWriter`."""

    def __init__(self, data: bytes) -> None:
        self._bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self._pos = 0

    @property
    def remaining(self) -> int:
        """Number of unread bits (including any zero padding)."""
        return int(self._bits.size - self._pos)

    def read_bit(self) -> int:
        """Read a single bit; raises ``EOFError`` past the end of the buffer."""
        if self._pos >= self._bits.size:
            raise EOFError("bitstream exhausted")
        bit = int(self._bits[self._pos])
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first)."""
        if width == 0:
            return 0
        if self._pos + width > self._bits.size:
            raise EOFError("bitstream exhausted")
        chunk = self._bits[self._pos : self._pos + width]
        self._pos += width
        value = 0
        for b in chunk:
            value = (value << 1) | int(b)
        return value

    def read_bits_array(self, count: int, width: int) -> np.ndarray:
        """Read ``count`` fixed-width unsigned fields as a ``uint64`` array."""
        if width == 0 or count == 0:
            return np.zeros(count, dtype=np.uint64)
        total = count * width
        if self._pos + total > self._bits.size:
            raise EOFError("bitstream exhausted")
        chunk = self._bits[self._pos : self._pos + total].reshape(count, width)
        self._pos += total
        weights = (np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64))
        return (chunk.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)

    def read_bitarray(self, count: int) -> np.ndarray:
        """Read ``count`` raw bits as a ``uint8`` array."""
        if self._pos + count > self._bits.size:
            raise EOFError("bitstream exhausted")
        chunk = self._bits[self._pos : self._pos + count]
        self._pos += count
        return chunk.copy()
