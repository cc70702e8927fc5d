"""Lossless codecs used for metadata and as the final stage of the EBLCs.

The paper evaluates blosc-lz, gzip, zlib, zstd, and xz (Table II).  No binary
codec libraries are available offline, so this module provides:

* :class:`BloscLZCodec` — a from-scratch blosc-style codec: a byte-shuffle
  filter (grouping the k-th byte of every element together, which makes IEEE
  floats far more compressible) followed by a fast DEFLATE pass.  This
  reproduces blosc-lz's "filter + very fast LZ" design and its Table II role
  (fastest, best ratio among the fast codecs).
* :class:`ShuffleRLECodec` — a fully from-scratch shuffle + run-length codec
  with no stdlib entropy stage, used in tests to exercise a hand-rolled
  bit-exact lossless path.
* stdlib wrappers: :class:`ZlibCodec`, :class:`GzipCodec`, :class:`Bzip2Codec`,
  :class:`LzmaCodec` (the ``xz`` stand-in) and :class:`ZstdLikeCodec` (a
  mid-level DEFLATE configuration standing in for zstd's speed/ratio point).

All codecs are *byte* codecs: they compress ``bytes`` to ``bytes``.  Array
convenience wrappers live on the base class.
"""

from __future__ import annotations

import bz2
import gzip
import lzma
import struct
import sys
import zlib

import numpy as np

__all__ = [
    "LosslessCodec",
    "StreamCompressor",
    "BufferedStreamCompressor",
    "StreamDecompressor",
    "BufferedStreamDecompressor",
    "BloscLZCodec",
    "ShuffleRLECodec",
    "ZlibCodec",
    "GzipCodec",
    "Bzip2Codec",
    "LzmaCodec",
    "ZstdLikeCodec",
    "available_lossless",
    "get_lossless",
]


class StreamCompressor:
    """Push-based incremental counterpart of :meth:`LosslessCodec.compress`.

    ``feed`` accepts plaintext bytes as they are produced and returns whatever
    compressed output became available; ``finish`` flushes the tail.  The
    concatenation of all returned bytes is byte-identical to ``compress`` over
    the whole plaintext, for every way the plaintext is split into pieces —
    that is the producer-side streaming contract (see FORMATS.md), and it is
    what lets a simulated transfer start before the encode completes.
    """

    def feed(self, data) -> bytes:
        raise NotImplementedError

    def finish(self) -> bytes:
        raise NotImplementedError


class BufferedStreamCompressor(StreamCompressor):
    """Fallback for codecs with no incremental backend: buffer, then compress.

    Used by the filter-based codecs (blosc-lz, shuffle-rle), whose shuffle
    transform needs the whole body before the first output byte is decidable,
    and by gzip, whose batch header is assembled differently across Python
    versions.  All compressed bytes surface at :meth:`finish`.
    """

    def __init__(self, codec: "LosslessCodec") -> None:
        self._codec = codec
        self._buf = bytearray()

    def feed(self, data) -> bytes:
        self._buf += memoryview(data)
        return b""

    def finish(self) -> bytes:
        return self._codec.compress(bytes(self._buf))


class _IncrementalStreamCompressor(StreamCompressor):
    """Wrapper over the stdlib incremental compressor objects.

    ``zlib.compressobj`` / ``bz2.BZ2Compressor`` / ``lzma.LZMACompressor``
    produce output that does not depend on how the input was chunked (no
    sync points are emitted between feeds), so the concatenated output equals
    the corresponding one-shot batch function byte for byte.
    """

    def __init__(self, obj) -> None:
        self._obj = obj

    def feed(self, data) -> bytes:
        return self._obj.compress(bytes(data))

    def finish(self) -> bytes:
        return self._obj.flush()


class StreamDecompressor:
    """Push-based incremental counterpart of :meth:`LosslessCodec.decompress`.

    ``feed`` accepts compressed bytes as they arrive and returns whatever
    plaintext became available; ``finish`` flushes the tail and verifies the
    stream actually ended.  The concatenation of all returned plaintext is
    byte-identical to ``decompress`` over the whole payload.  Corrupt or
    truncated input raises :class:`ValueError` (never a backend-specific
    exception), matching the repo-wide corruption contract.
    """

    def feed(self, data) -> bytes:
        raise NotImplementedError

    def finish(self) -> bytes:
        raise NotImplementedError


class BufferedStreamDecompressor(StreamDecompressor):
    """Fallback for codecs with no incremental backend: buffer, then decompress.

    Used by the filter-based codecs (blosc-lz, shuffle-rle) whose inverse
    transform needs the whole body, and by the identity codec.  All plaintext
    surfaces at :meth:`finish`.
    """

    def __init__(self, codec: "LosslessCodec") -> None:
        self._codec = codec
        self._buf = bytearray()

    def feed(self, data) -> bytes:
        self._buf += memoryview(data)
        return b""

    def finish(self) -> bytes:
        try:
            return self._codec.decompress(bytes(self._buf))
        except ValueError:
            raise
        except Exception as exc:
            raise ValueError(f"corrupt lossless stream "
                             f"({type(exc).__name__}: {exc})") from exc


class _ChainedStreamDecompressor(StreamDecompressor):
    """Incremental wrapper over the stdlib decompressor objects.

    ``factory`` builds one single-member decompressor (``zlib.decompressobj``,
    ``bz2.BZ2Decompressor``, ...).  ``chain`` reproduces the batch functions'
    concatenated-member behaviour (gzip/bz2/xz); ``ignore_trailing``
    reproduces their tolerance for garbage after a completed stream
    (``zlib.decompress`` ignores trailers unconditionally; bz2/xz ignore
    trailing bytes only once at least one member decoded; gzip raises).
    """

    def __init__(self, factory, *, chain: bool, ignore_trailing: bool) -> None:
        self._factory = factory
        self._chain = chain
        self._ignore_trailing = ignore_trailing
        self._obj = None
        self._started = False   # current member has consumed bytes
        self._members = 0       # completed members
        self._discard = False   # trailing bytes are being ignored

    def feed(self, data) -> bytes:
        data = bytes(data)
        if self._discard:
            return b""
        out: list[bytes] = []
        while data:
            if self._obj is None:
                self._obj = self._factory()
                self._started = False
            try:
                out.append(self._obj.decompress(data))
            except Exception as exc:
                if self._members and self._ignore_trailing and not self._started:
                    self._discard = True
                    break
                raise ValueError(f"corrupt lossless stream "
                                 f"({type(exc).__name__}: {exc})") from exc
            self._started = True
            if not self._obj.eof:
                break
            self._members += 1
            data = self._obj.unused_data
            self._obj = None
            if not self._chain:
                if data and not self._ignore_trailing:
                    raise ValueError("corrupt lossless stream: trailing data "
                                     "after the end-of-stream marker")
                self._discard = True
                break
        return b"".join(out)

    def finish(self) -> bytes:
        if not self._discard:
            if self._obj is not None and self._started and not self._obj.eof:
                raise ValueError("corrupt lossless stream: input ended before "
                                 "the end-of-stream marker")
            if self._members == 0 and not self._started:
                raise ValueError("corrupt lossless stream: no data")
        return b""


class LosslessCodec:
    """Base class: byte-in/byte-out lossless compression."""

    name: str = "identity"

    def compress(self, data: bytes) -> bytes:
        """Compress a byte string."""
        return bytes(data)

    def decompress(self, payload: bytes) -> bytes:
        """Invert :meth:`compress`."""
        return bytes(payload)

    def compressor(self) -> StreamCompressor:
        """Return a push-based incremental compressor for one stream.

        Codecs backed by a stdlib incremental object override this to release
        compressed bytes as plaintext is fed; the default buffers everything
        and compresses at ``finish`` (correct for any codec, overlaps
        nothing).  Either way the concatenated output is byte-identical to
        :meth:`compress` over the whole plaintext.
        """
        return BufferedStreamCompressor(self)

    def decompressor(self) -> StreamDecompressor:
        """Return a push-based incremental decompressor for one stream.

        Codecs backed by a stdlib incremental object override this to release
        plaintext as compressed bytes arrive; the default buffers everything
        and decompresses at ``finish`` (correct for any codec, overlaps
        nothing).
        """
        return BufferedStreamDecompressor(self)

    # -- array convenience ----------------------------------------------------
    def compress_array(self, array: np.ndarray) -> bytes:
        """Compress an ndarray, preserving dtype and shape."""
        array = np.ascontiguousarray(array)
        dtype_str = array.dtype.str.encode()
        header = struct.pack("<I", len(dtype_str)) + dtype_str
        header += struct.pack("<I", array.ndim)
        header += struct.pack(f"<{array.ndim}Q", *array.shape) if array.ndim else b""
        return header + self.compress(array.tobytes())

    def decompress_array(self, payload: bytes) -> np.ndarray:
        """Invert :meth:`compress_array`."""
        (dlen,) = struct.unpack_from("<I", payload, 0)
        offset = 4
        dtype = np.dtype(payload[offset : offset + dlen].decode())
        offset += dlen
        (ndim,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        shape = struct.unpack_from(f"<{ndim}Q", payload, offset) if ndim else ()
        offset += 8 * ndim
        raw = self.decompress(payload[offset:])
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _shuffle(data: bytes, itemsize: int) -> bytes:
    """Byte-shuffle filter: transpose the (n_items, itemsize) byte matrix."""
    if itemsize <= 1 or len(data) % itemsize != 0:
        return data
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, itemsize)
    return arr.T.copy().tobytes()


def _unshuffle(data: bytes, itemsize: int) -> bytes:
    """Inverse of :func:`_shuffle`."""
    if itemsize <= 1 or len(data) % itemsize != 0:
        return data
    arr = np.frombuffer(data, dtype=np.uint8).reshape(itemsize, -1)
    return arr.T.copy().tobytes()


class BloscLZCodec(LosslessCodec):
    """Byte-shuffle + fast DEFLATE, standing in for blosc-lz.

    ``itemsize`` controls the shuffle stride (4 for float32 payloads).  The
    header records the itemsize and original length so decompression is
    self-contained.
    """

    name = "blosclz"

    def __init__(self, itemsize: int = 4, level: int = 1) -> None:
        self.itemsize = int(itemsize)
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        itemsize = self.itemsize if len(data) % max(self.itemsize, 1) == 0 else 1
        shuffled = _shuffle(data, itemsize)
        body = zlib.compress(shuffled, self.level)
        return struct.pack("<BQ", itemsize, len(data)) + body

    def decompress(self, payload: bytes) -> bytes:
        itemsize, length = struct.unpack_from("<BQ", payload, 0)
        if length >= sys.maxsize:
            raise ValueError("blosclz payload corrupt: length mismatch")
        # the header's length caps the inflate: a body that would expand
        # past it stops one byte over instead of inflating whole
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(memoryview(payload)[9:], length + 1)
        except zlib.error as exc:
            raise ValueError(f"blosclz payload corrupt ({exc})") from exc
        if len(raw) != length or not inflater.eof or inflater.unused_data:
            raise ValueError("blosclz payload corrupt: length mismatch")
        return _unshuffle(raw, itemsize)


class ShuffleRLECodec(LosslessCodec):
    """From-scratch shuffle + byte run-length codec (no stdlib entropy stage).

    Encoding: byte-shuffle, then each maximal run of a repeated byte value is
    stored as ``(value, run_length)`` with run lengths capped at 255.  The
    format is only efficient on data with long byte runs (exactly what the
    shuffle produces for the high-order bytes of similar floats); it exists to
    provide a dependency-free reference codec and is exercised heavily by the
    property-based tests.
    """

    name = "shuffle-rle"

    def __init__(self, itemsize: int = 4) -> None:
        self.itemsize = int(itemsize)

    def compress(self, data: bytes) -> bytes:
        itemsize = self.itemsize if len(data) % max(self.itemsize, 1) == 0 else 1
        shuffled = np.frombuffer(_shuffle(data, itemsize), dtype=np.uint8)
        header = struct.pack("<BQ", itemsize, len(data))
        if shuffled.size == 0:
            return header
        # run-length encode: boundaries where the byte value changes
        change = np.flatnonzero(np.diff(shuffled)) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [shuffled.size]])
        values = shuffled[starts]
        lengths = ends - starts
        # split runs longer than 255 into chunks
        out_vals: list[np.ndarray] = []
        out_lens: list[np.ndarray] = []
        n_chunks = (lengths + 254) // 255
        total_chunks = int(n_chunks.sum())
        chunk_vals = np.repeat(values, n_chunks)
        chunk_lens = np.empty(total_chunks, dtype=np.uint8)
        pos = 0
        for length, chunks in zip(lengths.tolist(), n_chunks.tolist()):
            remaining = length
            for _ in range(chunks):
                take = min(remaining, 255)
                chunk_lens[pos] = take
                remaining -= take
                pos += 1
        out_vals.append(chunk_vals.astype(np.uint8))
        out_lens.append(chunk_lens)
        vals = np.concatenate(out_vals)
        lens = np.concatenate(out_lens)
        body = np.stack([vals, lens], axis=1).tobytes()
        return header + body

    def decompress(self, payload: bytes) -> bytes:
        itemsize, length = struct.unpack_from("<BQ", payload, 0)
        body = np.frombuffer(payload, dtype=np.uint8, offset=9)
        if body.size == 0:
            return b""
        pairs = body.reshape(-1, 2)
        values = pairs[:, 0]
        lengths = pairs[:, 1].astype(np.int64)
        shuffled = np.repeat(values, lengths).tobytes()
        out = _unshuffle(shuffled, itemsize)
        if len(out) != length:
            raise ValueError("shuffle-rle payload corrupt: length mismatch")
        return out


class ZlibCodec(LosslessCodec):
    """Plain DEFLATE (zlib container)."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return zlib.decompress(payload)

    def compressor(self) -> StreamCompressor:
        return _IncrementalStreamCompressor(zlib.compressobj(self.level))

    def decompressor(self) -> StreamDecompressor:
        # zlib.decompress ignores any bytes after the end-of-stream marker
        return _ChainedStreamDecompressor(zlib.decompressobj,
                                          chain=False, ignore_trailing=True)


class GzipCodec(LosslessCodec):
    """DEFLATE in a gzip container (matches the paper's Python ``gzip``)."""

    name = "gzip"

    def __init__(self, level: int = 9) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return gzip.compress(data, compresslevel=self.level)

    def decompress(self, payload: bytes) -> bytes:
        return gzip.decompress(payload)

    def decompressor(self) -> StreamDecompressor:
        # wbits=31 decodes one gzip member (header + CRC trailer verified);
        # gzip.decompress accepts concatenated members but rejects trailers
        return _ChainedStreamDecompressor(lambda: zlib.decompressobj(31),
                                          chain=True, ignore_trailing=False)


class Bzip2Codec(LosslessCodec):
    """Burrows-Wheeler codec, included for completeness of the comparison."""

    name = "bzip2"

    def __init__(self, level: int = 9) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return bz2.compress(data, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return bz2.decompress(payload)

    def compressor(self) -> StreamCompressor:
        return _IncrementalStreamCompressor(bz2.BZ2Compressor(self.level))

    def decompressor(self) -> StreamDecompressor:
        return _ChainedStreamDecompressor(bz2.BZ2Decompressor,
                                          chain=True, ignore_trailing=True)


class LzmaCodec(LosslessCodec):
    """LZMA (the ``xz`` stand-in: best ratio, slowest runtime)."""

    name = "xz"

    def __init__(self, preset: int = 6) -> None:
        self.preset = int(preset)

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(data, preset=self.preset)

    def decompress(self, payload: bytes) -> bytes:
        return lzma.decompress(payload)

    def compressor(self) -> StreamCompressor:
        return _IncrementalStreamCompressor(lzma.LZMACompressor(preset=self.preset))

    def decompressor(self) -> StreamDecompressor:
        return _ChainedStreamDecompressor(lzma.LZMADecompressor,
                                          chain=True, ignore_trailing=True)


class ZstdLikeCodec(LosslessCodec):
    """Stand-in for zstd: mid-level DEFLATE with a shuffle filter disabled.

    zstd sits between blosc-lz and gzip in both runtime and ratio in Table II;
    DEFLATE level 3 occupies the same position among the stand-ins.
    """

    name = "zstd"

    def __init__(self, level: int = 3) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return zlib.decompress(payload)

    def compressor(self) -> StreamCompressor:
        return _IncrementalStreamCompressor(zlib.compressobj(self.level))

    def decompressor(self) -> StreamDecompressor:
        return _ChainedStreamDecompressor(zlib.decompressobj,
                                          chain=False, ignore_trailing=True)


_LOSSLESS: dict[str, type[LosslessCodec]] = {
    "identity": LosslessCodec,
    "blosclz": BloscLZCodec,
    "shuffle-rle": ShuffleRLECodec,
    "zlib": ZlibCodec,
    "gzip": GzipCodec,
    "bzip2": Bzip2Codec,
    "xz": LzmaCodec,
    "zstd": ZstdLikeCodec,
}


def available_lossless() -> list[str]:
    """Names of the registered lossless codecs."""
    return sorted(_LOSSLESS)


def get_lossless(name: str, **kwargs: object) -> LosslessCodec:
    """Instantiate a lossless codec by registry name."""
    try:
        cls = _LOSSLESS[name]
    except KeyError:
        # ValueError, matching every other bad-input path in the codebase
        raise ValueError(f"unknown lossless codec {name!r}; available: {available_lossless()}") from None
    return cls(**kwargs)  # type: ignore[arg-type]
