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

All codecs are *byte* codecs: they compress ``bytes`` to ``bytes``.  Every
``decompress`` reads its payload exactly: a truncated, corrupt or over-long
payload raises :class:`ValueError`, never the backend library's own exception
type.
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


class LosslessCodec:
    """Base class: byte-in/byte-out lossless compression."""

    name: str = "identity"

    def compress(self, data: bytes) -> bytes:
        """Compress a byte string."""
        return bytes(data)

    def decompress(self, payload: bytes) -> bytes:
        """Invert :meth:`compress`."""
        return bytes(payload)


_HEADER = struct.Struct("<BQ")  # itemsize, original length (blosclz, shuffle-rle)


def _read_header(payload: bytes, name: str) -> tuple[int, int]:
    if len(payload) < _HEADER.size:
        raise ValueError(f"{name} payload corrupt: {len(payload)} bytes cannot "
                         f"hold its {_HEADER.size}-byte header")
    return _HEADER.unpack_from(payload, 0)


def _one_stream(decompressor, payload: bytes, name: str, errors) -> bytes:
    """Decode ``payload`` as exactly one complete stream of ``decompressor``'s
    format: the stream must end, leave no byte unused, and the backend's
    ``errors`` surface as :class:`ValueError`."""
    try:
        raw = decompressor.decompress(payload)
    except errors as exc:
        raise ValueError(f"{name} payload corrupt ({exc})") from exc
    if not decompressor.eof:
        raise ValueError(f"{name} payload corrupt: the stream is truncated")
    if decompressor.unused_data:
        raise ValueError(f"{name} payload corrupt: {len(decompressor.unused_data)} "
                         f"bytes after the end of the stream")
    return raw


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
        return _HEADER.pack(itemsize, len(data)) + body

    def decompress(self, payload: bytes) -> bytes:
        itemsize, length = _read_header(payload, self.name)
        if length >= sys.maxsize:
            raise ValueError("blosclz payload corrupt: length mismatch")
        # the header's length caps the inflate: a body that would expand
        # past it stops one byte over instead of inflating whole
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(memoryview(payload)[_HEADER.size:], length + 1)
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
        header = _HEADER.pack(itemsize, len(data))
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
        itemsize, length = _read_header(payload, self.name)
        body = np.frombuffer(payload, dtype=np.uint8, offset=_HEADER.size)
        if body.size % 2:
            raise ValueError("shuffle-rle payload corrupt: odd run body")
        pairs = body.reshape(-1, 2)
        # the encoder writes no empty run, so a (value, 0) pair is not a run
        if not pairs[:, 1].all():
            raise ValueError("shuffle-rle payload corrupt: a run of length 0")
        # the header's length caps the expansion: the runs must add up to it
        # before np.repeat sizes anything by them
        if int(pairs[:, 1].sum(dtype=np.int64)) != length:
            raise ValueError("shuffle-rle payload corrupt: length mismatch")
        return _unshuffle(np.repeat(pairs[:, 0], pairs[:, 1]).tobytes(), itemsize)


class ZlibCodec(LosslessCodec):
    """Plain DEFLATE (zlib container)."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return _one_stream(zlib.decompressobj(), payload, self.name, zlib.error)


class GzipCodec(LosslessCodec):
    """DEFLATE in a gzip container (matches the paper's Python ``gzip``)."""

    name = "gzip"

    def __init__(self, level: int = 9) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return gzip.compress(data, compresslevel=self.level)

    def decompress(self, payload: bytes) -> bytes:
        # one gzip member, its CRC-32 and length trailer checked by zlib
        return _one_stream(zlib.decompressobj(16 + zlib.MAX_WBITS), payload,
                           self.name, zlib.error)


class Bzip2Codec(LosslessCodec):
    """Burrows-Wheeler codec, included for completeness of the comparison."""

    name = "bzip2"

    def __init__(self, level: int = 9) -> None:
        self.level = int(level)

    def compress(self, data: bytes) -> bytes:
        return bz2.compress(data, self.level)

    def decompress(self, payload: bytes) -> bytes:
        return _one_stream(bz2.BZ2Decompressor(), payload, self.name, OSError)


class LzmaCodec(LosslessCodec):
    """LZMA (the ``xz`` stand-in: best ratio, slowest runtime)."""

    name = "xz"

    def __init__(self, preset: int = 6) -> None:
        self.preset = int(preset)

    def compress(self, data: bytes) -> bytes:
        return lzma.compress(data, preset=self.preset)

    def decompress(self, payload: bytes) -> bytes:
        return _one_stream(lzma.LZMADecompressor(), payload, self.name, lzma.LZMAError)


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
        return _one_stream(zlib.decompressobj(), payload, self.name, zlib.error)


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
