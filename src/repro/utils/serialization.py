"""Binary serialization of array dictionaries and byte dictionaries.

The FedSZ pipeline ships a client update as a single bitstream.  The paper uses
``pickle``; this reproduction uses an explicit, versioned, length-prefixed
format instead so the layout is documented, deterministic, and safe to
deserialize on the server side.  Every declared length is bounds-checked
against the remaining buffer, so a truncated or corrupted bitstream raises
:class:`ValueError` instead of leaking ``struct.error`` / ``IndexError`` or
silently returning short data.  A buffer is read exactly: a key that repeats
or a byte after the last entry raises :class:`ValueError` too, since
``pack_*`` writes neither.

Layout (all integers little-endian):

``pack_bytes_dict``::

    magic  b"FSZB"
    u32    number of entries
    per entry:
        u32  key length, key bytes (utf-8)
        u64  value length, value bytes

``pack_arrays`` uses the same outer structure but each value is an array
record: dtype string, ndim, shape, raw bytes.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["MAX_NDIM", "pack_bytes_dict", "unpack_bytes_dict", "unpack_bytes_views",
           "pack_arrays", "unpack_arrays", "packed_arrays_nbytes"]

_MAGIC_BYTES = b"FSZB"
_MAGIC_ARRAYS = b"FSZA"

#: np.ndarray.ndim is capped at 64 in NumPy; anything larger is corruption.
#: Shared by every deserializer that parses a shape (see compressors/base.py).
MAX_NDIM = 64


def _require(buf: memoryview, offset: int, needed: int, what: str) -> None:
    """Raise ``ValueError`` unless ``needed`` bytes remain at ``offset``."""
    if needed < 0 or offset + needed > len(buf):
        raise ValueError(
            f"truncated or corrupt buffer: {what} needs {needed} bytes at offset "
            f"{offset}, but only {max(len(buf) - offset, 0)} remain")


def _unpack_key(buf: memoryview, offset: int, result: dict, what: str) -> tuple[str, int]:
    """An entry's key, which no earlier entry of ``result`` may have used."""
    key, offset = _unpack_str(buf, offset, what)
    if key in result:
        raise ValueError(f"corrupt buffer: {what} {key!r} appears twice")
    return key, offset


def _expect_end(buf: memoryview, offset: int) -> None:
    """Raise ``ValueError`` unless the last entry ended the buffer."""
    if offset != len(buf):
        raise ValueError(f"corrupt buffer: {len(buf) - offset} bytes after "
                         f"the last entry")


def _pack_str(out: list[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    out.append(struct.pack("<I", len(raw)))
    out.append(raw)


def _unpack_str(buf: memoryview, offset: int, what: str) -> tuple[str, int]:
    _require(buf, offset, 4, f"{what} length")
    (length,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    _require(buf, offset, length, what)
    text = bytes(buf[offset : offset + length]).decode("utf-8")
    return text, offset + length


def pack_bytes_dict(entries: dict[str, bytes]) -> bytes:
    """Serialize a ``{name: bytes}`` mapping into a single buffer."""
    out: list[bytes] = [_MAGIC_BYTES, struct.pack("<I", len(entries))]
    for key, value in entries.items():
        _pack_str(out, key)
        out.append(struct.pack("<Q", len(value)))
        out.append(bytes(value))
    return b"".join(out)


def unpack_bytes_dict(data: bytes) -> dict[str, bytes]:
    """Inverse of :func:`pack_bytes_dict`."""
    return {key: bytes(value) for key, value in unpack_bytes_views(data).items()}


def unpack_bytes_views(data: bytes) -> dict[str, memoryview]:
    """:func:`unpack_bytes_dict` without copying: each value is a view of ``data``."""
    buf = memoryview(data)
    if bytes(buf[:4]) != _MAGIC_BYTES:
        raise ValueError("not a packed bytes dictionary (bad magic)")
    _require(buf, 4, 4, "entry count")
    (count,) = struct.unpack_from("<I", buf, 4)
    offset = 8
    result: dict[str, memoryview] = {}
    for _ in range(count):
        key, offset = _unpack_key(buf, offset, result, "entry key")
        _require(buf, offset, 8, f"length of value {key!r}")
        (length,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        _require(buf, offset, length, f"value {key!r}")
        result[key] = buf[offset : offset + length]
        offset += length
    _expect_end(buf, offset)
    return result


def pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize a ``{name: ndarray}`` mapping (dtype and shape preserved)."""
    out: list[bytes] = [_MAGIC_ARRAYS, struct.pack("<I", len(arrays))]
    for key, arr in arrays.items():
        arr = np.asarray(arr)
        if not arr.flags.c_contiguous:
            # note: np.ascontiguousarray would promote 0-d arrays to 1-d,
            # losing the shape; only copy when actually needed
            arr = np.ascontiguousarray(arr)
        _pack_str(out, key)
        _pack_str(out, arr.dtype.str)
        out.append(struct.pack("<I", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        raw = arr.tobytes()
        out.append(struct.pack("<Q", len(raw)))
        out.append(raw)
    return b"".join(out)


def packed_arrays_nbytes(arrays: dict[str, np.ndarray]) -> int:
    """Exact ``len(pack_arrays(arrays))`` without serializing anything.

    The packed size is a pure function of key names, dtypes, and shapes, so
    callers that only need the uncompressed byte count of a state dict (the
    round engine reports it every round for every client) can compute it
    analytically instead of materializing and discarding the buffer.
    """
    total = 4 + 4  # magic + entry count
    for key, arr in arrays.items():
        arr = np.asarray(arr)
        total += 4 + len(key.encode("utf-8"))          # key record
        total += 4 + len(arr.dtype.str.encode("utf-8"))  # dtype record
        total += 4 + 8 * arr.ndim                      # ndim + shape
        total += 8 + arr.nbytes                        # length + raw bytes
    return total


def unpack_arrays(data: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays`."""
    buf = memoryview(data)
    if bytes(buf[:4]) != _MAGIC_ARRAYS:
        raise ValueError("not a packed array dictionary (bad magic)")
    _require(buf, 4, 4, "entry count")
    (count,) = struct.unpack_from("<I", buf, 4)
    offset = 8
    result: dict[str, np.ndarray] = {}
    for _ in range(count):
        key, offset = _unpack_key(buf, offset, result, "array name")
        dtype_str, offset = _unpack_str(buf, offset, f"dtype of array {key!r}")
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as exc:
            raise ValueError(f"corrupt dtype string {dtype_str!r} for array {key!r}") from exc
        _require(buf, offset, 4, f"ndim of array {key!r}")
        (ndim,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        if ndim > MAX_NDIM:
            raise ValueError(f"corrupt ndim {ndim} for array {key!r} (max {MAX_NDIM})")
        _require(buf, offset, 8 * ndim, f"shape of array {key!r}")
        shape = struct.unpack_from(f"<{ndim}Q", buf, offset) if ndim else ()
        offset += 8 * ndim
        _require(buf, offset, 8, f"byte length of array {key!r}")
        (length,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        expected = int(np.prod(shape, dtype=np.uint64)) * dtype.itemsize if ndim else dtype.itemsize
        if length != expected:
            raise ValueError(
                f"corrupt array record {key!r}: {length} payload bytes declared for "
                f"shape {tuple(shape)} of dtype {dtype} ({expected} expected)")
        _require(buf, offset, length, f"data of array {key!r}")
        raw = bytes(buf[offset : offset + length])
        offset += length
        result[key] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    _expect_end(buf, offset)
    return result
