"""Chunked canonical Huffman coding of integer symbol streams, over tuples.

SZ2 and SZ3 entropy-code their quantization indices with this coder, and its
stream is the last stage of their bodies: no lossless pass follows it.  The
coder

* finds the used symbol range ``[lo, lo + W)`` and groups the stream into
  ``k``-symbol tuples, with ``k`` picked per stream from ``W`` alone (the
  tuple rule below),
* builds one Huffman code over the used tuples, limits it to
  :data:`MAX_CODE_LENGTH` bits (:func:`_code_lengths`) and assigns canonical
  codes,
* scatters every code into the byte field at its cumulative bit offset
  (:func:`_pack_codes`),
* decodes through flat tables indexed by ``MAX_CODE_LENGTH``-bit windows.

Coding ``k``-symbol blocks spends under ``H + 1/k`` bits per symbol (Cover &
Thomas, *Elements of Information Theory*, section 5.4), which matters for
quantization codes whose most frequent symbol has ``p`` near 0.4, and the
decoder's row walk yields ``k`` symbols per step.

Bitstream format (HUF4)
-----------------------

All integers little-endian; bits and nibbles MSB-first::

    4s    magic b"HUF4"
    u32   CRC-32 of everything after this field
    u32   lo, the smallest symbol
    u32   W, the used symbol range: every symbol lies in [lo, lo + W)
    u8    k, symbols per tuple
    u64   n, the symbol count
    u32   tuples per full chunk
    u32   chunk count
    u8[ceil(W**k / 8)]  tuple bitmap: bit t is set when tuple t is used
    u8[ceil(U / 2)]     per used tuple, in tuple order, its code length
                        minus 1 in a nibble (U used tuples; absent when U == 1)
    u32[chunks]         bit length of each chunk
    u8[]                packed code bits

Tuple ``t`` of symbols ``s_0 .. s_{k-1}`` is ``sum (s_i - lo) * W**(k-1-i)``.
The stream holds ``T = ceil(n / k)`` tuples and the last one is padded with
``lo``.  A stream with one used tuple carries no code bits, so its chunks are
zero bits long; the encoder makes it one chunk.  Every chunk but the last
holds the same number of tuples, so chunk offsets and tuple counts are
derived, not stored.

**Tuple rule.**  ``k`` is 1 or ``kmax(W)``, the largest ``k`` with ``W**k <=``
:data:`_TUPLE_ALPHABET` (1 when ``W`` is 1 or past that alphabet), which keeps
a tuple bitmap with ``k >= 2`` at 512 bytes or less.  The encoder prices
both exactly from one ``kmax`` tuple histogram (the ``k = 1`` histogram is
the sum of its marginals minus the pad) and weighs bytes against decode
steps: it keeps ``kmax`` unless singles save more than a byte per
:data:`_STEPS_PER_BYTE` tuples that ``kmax`` spares the decoder.  The
decoder rejects any ``k`` but these two.

The chunks share one code table but decode independently.  All chunks decode
at once, in the calling thread, as one vectorized NumPy "row walk": each step
advances every chunk's bit cursor by one tuple with three same-dtype calls
(gather the windows under the cursors into one whole-stream ``uint16``
record, gather their ``int64`` code lengths, add).  After the walk one
``int32`` gather maps the record to used-tuple ranks and one gather through a
``(U, k)`` symbol table widens them into the ``int64`` output (for ``k = 1``
the window table holds the symbols, so the widening is a copy).  The lookup
tables are built once per stream; unused windows hold -1.  A stream of fewer
than :data:`_MIN_VECTOR_CHUNKS` chunks runs the scalar loop instead; both
kernels return identical symbols and reject identical streams.

A corrupted or truncated payload always raises :class:`ValueError`: every
header field is checked (``k`` against the rule, the chunk count against the
geometry, no bitmap bit at or past ``W**k``, each chunk between 1 and
:data:`MAX_CODE_LENGTH` bits per tuple), the CRC covers the whole payload, an
unused window is detected, every chunk must decode to exactly its boundary,
the pad must be ``lo``, and no byte may follow the code bits.  A one-tuple
stream spends no code bits, so nothing in a short payload bounds the count
it declares: the decoder therefore takes a required ``check_count``, the
caller's rule for that count, and runs it before anything is sized by the
count.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["HuffmanCoder", "ChunkBandProducer", "MAX_CODE_LENGTH",
           "DEFAULT_CHUNK_TUPLES"]

#: Longest permitted codeword.  16 keeps the decode lookup table at 64K entries.
MAX_CODE_LENGTH = 16

#: Default (and cap) for tuples per chunk.  Streams much smaller than
#: ``DEFAULT_CHUNK_TUPLES * _TARGET_CHUNKS`` get proportionally smaller chunks
#: so the vectorized decoder still sees enough chunks to amortize per-step
#: dispatch overhead across a wide row.
DEFAULT_CHUNK_TUPLES = 1 << 16

#: Chunk bit lengths are u32 and a chunk spends at most 16 bits per tuple.
_MAX_CHUNK_TUPLES = (1 << 32) // MAX_CODE_LENGTH - 1

#: The encoder aims for about this many chunks per stream (bounded by
#: ``chunk_size`` above and ``_MIN_CHUNK_TUPLES`` below).  More chunks mean a
#: wider vectorized row walk; fewer chunks mean fewer 4-byte chunk lengths.
_TARGET_CHUNKS = 512
_MIN_CHUNK_TUPLES = 1024

#: The largest tuple alphabet ``W**k`` the encoder codes with ``k >= 2``.
#: Exact HUF4 bytes summed over the Huffman streams of one unit of each
#: benchmark workload (seed 102, 2-core host): the 58 lossy tensors of the
#: paper-scale ResNet-50 pass (23.5M codes, all W = 51) and the 112 residual
#: streams of a 4-round AlexNet delta run (9.6M codes, W from 3 to 51).
#: Limit 256: 7.9825 / 2.0280 MB (W = 51 codes singles only); 1024: 7.9825 /
#: 2.0090 MB; 4096: 7.9837 / 1.9967 MB (39 of the 58 W = 51 streams take
#: pairs, 1.2 KB for half their decode steps, see :data:`_STEPS_PER_BYTE`);
#: 16384: 7.9837 / 2.0323 MB (W = 3 takes 8-tuples, whose 821-byte bitmaps
#: cost more than they save).  Producer build time is flat across limits.
_TUPLE_ALPHABET = 4096

#: ``k = kmax`` decodes ``ceil(n / k)`` tuples where singles decode ``n``, so
#: the encoder keeps ``kmax`` unless singles make the stream smaller by more
#: than one byte per this many decode steps they cost.  Exact bytes and
#: Huffman decode time (best of 3, 2-core host) over the streams named at
#: ``_TUPLE_ALPHABET`` (ResNet-50 pass / AlexNet delta run): bytes only
#: 7.9741 / 1.9967 MB, 537 / 258 ms; 1024 steps per byte 7.9745 / 1.9967 MB,
#: 530 / 258 ms; 512: 7.9829 MB, 452 ms; 128: 7.9837 / 1.9967 MB, 451 / 258
#: ms; 16: 7.9875 / 2.0053 MB; always ``kmax``: 7.9897 / 2.0153 MB, 443 /
#: 249 ms.  The large ResNet-50 streams pay ~300 B of tuple table to save
#: ~200K decode steps each, so they flip between 512 and 1024; 128 leaves a
#: 4x margin and keeps every delta stream's bytes-only choice.  Always
#: ``kmax`` would code short streams in tuples too, whose tables cost more
#: than they save (the 400-value Miranda-like slices grow 14-52%).
_STEPS_PER_BYTE = 128

#: Below this many chunks the vectorized row walk is narrower than its own
#: per-step dispatch overhead, and :func:`_decode_scalar` runs instead.  The
#: scalar loop costs ~0.1 us per tuple plus ~0.1 ms per stream; the walk
#: 1.3-3 us per step, nearly flat in the chunk count up to ~32 chunks.
#: Scalar time over walk time, medians of 21 runs, SZ2 codes of a ResNet-50
#: conv tensor at 1024 tuples per chunk, 2-core x86 host (range over three
#: runs; the host has fast and slow phases), k = 1: 1 chunk 0.06-0.07, 4
#: chunks 0.27-0.37, 8 chunks 0.34-0.56, 12 chunks 0.81-1.52, 16 chunks
#: 0.95-1.26, 24 chunks 1.70-2.17, 32 chunks 1.71-2.48; k = 2: 8 chunks
#: 0.72-0.75, 12 chunks 0.81-1.09, 16 chunks 1.20-1.56, 24 chunks 1.88-3.40.
_MIN_VECTOR_CHUNKS = 16

#: Tuples :meth:`ChunkBandProducer.bands` packs per group of whole chunks
#: (one chunk when a chunk is larger), which bounds the packing scratch.
_PACK_GROUP_TUPLES = 1 << 16

_MAGIC = b"HUF4"
_HEADER = struct.Struct("<IIBQII")  # lo, W, k, count, tuples per chunk, chunks
_PREFIX_LEN = 8                     # magic + crc32
_FIXED_LEN = _PREFIX_LEN + _HEADER.size


def _tuple_sizes(width: int) -> "tuple[int, ...]":
    """The tuple sizes a stream over ``width`` used symbols may take.

    ``(1,)`` when ``kmax(width)`` is 1, else ``(1, kmax)``: ``kmax`` is the
    largest ``k`` with ``width ** k <= _TUPLE_ALPHABET``.
    """
    k = 1
    if width >= 2:
        while width ** (k + 1) <= _TUPLE_ALPHABET:
            k += 1
    return (1,) if k == 1 else (1, k)


def _code_lengths(freq: np.ndarray) -> np.ndarray:
    """Huffman code lengths for positive frequencies, at most 16 bits.

    The tree is built by the two-queue method over the sorted frequencies
    (van Leeuwen): merged nodes are created in non-decreasing weight order,
    so the two lightest nodes are always at the heads of the leaf queue and
    the merged queue, with leaves first on ties.  A lone entry gets length 0,
    as it needs no bits.  A tree deeper than :data:`MAX_CODE_LENGTH` is
    flattened the way JPEG's ``adjust_BITS`` does it, on the count of codes
    per length: two codes at the deepest level become one a level up, and
    the shallowest code below them moves a level down beside the other.  The
    Kraft sum stays exactly 1, and the new lengths go to the entries in order
    of falling frequency.
    """
    n = freq.size
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    if n > 1 << MAX_CODE_LENGTH:
        raise ValueError(f"{n} distinct tuples need codes past {MAX_CODE_LENGTH} bits")
    order = np.argsort(freq, kind="stable")
    # both queues end in a weight no node reaches, so neither runs dry
    sentinel = int(freq.sum()) + 1
    leaves = freq[order].tolist() + [sentinel]
    merged = [sentinel] * n
    parent = [0] * (2 * n - 1)
    leaf = head = 0
    for m in range(n - 1):
        node = n + m
        if leaves[leaf] <= merged[head]:
            weight = leaves[leaf]
            parent[leaf] = node
            leaf += 1
        else:
            weight = merged[head]
            parent[n + head] = node
            head += 1
        if leaves[leaf] <= merged[head]:
            weight += leaves[leaf]
            parent[leaf] = node
            leaf += 1
        else:
            weight += merged[head]
            parent[n + head] = node
            head += 1
        merged[m] = weight
    depth = [0] * (2 * n - 1)
    for child in range(2 * n - 3, -1, -1):
        depth[child] = depth[parent[child]] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = depth[:n]
    deepest = int(lengths.max())
    if deepest <= MAX_CODE_LENGTH:
        return lengths
    per_length = np.bincount(lengths, minlength=deepest + 1).tolist()
    for level in range(deepest, MAX_CODE_LENGTH, -1):
        while per_length[level]:
            up = level - 2
            while not per_length[up]:
                up -= 1
            per_length[level] -= 2
            per_length[level - 1] += 1
            per_length[up + 1] += 2
            per_length[up] -= 1
    order = np.lexsort((np.arange(n), -freq))
    lengths[order] = np.repeat(np.arange(MAX_CODE_LENGTH + 1),
                               per_length[:MAX_CODE_LENGTH + 1])
    return lengths


def _canonical(lengths: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(order, left)``: used tuples in canonical (length, rank) order and
    their codes left-aligned to :data:`MAX_CODE_LENGTH` bits.

    Canonical codes in that order are the running Kraft sums, so each code's
    window range ``[left, left + 2**(16 - length))`` abuts the previous one.
    """
    order = np.lexsort((np.arange(lengths.size), lengths))
    spans = np.int64(1) << (MAX_CODE_LENGTH - lengths[order])
    return order, np.cumsum(spans) - spans


def _corrupt(detail: str) -> ValueError:
    return ValueError(f"corrupt Huffman stream: {detail}")


def _used_tuples(bitmap: np.ndarray, size: int) -> np.ndarray:
    """The set bits of ``bitmap`` (MSB-first), which must all lie below ``size``.

    Only the non-zero bytes are unpacked, and more of them than 16-bit codes
    can cover is rejected before any index array is built.
    """
    nonzero = np.flatnonzero(bitmap)
    if nonzero.size > 1 << MAX_CODE_LENGTH:
        raise _corrupt("more used tuples than 16-bit codes can tell apart")
    rows, cols = np.nonzero(np.unpackbits(bitmap[nonzero]).reshape(-1, 8))
    used = nonzero[rows] * 8 + cols
    if used.size == 0:
        raise _corrupt("the tuple bitmap marks no tuple")
    if used.size > 1 << MAX_CODE_LENGTH:
        raise _corrupt("more used tuples than 16-bit codes can tell apart")
    if used[-1] >= size:
        raise _corrupt(f"the tuple bitmap marks tuple {used[-1]} of {size}")
    return used


def _bitmap_bytes(width: int, k: int) -> int:
    return -(-(width ** k) // 8)


def _length_bytes(used: int) -> int:
    return (used + 1) // 2 if used > 1 else 0


def _decode_tables(lo: int, width: int, k: int, code_table: bytes
                   ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(code lengths, values, symbols)``: the decode tables of a code table.

    ``code_table`` is the stream's tuple bitmap and length nibbles.  The
    first two tables cover all 16-bit windows: ``int64``
    code lengths, so the row walk advances its ``int64`` cursors with a
    same-dtype add, and ``int32`` values, -1 (length 0) for a window no code
    covers.  A value is the window's used-tuple rank into the third table,
    the ``(U, k)`` ``int64`` symbols; for ``k = 1`` that gather is folded in
    and the value is the symbol itself (``int64`` only past ``int32``),
    which saves the walk a widening pass.  Each stream's header parse builds
    them once (0.2 ms for a ResNet-50 tensor's table).  Tuple codes make
    matching tables rare across streams: an LRU of them kept 89 distinct
    768 KB entries through one AlexNet delta run (68 MB) against the
    singles-only format's 33.
    """
    map_len = _bitmap_bytes(width, k)
    used = _used_tuples(np.frombuffer(code_table, dtype=np.uint8, count=map_len),
                        width ** k)
    symbols = np.empty((used.size, k), dtype=np.int64)
    rest = used.copy()
    for i in range(k - 1, -1, -1):
        rest, symbols[:, i] = np.divmod(rest, width)
    symbols += lo
    value_dtype = np.int32 if k > 1 or lo + width <= 1 << 31 else np.int64
    if used.size == 1:  # no code bits: the tables are never read
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=value_dtype), symbols
    nibbles = np.frombuffer(code_table, dtype=np.uint8, offset=map_len)
    lengths = np.empty(2 * nibbles.size, dtype=np.int64)
    lengths[0::2] = nibbles >> 4
    lengths[1::2] = nibbles & 15
    if used.size % 2 and lengths[-1]:
        raise _corrupt("the length table's pad nibble is not zero")
    lengths = lengths[:used.size] + 1
    order, left = _canonical(lengths)
    spans = np.int64(1) << (MAX_CODE_LENGTH - lengths[order])
    uncovered = (1 << MAX_CODE_LENGTH) - int(left[-1] + spans[-1])
    if uncovered < 0:
        raise _corrupt("code-length table violates the Kraft inequality")
    # the windows past the last code (a Kraft-incomplete table) get length 0
    # and value -1
    spans = np.append(spans, uncovered)
    table_len = np.repeat(np.append(lengths[order], 0), spans)
    values = symbols[order, 0] if k == 1 else order
    table_value = np.repeat(np.append(values, -1).astype(value_dtype), spans)
    return table_len, table_value, symbols


def _widen(values: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The ``(n, k)`` symbols of ``n`` window-table values."""
    if symbols.shape[1] == 1:
        return values[..., None]
    return symbols.take(values, axis=0, mode="clip")


def _bit_windows(bit_bytes: np.ndarray) -> np.ndarray:
    """The 16-bit decode window at every bit position, as flat ``uint16``.

    Row ``i`` of the ``(n_bytes, 8)`` matrix holds the windows starting in
    byte ``i``, so the flat index of the window at bit ``p`` is ``p`` itself
    and the row walk gathers it with a single ``take``.  Column ``c`` is the
    24-bit big-endian field of bytes ``i`` to ``i + 2`` shifted right by
    ``8 - c``; one contiguous shift per column, cast to ``uint16`` (the cast
    is the mask) on its way into the strided column, beats one broadcast
    shift over eight-element rows.
    """
    n = bit_bytes.size
    padded = np.zeros(n + 2, dtype=np.uint32)
    padded[:n] = bit_bytes
    w24 = padded[:-2] << 16
    w24 |= padded[1:-1] << 8
    w24 |= padded[2:]
    del padded
    windows = np.empty((n, 8), dtype=np.uint16)
    for c in range(8):
        np.right_shift(w24, 8 - c, out=windows[:, c], casting="unsafe")
    return windows.reshape(-1)


def _decode_scalar(bit_bytes: np.ndarray, table_len: np.ndarray,
                   table_value: np.ndarray, symbols: np.ndarray,
                   bit_offsets: np.ndarray, tuple_counts: np.ndarray,
                   chunk_ends: np.ndarray) -> np.ndarray:
    """Sequential per-tuple decode of consecutive chunks.

    The reference the row walk is tested against, and the faster kernel for
    spans narrower than :data:`_MIN_VECTOR_CHUNKS` chunks.  Per chunk, one
    gather lists the code length at every bit position of the chunk's span;
    the loop hops from code start to code start through that list, and the
    starts' window values widen into symbols.
    """
    windows = _bit_windows(bit_bytes)
    k = symbols.shape[1]
    out = np.empty((int(tuple_counts.sum()), k), dtype=np.int64)
    base = 0
    for c in range(bit_offsets.size):
        start, end = int(bit_offsets[c]), int(chunk_ends[c])
        n_tuples = int(tuple_counts[c])
        local = windows[start:end]
        hops = table_len.take(local).tolist()
        starts = [0] * n_tuples
        pos = 0
        rel_end = end - start
        for i in range(n_tuples):
            if pos >= rel_end:
                raise _corrupt("chunk decoded past its recorded boundary")
            hop = hops[pos]
            if not hop:
                raise _corrupt("bit window matches no codeword")
            starts[i] = pos
            pos += hop
        if pos != rel_end:
            raise _corrupt("chunk did not decode to its recorded boundary")
        out[base:base + n_tuples] = _widen(table_value.take(local.take(starts)), symbols)
        base += n_tuples
    return out.reshape(-1)


#: Steps per tile of the gather that widens the walk's step-major window
#: values into chunk-major symbols.  Widening the whole record at once reads
#: a new cache line per tuple; a tile of 256 steps (512 KB of ``int32``
#: values at the encoder's 512-chunk width) stays in cache.  Value gather
#: plus widening on records shaped like the widest ResNet-50 stream's
#: (2-core host, medians of 9): k = 1, 4608 steps x 512 chunks, tiles of 64
#: to 1024 steps 12.5-14.4 ms against 22.6-23.3 ms whole; k = 2, 2304
#: steps, 7.4-8.6 ms against 16.3 ms whole.
_TRANSPOSE_STEPS = 256


def _decode_band_vectorized(bit_bytes: np.ndarray, table_len: np.ndarray,
                            table_value: np.ndarray, symbols: np.ndarray,
                            bit_offsets: np.ndarray, tuple_counts: np.ndarray,
                            chunk_ends: np.ndarray) -> np.ndarray:
    """Decode consecutive chunks as a vectorized row walk.

    Every step advances all chunk cursors by one tuple with three NumPy
    calls: gather the 16-bit window under each cursor into the step's row of
    one whole-stream ``(steps, chunks)`` ``uint16`` record (2 B per tuple),
    gather the windows' ``int64`` code lengths, and add them to the ``int64``
    cursors.  After the walk the bit windows are freed, one contiguous
    ``int32`` gather turns the record into window values (unused windows map
    to -1), and a tiled gather through the ``(U, k)`` symbol table (a plain
    copy for ``k = 1``, whose values are the symbols) widens them once into
    the chunk-major ``int64`` output.  Every chunk but the
    last holds the same number of tuples; a shorter last chunk walks on
    harmlessly past its end, its surplus tuples are left out of the output
    and the checks, and its cursor is re-derived from its own windows'
    lengths.  A chunk is corrupt unless it ends exactly on its recorded
    boundary (checked first) with no unused window among its tuples (an
    unused window has length 0, so without that check a chunk that reached
    its end early could stall on the boundary and pass).
    """
    width = bit_offsets.size
    steps = int(tuple_counts[0])
    tail = int(tuple_counts[-1])
    windows = _bit_windows(bit_bytes)
    cursors = bit_offsets.astype(np.int64)
    lengths = np.empty(width, dtype=np.int64)
    walked = np.empty((steps, width), dtype=np.uint16)
    # "clip" skips take's buffered bounds check: a window always indexes the
    # 64K tables, and a corrupt chunk that drifts past the stream end fails
    # the boundary check below anyway
    for row in walked:
        windows.take(cursors, out=row, mode="clip")
        table_len.take(row, out=lengths, mode="clip")
        cursors += lengths
    del windows, row  # the last row is a view that would keep the record alive
    if tail < steps:
        cursors[-1] = bit_offsets[-1] + int(table_len.take(walked[:tail, -1]).sum())
    if not np.array_equal(cursors, chunk_ends):
        raise _corrupt("chunk did not decode to its recorded boundary")
    values = table_value.take(walked)
    del walked
    if min(values[:, :-1].min(initial=0), values[:tail, -1].min()) < 0:
        raise _corrupt("bit window matches no codeword")
    k = symbols.shape[1]
    out = np.empty((width, steps, k), dtype=np.int64)
    for step0 in range(0, steps, _TRANSPOSE_STEPS):
        step1 = step0 + _TRANSPOSE_STEPS
        out[:, step0:step1] = _widen(values[step0:step1].T, symbols)
    return out.reshape(-1)[:((width - 1) * steps + tail) * k]


def _decode_chunks(bit_bytes: np.ndarray, tables: "tuple[np.ndarray, ...]",
                   bit_offsets: np.ndarray, tuple_counts: np.ndarray,
                   chunk_ends: np.ndarray) -> np.ndarray:
    """Decode a stream's chunks in-thread with the kernel that suits them.

    Returns every symbol of their tuples, pad included.  ``bit_offsets`` and
    ``chunk_ends`` are bit positions in ``bit_bytes``.  A one-tuple code
    spends no bits, so its chunks are filled, not walked.
    """
    symbols = tables[2]
    if symbols.shape[0] == 1:
        return np.tile(symbols[0], int(tuple_counts.sum()))
    kernel = _decode_scalar if bit_offsets.size < _MIN_VECTOR_CHUNKS \
        else _decode_band_vectorized
    return kernel(bit_bytes, *tables, bit_offsets, tuple_counts, chunk_ends)


def _check_pad(padded: np.ndarray, count: int, lo: int) -> np.ndarray:
    """The first ``count`` symbols, once the last tuple's pad proves to be ``lo``."""
    if np.any(padded[count:] != lo):
        raise _corrupt("the last tuple is not padded with the smallest symbol")
    return padded[:count]


class _Header(NamedTuple):
    """A parsed HUF4 header: everything but the code bits."""

    lo: int
    k: int
    count: int
    tables: "tuple | None"     # from _decode_tables; None for an empty stream
    bit_offsets: np.ndarray    # per chunk, int64
    tuple_counts: np.ndarray   # per chunk, int64
    chunk_ends: np.ndarray     # per chunk, int64
    bits_at: int               # byte offset of the code bits
    length: int                # total stream bytes


def _parse_header(view: memoryview, check_count: "Callable[[int], None] | None") -> _Header:
    """Parse and check the header of a whole HUF4 stream (CRC excluded).

    Each field is checked before anything is sized by it: ``check_count``
    (the enclosing container's rule for the symbol count) runs on the fixed
    fields, the bitmap is read only once all of it is present, and so on.
    """
    lo, width, k, count, chunk, n_chunks = _HEADER.unpack_from(view, _PREFIX_LEN)
    if check_count is not None:
        check_count(count)
    if count == 0:
        if (lo, width, k, chunk, n_chunks) != (0, 0, 1, 0, 0):
            raise _corrupt("empty stream declares symbols, tuples or chunks")
        return _Header(0, 1, 0, None, *np.zeros((3, 0), dtype=np.int64),
                       _FIXED_LEN, _FIXED_LEN)
    if width == 0 or k not in _tuple_sizes(width):
        raise _corrupt(f"{k}-symbol tuples break the tuple rule for W = {width}")
    n_tuples = -(-count // k)
    if chunk < 1 or n_chunks != -(-n_tuples // chunk):
        raise _corrupt(f"{n_chunks} chunks cannot cover {n_tuples} tuples "
                       f"at {chunk} tuples per chunk")
    map_len = _bitmap_bytes(width, k)
    if view.nbytes - _FIXED_LEN < map_len:
        raise _corrupt(f"stream truncated inside the header ({view.nbytes} bytes)")
    used = _used_tuples(np.frombuffer(view[_FIXED_LEN:_FIXED_LEN + map_len],
                                      dtype=np.uint8), width ** k).size
    at = _FIXED_LEN + map_len + _length_bytes(used)
    if view.nbytes - at < 4 * n_chunks:
        raise _corrupt(f"stream truncated inside the header ({view.nbytes} bytes)")
    chunk_bits = np.frombuffer(view[at:at + 4 * n_chunks], dtype="<u4").astype(np.int64)
    tuple_counts = np.full(n_chunks, chunk, dtype=np.int64)
    tuple_counts[-1] = n_tuples - (n_chunks - 1) * chunk
    per_tuple = (1, MAX_CODE_LENGTH) if used > 1 else (0, 0)
    if np.any(chunk_bits < tuple_counts * per_tuple[0]) or \
            np.any(chunk_bits > tuple_counts * per_tuple[1]):
        raise _corrupt(f"chunk bit lengths fall outside {per_tuple[0]} to "
                       f"{per_tuple[1]} bits per tuple")
    # a bad code table fails here
    tables = _decode_tables(lo, width, k, bytes(view[_FIXED_LEN:at]))
    chunk_ends = np.cumsum(chunk_bits)
    bits_at = at + 4 * n_chunks
    return _Header(lo, k, count, tables, chunk_ends - chunk_bits, tuple_counts,
                   chunk_ends, bits_at, bits_at + ((int(chunk_ends[-1]) + 7) >> 3))


def _decode_reference(payload: bytes) -> np.ndarray:
    """Decode a whole stream with :func:`_decode_scalar` at any chunk count.

    The reference the tests hold the default :meth:`HuffmanCoder.decode`
    against for equality, and ``benchmarks/bench_timing.py`` for speed.
    """
    head = HuffmanCoder._parse(payload, None)
    if head.count == 0:
        return np.zeros(0, dtype=np.int64)
    tables = head.tables
    if tables[2].shape[0] == 1:
        return _check_pad(np.tile(tables[2][0], int(head.tuple_counts.sum())),
                          head.count, head.lo)
    return _check_pad(_decode_scalar(np.frombuffer(payload, dtype=np.uint8, offset=head.bits_at),
                                     *tables, head.bit_offsets, head.tuple_counts,
                                     head.chunk_ends),
                      head.count, head.lo)


#: Bytes of packing scratch per tuple of a group: the int64 codes, lengths,
#: end bits and start bytes :func:`_pack_codes` holds at once (the float64
#: copy of the weights :func:`numpy.bincount` makes takes the place of the
#: two it has freed by then).
_PACK_SCRATCH_PER_TUPLE = 32
#: Bytes of packing scratch per output byte of a group: the float64 field
#: sums, then the uint32 fields plus two uint32 lanes, and the uint8 result
#: with the band copies cut from it.
_PACK_SCRATCH_PER_BYTE = 16


def _pack_codes(codes: np.ndarray, lengths: np.ndarray, lead: int) -> np.ndarray:
    """Pack ``codes`` of ``lengths`` bits MSB-first behind ``lead`` zero bits.

    A code of at most 16 bits starting at bit ``s`` lies inside the 24-bit
    big-endian field of bytes ``s >> 3`` to ``(s >> 3) + 2``.  Shifted into
    that field, the codes starting in one byte never overlap, so their sum is
    their OR: :func:`numpy.bincount` adds up one field per start byte (exact
    in float64, every sum is below ``2**24``), and each output byte ORs the
    high, middle and low 8 bits of the fields starting 0, 1 and 2 bytes
    earlier.  Returns ``ceil((lead + sum(lengths)) / 8)`` bytes.  Both int64
    arguments are overwritten.
    """
    ends = np.cumsum(lengths)
    ends += lead
    n_bytes = (int(ends[-1]) + 7) >> 3
    heads = ends - lengths
    heads >>= 3
    # the shift into the field is 24 - (start & 7) - length = 24 + 8 * head - end
    np.left_shift(heads, 3, out=lengths)
    lengths += 24
    lengths -= ends
    codes <<= lengths
    del ends, lengths
    fields = np.zeros(n_bytes + 2, dtype=np.uint32)
    fields[2:] = np.bincount(heads, weights=codes, minlength=n_bytes)
    del heads, codes
    packed = fields[2:] >> 16
    lane = fields[1:-1] >> 8
    lane &= 0xFF
    packed |= lane
    np.bitwise_and(fields[:-2], 0xFF, out=lane)
    packed |= lane
    return packed.astype(np.uint8)


class _Code(NamedTuple):
    """One tuple size's candidate code for a stream, priced exactly."""

    k: int
    used: np.ndarray      # used tuple indices, ascending
    lengths: np.ndarray   # their code lengths (0 for a lone tuple)
    chunk: int            # tuples per full chunk
    n_chunks: int
    stream_length: int    # exact stream bytes


def _price(k: int, hist: np.ndarray, width: int, count: int, chunk_size: int) -> _Code:
    """The code a ``k``-tuple histogram builds, and its exact stream length."""
    used = np.flatnonzero(hist)
    freq = hist[used]
    lengths = _code_lengths(freq)
    n_tuples = -(-count // k)
    if used.size == 1:  # no code bits: nothing to decode in parallel
        chunk = min(n_tuples, _MAX_CHUNK_TUPLES)
    else:
        chunk = min(chunk_size, max(_MIN_CHUNK_TUPLES, n_tuples // _TARGET_CHUNKS))
    n_chunks = -(-n_tuples // chunk)
    bits = int(np.dot(freq, lengths))
    length = _FIXED_LEN + _bitmap_bytes(width, k) + _length_bytes(used.size) \
        + 4 * n_chunks + -(-bits // 8)
    return _Code(k, used, lengths, chunk, n_chunks, length)


def _tuple_indices(rel: np.ndarray, width: int, k: int) -> np.ndarray:
    """Tuple indices of ``rel`` (symbols minus ``lo``), padding with 0."""
    if k == 1:
        return rel
    n_tuples = -(-rel.size // k)
    if n_tuples * k != rel.size:
        rel = np.concatenate([rel, np.zeros(n_tuples * k - rel.size, dtype=np.int64)])
    rows = rel.reshape(n_tuples, k)
    index = rows[:, 0] * width
    for i in range(1, k - 1):
        index += rows[:, i]
        index *= width
    index += rows[:, k - 1]
    return index


class ChunkBandProducer:
    """Band-by-band encoder for HUF4 streams.

    The encoder has every symbol in memory before the first bit is packed,
    so after one symbol pass (used range, tuples, histogram, code lengths,
    canonical codes, chunk geometry) the *entire* header — code table, chunk
    bit lengths and with them the stream length — is pinned:
    :attr:`pinned_header` and :attr:`stream_length` are available before any
    band exists.  :meth:`bands` then packs groups of whole chunks and emits
    each chunk's packed code bits in chunk order, cut at byte boundaries so
    the concatenated bands are the stream's packed bits byte for byte.

    Packing a group of whole chunks (:data:`_PACK_GROUP_TUPLES` tuples, or
    one larger chunk) instead of the whole stream bounds the packing scratch:
    :attr:`peak_scratch_bytes` reports its analytic high-water mark.

    The one field that cannot be pinned early is the stream CRC-32 at byte
    offset 4: it covers the packed bands, so :meth:`magic_and_crc` only
    becomes available once :meth:`bands` is exhausted.
    :meth:`HuffmanCoder.assemble` writes the bands behind the pinned header
    and the prefix last.
    """

    def __init__(self, symbols: np.ndarray,
                 chunk_size: int = DEFAULT_CHUNK_TUPLES) -> None:
        _check_chunk_size(chunk_size)
        symbols = np.ascontiguousarray(symbols).ravel()
        self._count = count = symbols.size
        self._crc: "int | None" = None
        self._bands_done = False
        self.peak_scratch_bytes = 0
        if count == 0:
            self.n_chunks = 0
            self.code_lengths: "bytes | None" = None
            self.pinned_header = _HEADER.pack(0, 0, 1, 0, 0, 0)
            self.stream_length = _FIXED_LEN
            self._total_bits = 0
            return
        lo, hi = int(symbols.min()), int(symbols.max())
        if lo < 0:
            raise ValueError("Huffman symbols must be non-negative")
        if hi > 0xFFFFFFFF:
            raise ValueError("Huffman symbols must be below 2**32 (stored as u32)")
        width = hi - lo + 1
        rel = np.subtract(symbols, lo, dtype=np.int64)
        sizes = _tuple_sizes(width)
        k_top = sizes[-1]
        index = _tuple_indices(rel, width, k_top)
        hist = np.bincount(index, minlength=width ** k_top)
        code = _price(k_top, hist, width, count, chunk_size)
        if len(sizes) > 1:
            # the singles histogram is the sum of the tuple marginals, minus the pad
            grid = hist.reshape((width,) * k_top)
            singles = sum(grid.sum(axis=tuple(j for j in range(k_top) if j != i))
                          for i in range(k_top))
            singles[0] -= -count % k_top
            single = _price(1, singles, width, count, chunk_size)
            saved_steps = count - index.size
            if (code.stream_length - single.stream_length) * _STEPS_PER_BYTE > saved_steps:
                code, index = single, rel
        del rel, hist
        self._index = index
        self.k = k = code.k
        self._chunk = chunk = code.chunk
        self.n_chunks = code.n_chunks
        self.stream_length = code.stream_length
        self.code_lengths = code.lengths.astype(np.uint8).tobytes()

        # per tuple index: its canonical code and length (dense over W**k)
        self._codes = np.zeros(width ** k, dtype=np.int64)
        self._lengths = np.zeros(width ** k, dtype=np.int64)
        if code.used.size > 1:
            order, left = _canonical(code.lengths)
            self._codes[code.used[order]] = left >> (MAX_CODE_LENGTH - code.lengths[order])
            self._lengths[code.used] = code.lengths
        n_tuples = index.size
        starts = np.arange(0, n_tuples, chunk, dtype=np.int64)
        chunk_bits = np.add.reduceat(self._lengths.astype(np.uint8)[index], starts,
                                     dtype=np.int64)
        self._chunk_ends = chunk_ends = np.cumsum(chunk_bits)
        self._total_bits = total_bits = int(chunk_ends[-1])

        bitmap = np.zeros(width ** k, dtype=bool)
        bitmap[code.used] = True
        nibbles = (code.lengths - 1).astype(np.uint8)
        if nibbles.size % 2:
            nibbles = np.append(nibbles, np.uint8(0))
        self.pinned_header = b"".join([
            _HEADER.pack(lo, width, k, count, chunk, code.n_chunks),
            np.packbits(bitmap).tobytes(),
            ((nibbles[0::2] << 4) | nibbles[1::2]).tobytes() if code.used.size > 1 else b"",
            chunk_bits.astype("<u4").tobytes()])

        # the widest group bounds the packing scratch: its tuples and the
        # bytes from the one its first bit lands in to the one its last does
        self._group = group = max(1, _PACK_GROUP_TUPLES // chunk)
        if total_bits:
            group_ends = chunk_ends[group - 1::group]
            if group_ends.size * group < self.n_chunks:
                group_ends = np.append(group_ends, total_bits)
            group_bytes = ((group_ends + 7) >> 3) - (np.append(0, group_ends[:-1]) >> 3)
            self.peak_scratch_bytes = min(group * chunk, n_tuples) * _PACK_SCRATCH_PER_TUPLE \
                + int(group_bytes.max()) * _PACK_SCRATCH_PER_BYTE

    def bands(self):
        """Yield each chunk's packed code bits, one group of chunks at a time.

        Bands are cut at byte boundaries (a group's open last byte carries
        into the next group; the final band is zero-padded), so their
        concatenation equals the packed bits byte for byte.  A stream without
        code bits yields no band.  The running CRC-32 folds each band in as
        it is yielded; :meth:`magic_and_crc` unlocks when the generator is
        exhausted.
        """
        crc = zlib.crc32(self.pinned_header)
        if self._total_bits:
            cuts = self._chunk_ends >> 3
            cuts[-1] = (self._total_bits + 7) >> 3
            bit0 = carry = 0
            for g0 in range(0, self.n_chunks, self._group):
                g1 = min(g0 + self._group, self.n_chunks)
                index = self._index[g0 * self._chunk:g1 * self._chunk]
                packed = _pack_codes(self._codes[index], self._lengths[index], bit0 & 7)
                packed[0] |= carry
                lo = 0
                for hi in cuts[g0:g1] - (bit0 >> 3):
                    band = packed[lo:hi].tobytes()
                    crc = zlib.crc32(band, crc)
                    yield band
                    lo = hi
                bit0 = int(self._chunk_ends[g1 - 1])
                carry = int(packed[-1]) if bit0 & 7 else 0
        self._crc = crc
        self._bands_done = True

    def magic_and_crc(self) -> bytes:
        """The 8-byte stream prefix (magic + CRC-32 of everything after it).

        The CRC covers the packed bands, so this is only available once
        :meth:`bands` has been exhausted.
        """
        if not self._bands_done:
            raise ValueError("the HUF4 CRC covers the packed bands; drain "
                             "bands() before reading the stream prefix")
        return _MAGIC + struct.pack("<I", self._crc)


def _check_chunk_size(chunk_size: int) -> None:
    if not 1 <= chunk_size <= _MAX_CHUNK_TUPLES:
        raise ValueError(f"chunk_size must be in [1, {_MAX_CHUNK_TUPLES}] tuples "
                         f"(a chunk's bit length is a u32)")


class HuffmanCoder:
    """Encode/decode streams of non-negative integer symbols.

    ``chunk_size`` caps the number of tuples per chunk (the encoder may pick
    smaller chunks for short streams, see :data:`_TARGET_CHUNKS`).  Every
    encode builds a fresh code table from the stream's own histogram, and
    every decode runs in the calling thread.  Instances are stateless per
    call, thread-safe, and picklable.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_TUPLES) -> None:
        _check_chunk_size(chunk_size)
        self.chunk_size = int(chunk_size)

    # ------------------------------------------------------------------
    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode ``symbols`` (any integer dtype, values in [0, 2**32)) to bytes.

        The stream is assembled band by band through
        :class:`ChunkBandProducer` into one preallocated buffer, so the
        packing scratch is bounded by a group of chunks.
        """
        return self.assemble(ChunkBandProducer(symbols, self.chunk_size))

    @staticmethod
    def assemble(producer: ChunkBandProducer) -> bytes:
        """Drain ``producer`` into one contiguous stream buffer."""
        out = bytearray(producer.stream_length)
        pos = _PREFIX_LEN + len(producer.pinned_header)
        out[_PREFIX_LEN:pos] = producer.pinned_header
        for band in producer.bands():
            out[pos:pos + len(band)] = band
            pos += len(band)
        out[:_PREFIX_LEN] = producer.magic_and_crc()
        return bytes(out)

    # ------------------------------------------------------------------
    @staticmethod
    def _parse(payload, check_count: "Callable[[int], None] | None") -> _Header:
        """Check a whole stream's CRC, header and length; return the header.

        The CRC covers everything after itself, so any byte flip in the
        payload is detected here; the header checks are
        :func:`_parse_header`'s, and the payload must end exactly where the
        code bits do.
        """
        view = memoryview(payload)
        if view.nbytes < _FIXED_LEN:
            raise _corrupt(f"header needs {_FIXED_LEN} bytes, got {view.nbytes}")
        if bytes(view[:4]) != _MAGIC:
            raise _corrupt("bad magic (not a HUF4 stream)")
        (crc_stored,) = struct.unpack_from("<I", view, 4)
        if zlib.crc32(view[_PREFIX_LEN:]) != crc_stored:
            raise _corrupt("CRC-32 mismatch")
        head = _parse_header(view, check_count)
        if view.nbytes != head.length:
            raise _corrupt(f"stream holds {view.nbytes} bytes but its header "
                           f"and chunk lengths declare {head.length}")
        return head

    def decode(self, payload: bytes, check_count: "Callable[[int], None]") -> np.ndarray:
        """Decode a byte string produced by :meth:`encode` back to ``int64``.

        The whole stream decodes in the calling thread as one vectorized row
        walk; a stream of fewer than :data:`_MIN_VECTOR_CHUNKS` chunks runs
        the per-tuple scalar loop.  ``check_count`` (required) vets the
        declared symbol count before anything is sized by it.
        """
        head = self._parse(payload, check_count)
        if head.count == 0:
            return np.zeros(0, dtype=np.int64)
        return _check_pad(_decode_chunks(np.frombuffer(payload, dtype=np.uint8,
                                                       offset=head.bits_at),
                                         head.tables, head.bit_offsets,
                                         head.tuple_counts, head.chunk_ends),
                          head.count, head.lo)
