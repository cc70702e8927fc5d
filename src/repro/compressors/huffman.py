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

The encoder reads the symbols in their own integer dtype (SZ2 and SZ3 hand
it ``int32`` codes) and makes no widened copy of them: the ``intp`` tuple
indices come straight from the symbols (:func:`_tuple_indices`), each tuple's
code and length share one ``int32`` table entry, and the bits are packed in
``int32`` (:func:`_pack_codes`).

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

The chunks share one code table but decode independently, in the calling
thread, as vectorized NumPy "row walks": each step advances every walked
chunk's bit cursor by one tuple with three calls (gather the windows under
the cursors into one ``(steps, cursors)`` record, gather their ``int64`` code
lengths, add).  :meth:`HuffmanCoder.decode` takes one stream or a batch (a
FedSZ container decodes the streams of all its SZ2 and SZ3 tensors as one),
and the walks span streams: a stream of :data:`_SHARED_WALK_CHUNKS` chunks
or more walks alone on ``uint16`` windows, and narrower streams share a walk
(up to :data:`_SHARED_WALK_STREAMS` of them) whose ``int32`` windows carry
each stream's offset into the walk's concatenated tables, so a step stays
three calls however many streams it serves.  After a walk one gather maps the record to window values and one
gather per stream through its ``(U, k)`` symbol table widens them into its
output (for ``k = 1`` the window table holds the symbols, so the widening is
a copy).  A walk narrower than :data:`_MIN_VECTOR_CHUNKS` cursors costs more
in per-step dispatch than it saves, so its streams run the per-tuple loop
(:func:`_decode_scalar`) instead; both kernels return identical symbols and
reject identical streams.  The output is ``int32`` (``int64`` only for a
stream whose range reaches past it): quantization codes stay under 65538.
The lookup tables are built once per stream; unused windows hold -1.  The
decoder is tested against the per-tuple oracle in
``tests/huffman_reference.py``.

A corrupted or truncated payload always raises :class:`ValueError` (a
:class:`StreamError` naming its place in the batch): every header field is
checked (``k`` against the rule, the chunk count against the
geometry, no bitmap bit at or past ``W**k``, each chunk between 1 and
:data:`MAX_CODE_LENGTH` bits per tuple), the CRC covers the whole payload, an
unused window is detected, every chunk must decode to exactly its boundary,
the pad must be ``lo``, and no byte may follow the code bits.  A one-tuple
stream spends no code bits, so nothing in a short payload bounds the count
it declares: the decoder therefore takes a required ``check_count``, the
caller's rule for that count, and runs it before anything is sized by the
count.  A batch checks every stream's CRC, header and count, then every code
table, before it sizes any window matrix or walk record; then each walk's
chunk boundaries, then its unused windows, then every stream's pad.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["HuffmanCoder", "ChunkBandProducer", "StreamError", "MAX_CODE_LENGTH",
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


class _CodeTable(NamedTuple):
    """A stream's checked code table, compact: one entry per window range.

    The code lengths cover the 16-bit windows in canonical order: entry
    ``i`` spans ``spans[i]`` windows, and a last entry with length 0 and
    value -1 spans the windows no code covers (a Kraft-incomplete table).
    A value is the window's used-tuple rank (``int32``) into ``symbols``,
    the ``(U, k)`` tuples; for ``k = 1`` that gather is folded in and the
    value is the symbol itself, which saves the walk a widening pass.
    Symbols, and so the decoded output, are ``int32`` unless the stream's
    range reaches past it (``int64`` then).  :func:`_walk` expands the
    entries into its 64K-window tables: ``int64`` code lengths, so it
    advances its ``int64`` cursors with a same-dtype add, and values (0.2 ms
    for a ResNet-50 tensor's table).
    """

    spans: np.ndarray     # int64
    lengths: np.ndarray   # int64
    values: np.ndarray
    symbols: np.ndarray


def _decode_tables(head: "_Header") -> _CodeTable:
    """The checked code table of a stream whose header :func:`_parse_header` read.

    A pad nibble that is not zero or code lengths that break the Kraft
    inequality raise :class:`ValueError`.  Tuple codes make matching tables
    rare across streams: an LRU of the expanded tables kept 89 distinct
    768 KB entries through one AlexNet delta run (68 MB) against the
    singles-only format's 33, so each stream builds its own.
    """
    lo, width, k = head.lo, head.width, head.k
    map_len = _bitmap_bytes(width, k)
    code_table = head.code_table
    used = _used_tuples(np.frombuffer(code_table, dtype=np.uint8, count=map_len),
                        width ** k)
    symbol_dtype = np.int32 if lo + width <= 1 << 31 else np.int64
    symbols = np.empty((used.size, k), dtype=symbol_dtype)
    rest = used.copy()
    for i in range(k - 1, -1, -1):
        rest, symbols[:, i] = np.divmod(rest, width)
    symbols += lo
    value_dtype = symbol_dtype if k == 1 else np.int32
    if used.size == 1:  # no code bits: the windows are never read
        none = np.zeros(0, dtype=np.int64)
        return _CodeTable(none, none, none.astype(value_dtype), symbols)
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
    values = symbols[order, 0] if k == 1 else order
    return _CodeTable(np.append(spans, uncovered), np.append(lengths[order], 0),
                      np.append(values, -1).astype(value_dtype), symbols)


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


class StreamError(ValueError):
    """A corrupt stream of a :meth:`HuffmanCoder.decode` batch.

    :attr:`index` is the stream's place in the batch, so a caller that
    decodes several payloads' streams at once can name the payload.
    """

    index = 0


def _blamed(index: int, error: ValueError) -> StreamError:
    """``error`` as a :class:`StreamError` of the batch's stream ``index``."""
    blamed = StreamError(str(error))
    blamed.index = index
    return blamed


#: Steps per tile of the gather that widens the walk's step-major window
#: values into chunk-major symbols.  Widening the whole record at once reads
#: a new cache line per tuple; a tile of 256 steps (512 KB of ``int32``
#: values at the encoder's 512-chunk width) stays in cache.  Value gather
#: plus widening on records shaped like the widest ResNet-50 stream's
#: (2-core host, medians of 9): k = 1, 4608 steps x 512 chunks, tiles of 64
#: to 1024 steps 12.5-14.4 ms against 22.6-23.3 ms whole; k = 2, 2304
#: steps, 7.4-8.6 ms against 16.3 ms whole.
_TRANSPOSE_STEPS = 256


class _Stream(NamedTuple):
    """One stream of a row walk: its place in the batch, header, code table
    and code bits."""

    index: int
    head: "_Header"
    code: _CodeTable
    bits: np.ndarray   # the code bits, uint8


def _shared_windows(streams: "list[_Stream]") -> "tuple[np.ndarray, list[int]]":
    """The ``int32`` bit windows of several streams in one array, and each
    stream's first bit in it.

    Stream ``g``'s windows carry ``g << 16``: its offset into the walk's
    concatenated 64K window tables, folded in here so that a step still
    gathers lengths with one ``take``.
    """
    windows = np.empty(8 * sum(s.bits.size for s in streams), dtype=np.int32)
    starts = []
    at = 0
    for g, stream in enumerate(streams):
        starts.append(at)
        section = windows[at:at + 8 * stream.bits.size]
        np.add(_bit_windows(stream.bits), np.int32(g << MAX_CODE_LENGTH), out=section)
        at += section.size
    return windows, starts


def _walk(streams: "list[_Stream]") -> "list[np.ndarray]":
    """Decode every chunk of ``streams`` in one vectorized row walk.

    Returns each stream's symbols, pad included.  Every step advances all
    cursors by one tuple with three NumPy calls: gather the 16-bit window
    under each cursor into the step's row of one ``(steps, cursors)``
    record, gather the windows' ``int64`` code lengths, and add them to the
    ``int64`` cursors.  A stream that walks alone does so on ``uint16``
    windows (2 B of record per tuple) through its own tables.  Streams that
    share a walk concatenate their tables and walk on ``int32`` windows
    that carry each stream's table offset (:func:`_shared_windows`).

    The walk takes as many steps as the longest chunk.  A chunk that holds
    fewer tuples walks on harmlessly past its end: its cursor is read after
    its own count of steps, and its surplus tuples are left out of the
    output and the checks.  After the walk the bit windows are freed, one
    gather turns the record into window values (unused windows map to -1),
    and a tiled gather through each stream's ``(U, k)`` symbol table (a
    plain copy for ``k = 1``, whose values are the symbols) widens its
    columns into its chunk-major output.  A chunk is corrupt unless it ends
    exactly on its recorded boundary (checked first, for every stream) with
    no unused window among its tuples (an unused window has length 0, so
    without that check a chunk that reached its end early could stall on
    the boundary and pass).
    """
    # every stream's ranges span its 64K windows, so one repeat lays the
    # streams' tables end to end
    spans = np.concatenate([s.code.spans for s in streams])
    table_len = np.repeat(np.concatenate([s.code.lengths for s in streams]), spans)
    table_value = np.repeat(np.concatenate([s.code.values for s in streams]), spans)
    if len(streams) == 1:
        windows, starts = _bit_windows(streams[0].bits), [0]
    else:
        windows, starts = _shared_windows(streams)
    cursors = np.concatenate([at + s.head.bit_offsets for at, s in zip(starts, streams)])
    # each chunk's recorded end, less its cursor once it has walked its tuples
    missed = np.concatenate([at + s.head.chunk_ends for at, s in zip(starts, streams)])
    counts = np.concatenate([s.head.tuple_counts for s in streams])
    walked = np.empty((int(counts.max()), cursors.size), dtype=windows.dtype)
    lengths = np.empty(cursors.size, dtype=np.int64)
    # "clip" skips take's buffered bounds check: a window always indexes the
    # tables, and a corrupt chunk that drifts past the stream end fails the
    # boundary check below anyway
    step = 0
    for stop in np.unique(counts).tolist():
        for row in walked[step:stop]:
            windows.take(cursors, out=row, mode="clip")
            table_len.take(row, out=lengths, mode="clip")
            cursors += lengths
        done = counts == stop
        missed[done] -= cursors[done]
        step = stop
    del windows, row  # the last row is a view that would keep the record alive
    columns = np.cumsum([0] + [s.head.bit_offsets.size for s in streams])
    for s, c0, c1 in zip(streams, columns[:-1], columns[1:]):
        if np.any(missed[c0:c1]):
            raise _blamed(s.index, _corrupt("chunk did not decode to its recorded boundary"))
    values = table_value.take(walked)
    del walked
    decoded = []
    for s, c0, c1 in zip(streams, columns[:-1], columns[1:]):
        steps, tail = int(s.head.tuple_counts[0]), int(s.head.tuple_counts[-1])
        own = values[:steps, c0:c1]
        if min(own[:, :-1].min(initial=0), own[:tail, -1].min()) < 0:
            raise _blamed(s.index, _corrupt("bit window matches no codeword"))
        symbols = s.code.symbols
        k = symbols.shape[1]
        out = np.empty((c1 - c0, steps, k), dtype=symbols.dtype)
        for step0 in range(0, steps, _TRANSPOSE_STEPS):
            step1 = step0 + _TRANSPOSE_STEPS
            out[:, step0:step1] = _widen(own[step0:step1].T, symbols)
        decoded.append(out.reshape(-1)[:((c1 - c0 - 1) * steps + tail) * k])
    return decoded


#: A stream of at least this many chunks fills a row walk alone.  Narrower
#: streams whose chunks hold at most ``_MIN_CHUNK_TUPLES`` tuples (the
#: encoder's chunks for any stream under ``_TARGET_CHUNKS * _MIN_CHUNK_TUPLES``
#: tuples) share walks, in batch order, and a shared walk closes once it
#: holds this many cursors; so its record never exceeds ``_MIN_CHUNK_TUPLES``
#: steps by ``2 * _SHARED_WALK_CHUNKS`` cursors.  A walk step costs ~1.8 us
#: at 128 cursors and ~3 us at 512, so the 7 streams of a round-workload
#: ship (6 of fewer than 16 chunks, one of 55-77) cost one walk of 1,024
#: steps over 90-128 cursors instead of seven.  Huffman decode per warm
#: ship of that workload (2-core host, one thread, 12 ships, best of 5,
#: medians over 3 runs): a walk per stream 13.4-15.4 ms, shared walks
#: 7.1-7.2 ms.  Over a ResNet-50 pass's 8 containers (best of 7 each): a
#: walk per stream 438 ms, this line 281 ms, and every narrow stream in
#: shared walks (no line) 338 ms.
_SHARED_WALK_CHUNKS = 256

#: A shared walk also closes once it holds this many streams, since each
#: brings 768 KB of 64K-window tables: 300 one-chunk streams of 45 bytes
#: in one walk held 193 MiB of tables.  A round-workload ship shares one
#: walk among its 7 streams; a ResNet-50 slice's shared walks hold 2-3.
_SHARED_WALK_STREAMS = 8


def _walks(streams: "list[_Stream]") -> "list[list[_Stream]]":
    """``streams`` grouped into row walks (see :data:`_SHARED_WALK_CHUNKS`
    and :data:`_SHARED_WALK_STREAMS`)."""
    walks: "list[list[_Stream]]" = []
    shared: "list[_Stream]" = []
    width = 0
    for stream in streams:
        chunks = stream.head.bit_offsets.size
        if chunks >= _SHARED_WALK_CHUNKS or stream.head.tuple_counts[0] > _MIN_CHUNK_TUPLES:
            walks.append([stream])
            continue
        shared.append(stream)
        width += chunks
        if width >= _SHARED_WALK_CHUNKS or len(shared) == _SHARED_WALK_STREAMS:
            walks.append(shared)
            shared, width = [], 0
    if shared:
        walks.append(shared)
    return walks


#: A walk of fewer cursors than this is narrower than its own per-step
#: dispatch overhead, and its streams decode one by one in
#: :func:`_decode_scalar` instead.  The loop costs ~0.1 us per tuple plus
#: ~0.1 ms per stream; a walk step 1.3-3 us, nearly flat up to ~32 cursors.
#: Scalar time over walk time, medians of 21 runs, SZ2 codes of a
#: ResNet-50 conv tensor at 1024 tuples per chunk, 2-core x86 host (range
#: over three runs), k = 1: 1 chunk 0.06-0.07, 4 chunks 0.27-0.37, 8
#: chunks 0.34-0.56, 12 chunks 0.81-1.52, 16 chunks 0.95-1.26, 24 chunks
#: 1.70-2.17, 32 chunks 1.71-2.48; k = 2: 8 chunks 0.72-0.75, 12 chunks
#: 0.81-1.09, 16 chunks 1.20-1.56, 24 chunks 1.88-3.40.  The test suite's
#: small models decode in narrow walks: Huffman decode over the tier-1
#: suite (11,603 streams) took 19.5 s with every group walked, against
#: 7.3 s before streams shared walks, and 9.9 s with this loop.  A
#: round-workload ship walks 90-128 cursors; a ResNet-50 pass walks 128-512
#: and leaves two groups of 2 and 4 cursors to the loop.
_MIN_VECTOR_CHUNKS = 16


def _decode_scalar(stream: _Stream) -> np.ndarray:
    """Sequential per-tuple decode of one stream's chunks, pad included.

    Per chunk, one gather lists the code length at every bit position of
    the chunk's span; the loop hops from code start to code start through
    that list, and the starts' window values widen into symbols.  It
    rejects what the walk rejects: a chunk that does not end exactly on its
    recorded boundary, or an unused window among its tuples.
    """
    head, code = stream.head, stream.code
    table_len = np.repeat(code.lengths, code.spans)
    table_value = np.repeat(code.values, code.spans)
    windows = _bit_windows(stream.bits)
    symbols = code.symbols
    out = np.empty((int(head.tuple_counts.sum()), symbols.shape[1]), dtype=symbols.dtype)
    base = 0
    for start, end, n_tuples in zip(head.bit_offsets.tolist(), head.chunk_ends.tolist(),
                                    head.tuple_counts.tolist()):
        local = windows[start:end]
        hops = table_len.take(local).tolist()
        starts = [0] * n_tuples
        pos = 0
        for i in range(n_tuples):
            if pos >= end - start:
                raise _blamed(stream.index, _corrupt("chunk decoded past its recorded boundary"))
            hop = hops[pos]
            if not hop:
                raise _blamed(stream.index, _corrupt("bit window matches no codeword"))
            starts[i] = pos
            pos += hop
        if pos != end - start:
            raise _blamed(stream.index, _corrupt("chunk did not decode to its recorded boundary"))
        out[base:base + n_tuples] = _widen(table_value.take(local.take(starts)), symbols)
        base += n_tuples
    return out.reshape(-1)


def _check_pad(padded: np.ndarray, count: int, lo: int) -> np.ndarray:
    """The first ``count`` symbols, once the last tuple's pad proves to be ``lo``."""
    if np.any(padded[count:] != lo):
        raise _corrupt("the last tuple is not padded with the smallest symbol")
    return padded[:count]


class _Header(NamedTuple):
    """A parsed HUF4 header: everything but the code bits."""

    lo: int
    width: int
    k: int
    count: int
    code_table: "memoryview | None"  # the bitmap and length nibbles (None: empty stream)
    used: int                  # used tuples
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
        return _Header(0, 0, 1, 0, None, 0, *np.zeros((3, 0), dtype=np.int64),
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
    chunk_ends = np.cumsum(chunk_bits)
    bits_at = at + 4 * n_chunks
    return _Header(lo, width, k, count, view[_FIXED_LEN:at], used,
                   chunk_ends - chunk_bits, tuple_counts, chunk_ends, bits_at,
                   bits_at + ((int(chunk_ends[-1]) + 7) >> 3))


#: Bytes of packing scratch per tuple of a group: the ``int32`` fields and
#: positions :func:`_pack_codes` is handed, the ``intp`` start bytes and the
#: float64 copy of the fields that :func:`numpy.bincount` makes.
_PACK_SCRATCH_PER_TUPLE = 24
#: Bytes of packing scratch per output byte of a group: the float64 field
#: sums with their ``uint32`` cast, then the cast and the ``uint8`` result,
#: and the band copies cut from it.
_PACK_SCRATCH_PER_BYTE = 14


def _pack_codes(fields: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Pack tuple codes MSB-first into bytes.

    ``fields`` holds each tuple's code left-aligned in a 24-bit field (the
    code shifted left by ``24 - length``, see :class:`ChunkBandProducer`),
    and ``positions`` (``int32``) is one longer: the lead bits before the
    first code, then each code's length.

    A code of at most 16 bits starting at bit ``s`` lies inside the 24-bit
    big-endian field of bytes ``s >> 3`` to ``(s >> 3) + 2``: its field
    shifted right by ``s & 7``.  That stays below ``2**24``, so nothing
    needs more than ``int32``; a group's bit offsets, at most 16 bits per
    tuple of ``max(_PACK_GROUP_TUPLES, tuples / _TARGET_CHUNKS)``, stay far
    below ``2**31`` too.  The codes starting in one byte never overlap, so
    their sum is their OR: :func:`numpy.bincount` adds up one field per
    start byte (exact in float64), and output byte ``j`` ORs the high,
    middle and low bytes of the sums starting at ``j``, ``j - 1`` and
    ``j - 2``.  Returns ``ceil(total bits / 8)`` bytes.  Both arguments are
    overwritten.
    """
    np.cumsum(positions, out=positions)       # each code's start bit, then the end
    n_bytes = (int(positions[-1]) + 7) >> 3
    starts = positions[:-1]
    heads = np.right_shift(starts, 3, dtype=np.intp)
    np.bitwise_and(starts, 7, out=starts)
    fields >>= starts
    sums = np.bincount(heads, weights=fields, minlength=n_bytes).astype("<u4")
    del heads
    lanes = sums.view(np.uint8)               # little-endian: byte m of sum j at 4j + m
    packed = lanes[2::4].copy()
    packed[1:] |= lanes[1::4][:-1]
    packed[2:] |= lanes[0::4][:-2]
    return packed


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


def _tuple_indices(symbols: np.ndarray, lo: int, width: int, k: int) -> np.ndarray:
    """The ``intp`` tuple indices of ``symbols`` over ``[lo, lo + width)``,
    the last tuple padded with ``lo``.

    The indices come straight from the symbols, ``sum s_i * W**(k-1-i)``
    with the offset ``lo * (W**k - 1) / (W - 1)`` subtracted once, so no
    copy of the symbols minus ``lo`` is made.  Every partial sum stays below
    ``2**32 * W**k <= 2**44``.
    """
    n_tuples = -(-symbols.size // k)
    full = symbols.size // k
    index = np.empty(n_tuples, dtype=np.intp)
    rows = symbols[:full * k].reshape(full, k)
    head = index[:full]
    if k == 1:
        np.subtract(rows[:, 0], lo, out=head, dtype=np.intp)
    else:
        np.multiply(rows[:, 0], width, out=head, dtype=np.intp)
        for i in range(1, k - 1):
            np.add(head, rows[:, i], out=head, dtype=np.intp)
            head *= width
        np.add(head, rows[:, k - 1], out=head, dtype=np.intp)
        head -= lo * sum(width ** i for i in range(k))
    if full < n_tuples:
        tail = [int(v) - lo for v in symbols[full * k:]]
        tail += [0] * (k - len(tail))
        index[-1] = sum(v * width ** (k - 1 - i) for i, v in enumerate(tail))
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
        sizes = _tuple_sizes(width)
        k_top = sizes[-1]
        if width == 1:
            # one symbol: one single-symbol tuple per symbol and no code
            # bits, so no tuple index is ever read
            index, hist = None, np.array([count])
        else:
            index = _tuple_indices(symbols, lo, width, k_top)
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
                del index  # before the singles' indices exist
                code, index = single, _tuple_indices(symbols, lo, width, 1)
        del hist
        self._index = index
        self.k = k = code.k
        self._chunk = chunk = code.chunk
        self.n_chunks = code.n_chunks
        self.stream_length = code.stream_length
        self.code_lengths = code.lengths.astype(np.uint8).tobytes()

        # per tuple index (dense over W**k), one int32 entry: its canonical
        # code left-aligned in a 24-bit field (code << (24 - length), the
        # 16-bit left-aligned code << 8), with its length in the low byte,
        # which the field leaves clear
        self._entries = np.zeros(width ** k, dtype=np.int32)
        n_tuples = -(-count // k)
        chunk_bits = np.zeros(self.n_chunks, dtype=np.int64)
        if code.used.size > 1:  # a lone tuple spends no bits
            order, left = _canonical(code.lengths)
            self._entries[code.used[order]] = left << 8
            lengths = np.zeros(width ** k, dtype=np.uint8)
            lengths[code.used] = code.lengths
            self._entries |= lengths
            # every chunk but the last holds `chunk` tuples: a row sum each,
            # which casts as it reads (reduceat would copy the tuples to int64)
            tuple_bits = lengths.take(index)
            whole = n_tuples // chunk
            tuple_bits[:whole * chunk].reshape(whole, chunk).sum(
                axis=1, dtype=np.int64, out=chunk_bits[:whole])
            if whole < self.n_chunks:
                chunk_bits[-1] = tuple_bits[whole * chunk:].sum(dtype=np.int64)
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
                fields = self._entries.take(index)
                positions = np.empty(index.size + 1, dtype=np.int32)
                positions[0] = bit0 & 7
                np.bitwise_and(fields, 0xFF, out=positions[1:])
                fields &= -0x100
                packed = _pack_codes(fields, positions)
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

    def decode(self, payload, check_count):
        """Decode what :meth:`encode` produced: one stream, or a batch.

        ``payload`` is one stream, or a list of streams that decode as one
        batch; ``check_count`` (required) is then one callable, or a list
        with one per stream, that vets its stream's declared symbol count.
        Returns the symbols, or a list of them in batch order: ``int32``,
        or ``int64`` for a stream whose range reaches past ``int32``.

        Every stream's CRC, header and count are checked before anything is
        sized, then every stream's code table.  The streams with code bits
        then decode in the calling thread, in the row walks :func:`_walks`
        groups them into (a walk under :data:`_MIN_VECTOR_CHUNKS` cursors
        runs :func:`_decode_scalar` per stream), and every stream's pad is
        checked last.  A stream that fails a check raises
        :class:`StreamError` with its place in the batch.
        """
        batch = isinstance(payload, (list, tuple))
        payloads = list(payload) if batch else [payload]
        checks = list(check_count) if batch else [check_count]
        if len(checks) != len(payloads):
            raise TypeError(f"{len(payloads)} streams need as many count checks, "
                            f"got {len(checks)}")
        heads = []
        for index, (stream, check) in enumerate(zip(payloads, checks)):
            try:
                heads.append(self._parse(stream, check))
            except ValueError as exc:
                raise _blamed(index, exc) from exc
        codes = []
        for index, head in enumerate(heads):
            try:
                codes.append(None if head.count == 0 else _decode_tables(head))
            except ValueError as exc:
                raise _blamed(index, exc) from exc
        decoded: "list[np.ndarray | None]" = [None] * len(heads)
        walked = []
        for index, (stream, head, code) in enumerate(zip(payloads, heads, codes)):
            if head.count == 0:
                decoded[index] = np.zeros(0, dtype=np.int32)
            elif head.used == 1:
                # a one-tuple code spends no bits: its chunks are filled, not walked
                decoded[index] = np.tile(code.symbols[0], int(head.tuple_counts.sum()))
            else:
                bits = np.frombuffer(stream, dtype=np.uint8, offset=head.bits_at)
                walked.append(_Stream(index, head, code, bits))
        for walk in _walks(walked):
            if sum(stream.head.bit_offsets.size for stream in walk) < _MIN_VECTOR_CHUNKS:
                for stream in walk:
                    decoded[stream.index] = _decode_scalar(stream)
            else:
                for stream, padded in zip(walk, _walk(walk)):
                    decoded[stream.index] = padded
        for index, head in enumerate(heads):
            try:
                decoded[index] = _check_pad(decoded[index], head.count, head.lo)
            except ValueError as exc:
                raise _blamed(index, exc) from exc
        return decoded if batch else decoded[0]
