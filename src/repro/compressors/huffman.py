"""Chunked canonical Huffman coding of integer symbol streams.

SZ2 and SZ3 entropy-code their quantization indices with Huffman before the
final lossless stage.  This module provides a self-contained canonical Huffman
coder over non-negative integer symbols:

* tree construction with :mod:`heapq` on the symbol histogram,
* code lengths limited to :data:`MAX_CODE_LENGTH` bits (package-merge style
  rebalancing by clamping and re-normalizing Kraft mass),
* vectorized encoding (every code scattered into the byte field at its
  cumulative bit offset, see :func:`_pack_codes`),
* table-driven decoding (a flat lookup table indexed by ``MAX_CODE_LENGTH``-bit
  windows, the classic fast canonical decoder).

Bitstream format (version 3)
----------------------------

The symbol stream is split into fixed-size chunks that share one global code
table but are *independently decodable*: a per-chunk ``(bit_offset,
symbol_count)`` index in the header lets the decoder enter the bitstream at
any chunk boundary.  All integers little-endian::

    4s    magic b"HUF3"
    u32   CRC-32 of everything after this field
    u32   alphabet size A
    u64   total symbol count
    u32   chunk size (symbols per full chunk)
    u32   number of chunks
    u8[A] per-symbol code lengths (0 = unused symbol)
    per chunk: u64 bit offset, u64 symbol count
    u64   total bit count
    u8[]  packed code bits (MSB-first)

The chunk index is what makes the decode side vectorizable *and* parallel.
All chunks of a band decode simultaneously as one vectorized NumPy "row
walk": each step advances every chunk's bit cursor by one decoded symbol, so
the sequential dependency only spans a chunk, not the stream.  A step is
three same-dtype NumPy calls (gather the windows under the cursors into one
whole-stream ``uint16`` record, gather their ``int64`` code lengths, add),
and the symbols come out of one contiguous ``int32`` gather through the
record after the walk.  Both lookup tables come from one LRU cache keyed by
the code-length table; the symbol table marks unused windows with -1.

* ``max_workers=1`` (or ``backend="serial"``) decodes the whole stream
  in-thread as one band, straight from the payload buffer,
* ``max_workers>1`` splits the chunk list into bands and dispatches the bands
  to the configured :class:`~repro.utils.parallel.ExecutionBackend` (threads
  or processes).  Each band is a self-contained, picklable work unit — the
  worker receives its slice of the packed bit stream, the code-length table,
  and the band's chunk index, and *returns* the decoded symbol band rather
  than mutating a shared output array, so the same task function runs
  unchanged on a thread pool or across a process boundary.

A band narrower than :data:`_MIN_VECTOR_CHUNKS` chunks is too narrow to pay
for the walk's per-step overhead and runs the per-symbol scalar loop
instead; both kernels return identical symbols and reject identical streams.

A corrupted or truncated payload always raises :class:`ValueError`: every
header field is bounds-checked, the CRC covers the whole payload, an unused
lookup-table window (a code that exists in no symbol's prefix set) is
detected, and every chunk must decode to exactly its recorded boundary.

The encoded payload is self-describing: it stores the code-length table so the
decoder needs no side channel.
"""

from __future__ import annotations

import functools
import heapq
import os
import struct
import zlib
from typing import Callable

import numpy as np

from repro.utils.bitstream import StreamBuffer
from repro.utils.parallel import ExecutionBackend, get_backend

__all__ = ["HuffmanCoder", "ChunkBandConsumer", "ChunkBandProducer",
           "MAX_CODE_LENGTH", "DEFAULT_CHUNK_SYMBOLS"]

#: Longest permitted codeword.  16 keeps the decode lookup table at 64K entries.
MAX_CODE_LENGTH = 16

#: Default (and cap) for symbols per chunk.  Streams much smaller than
#: ``DEFAULT_CHUNK_SYMBOLS * _TARGET_CHUNKS`` get proportionally smaller chunks
#: so the vectorized decoder still sees enough chunks to amortize per-step
#: dispatch overhead across a wide row.
DEFAULT_CHUNK_SYMBOLS = 1 << 16

#: The encoder aims for about this many chunks per stream (bounded by
#: ``chunk_size`` above and ``_MIN_CHUNK_SYMBOLS`` below).  More chunks mean a
#: wider vectorized row walk and more thread-pool parallelism; fewer chunks
#: mean less per-chunk index overhead (16 bytes each).
_TARGET_CHUNKS = 512
_MIN_CHUNK_SYMBOLS = 1024

#: Below this many chunks the vectorized row walk is narrower than its own
#: per-step dispatch overhead, and :func:`_decode_scalar` runs instead.  The
#: scalar loop costs ~0.1 us per symbol plus ~0.1 ms per stream; the walk
#: 1.3-3 us per step, nearly flat in the chunk count up to ~32 chunks.
#: Scalar time over walk time, medians of 21 interleaved runs, SZ2 codes of
#: a ResNet-50 conv tensor at the encoder's 1024-symbol chunks, 2-core x86
#: host (range over three runs; the host has fast and slow phases): 1 chunk
#: 0.06-0.07 (0.2 vs 3.5 ms), 2 chunks 0.09-0.15, 4 chunks 0.28-0.34,
#: 8 chunks 0.53-0.64, 12 chunks 0.78-0.93, 14 chunks 0.89-1.07, 16 chunks
#: 0.98-1.20, 24 chunks 1.45-1.73, 32 chunks 1.83-2.05.
_MIN_VECTOR_CHUNKS = 16

#: Symbols :meth:`ChunkBandProducer.bands` packs per group of whole chunks
#: (one chunk when a chunk is larger), which bounds the packing scratch.
_PACK_GROUP_SYMBOLS = 1 << 16

_MAGIC = b"HUF3"
_HEADER = struct.Struct("<IQII")  # alphabet, count, chunk_size, n_chunks
_PREFIX_LEN = 8                   # magic + crc32


def _build_code_lengths(frequencies: np.ndarray) -> np.ndarray:
    """Return per-symbol code lengths from a frequency histogram.

    Standard Huffman construction; lengths exceeding :data:`MAX_CODE_LENGTH`
    are clamped and the length table re-normalized so the Kraft inequality
    still holds (a slight loss of optimality, never of correctness).
    """
    symbols = np.flatnonzero(frequencies)
    lengths = np.zeros(frequencies.size, dtype=np.int64)
    if symbols.size == 0:
        return lengths
    if symbols.size == 1:
        lengths[symbols[0]] = 1
        return lengths

    # heap entries: (freq, tiebreak, node) where node is a symbol or [left, right]
    counter = 0
    heap: list[tuple[int, int, object]] = []
    for sym in symbols:
        heap.append((int(frequencies[sym]), counter, int(sym)))
        counter += 1
    heapq.heapify(heap)
    while len(heap) > 1:
        f1, _, n1 = heapq.heappop(heap)
        f2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (f1 + f2, counter, (n1, n2)))
        counter += 1

    # depth-first traversal assigning depths
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = max(depth, 1)

    if lengths.max() <= MAX_CODE_LENGTH:
        return lengths

    # Clamp over-long codes and restore the Kraft inequality by lengthening the
    # shortest codes until sum(2^-len) <= 1 again.
    lengths[lengths > MAX_CODE_LENGTH] = MAX_CODE_LENGTH
    used = np.flatnonzero(lengths)

    def kraft(ls: np.ndarray) -> float:
        return float(np.sum(2.0 ** (-ls[used].astype(np.float64))))

    while kraft(lengths) > 1.0:
        # lengthen the currently shortest codeword (cheapest in extra bits)
        candidates = used[lengths[used] < MAX_CODE_LENGTH]
        if candidates.size == 0:
            raise RuntimeError("cannot satisfy Kraft inequality within MAX_CODE_LENGTH")
        target = candidates[np.argmin(lengths[candidates])]
        lengths[target] += 1
    return lengths


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values given per-symbol lengths (0 = unused)."""
    codes = np.zeros(lengths.size, dtype=np.uint32)
    used = np.flatnonzero(lengths)
    if used.size == 0:
        return codes
    # canonical order: by (length, symbol)
    order = used[np.lexsort((used, lengths[used]))]
    code = 0
    prev_len = int(lengths[order[0]])
    for sym in order:
        length = int(lengths[sym])
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


def _corrupt(detail: str) -> ValueError:
    return ValueError(f"corrupt Huffman stream: {detail}")


def _require(payload: bytes, offset: int, needed: int, what: str) -> None:
    """Raise ``ValueError`` unless ``needed`` bytes remain at ``offset``."""
    if needed < 0 or offset + needed > len(payload):
        raise _corrupt(f"{what} needs {needed} bytes at offset {offset}, "
                       f"but only {max(len(payload) - offset, 0)} remain")


def _build_decode_tables(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(code length, symbol)`` tables over all 16-bit windows.

    Canonical codes are assigned in (length, symbol) order, which makes the
    per-code window ranges ``[code << pad, (code + 1) << pad)`` abut exactly
    starting at 0 — each table is one :func:`numpy.repeat` call.  Window
    values past the covered range (possible when Kraft mass was clamped away)
    are unused: length 0 and symbol -1, the decoder's "no such code" trap.
    Lengths are ``int64`` so the row walk advances its ``int64`` cursors with
    a same-dtype add; symbols are ``int32`` (``int64`` only for an alphabet
    past ``int32``), which halves the table the symbol gather reads.
    """
    used = np.flatnonzero(lengths)
    if used.size == 0:
        raise _corrupt("empty code-length table for a non-empty stream")
    if int(lengths[used].max()) > MAX_CODE_LENGTH:
        raise _corrupt(f"code length exceeds {MAX_CODE_LENGTH}")
    order = used[np.lexsort((used, lengths[used]))]
    spans = np.int64(1) << (MAX_CODE_LENGTH - lengths[order])
    covered = int(spans.sum())
    if covered > (1 << MAX_CODE_LENGTH):
        raise _corrupt("code-length table violates the Kraft inequality")
    sym_dtype = np.int32 if lengths.size <= 1 << 31 else np.int64
    table_len = np.zeros(1 << MAX_CODE_LENGTH, dtype=np.int64)
    table_sym = np.full(1 << MAX_CODE_LENGTH, -1, dtype=sym_dtype)
    table_len[:covered] = np.repeat(lengths[order], spans)
    table_sym[:covered] = np.repeat(order.astype(sym_dtype), spans)
    return table_len, table_sym


@functools.lru_cache(maxsize=128)
def _decode_tables_cached(length_table: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Memoized :func:`_build_decode_tables` keyed by the raw length-table bytes.

    Every band of one stream (and every stream re-using one code table, e.g.
    warm-codebook rounds) shares the same 64K-entry window tables, so the
    two ``np.repeat`` calls run once per distinct table per worker process
    instead of once per :func:`_decode_band_task`.  The cached arrays are
    marked read-only because they are shared across callers.
    """
    lengths = np.frombuffer(length_table, dtype=np.uint8).astype(np.int64)
    table_len, table_sym = _build_decode_tables(lengths)
    table_len.setflags(write=False)
    table_sym.setflags(write=False)
    return table_len, table_sym


def _bit_windows(bit_bytes: np.ndarray) -> np.ndarray:
    """The 16-bit decode window at every bit position, as flat ``uint16``.

    Row ``i`` of the ``(n_bytes, 8)`` matrix holds the windows starting in
    byte ``i``, so the flat index of the window at bit ``p`` is ``p`` itself
    and the row walk gathers it with a single ``take``.  Column ``k`` is the
    24-bit big-endian field of bytes ``i`` to ``i + 2`` shifted right by
    ``8 - k``; one contiguous shift per column, cast to ``uint16`` (the cast
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
    for k in range(8):
        np.right_shift(w24, 8 - k, out=windows[:, k], casting="unsafe")
    return windows.reshape(-1)


def _decode_scalar(bit_bytes: np.ndarray, table_len: np.ndarray,
                   table_sym: np.ndarray, bit_offsets: np.ndarray,
                   sym_counts: np.ndarray, chunk_ends: np.ndarray) -> np.ndarray:
    """Sequential per-symbol decode of consecutive chunks.

    The reference the row walk is tested against, and the faster kernel for
    bands narrower than :data:`_MIN_VECTOR_CHUNKS` chunks.  Per chunk, one
    gather lists the code length at every bit position of the chunk's span;
    the loop hops from code start to code start through that list, and one
    more gather turns the starts into symbols.
    """
    windows = _bit_windows(bit_bytes)
    out = np.empty(int(sym_counts.sum()), dtype=np.int64)
    base = 0
    for c in range(bit_offsets.size):
        start, end = int(bit_offsets[c]), int(chunk_ends[c])
        n_syms = int(sym_counts[c])
        local = windows[start:end]
        hops = table_len.take(local).tolist()
        starts = [0] * n_syms
        pos = 0
        rel_end = end - start
        for i in range(n_syms):
            if pos >= rel_end:
                raise _corrupt("chunk decoded past its recorded boundary")
            hop = hops[pos]
            if not hop:
                raise _corrupt("bit window matches no codeword")
            starts[i] = pos
            pos += hop
        if pos != rel_end:
            raise _corrupt("chunk did not decode to its recorded boundary")
        out[base:base + n_syms] = table_sym.take(local.take(starts))
        base += n_syms
    return out


#: Steps per tile of the copy that widens the walk's step-major symbols into
#: chunk-major output.  Transposing the whole record at once reads a new
#: cache line per symbol; a tile of 256 steps (512 KB of ``int32`` symbols at
#: the encoder's 512-chunk width) stays in cache.  On a record shaped like the
#: widest ResNet-50 stream's (4608 steps x 512 chunks, 2-core host), gather
#: plus tiled widening takes 10 ms, against 26 ms for a whole-record
#: transpose, gather and widening; tiles of 64 to 256 steps are level, 1024
#: takes 12 ms.
_TRANSPOSE_STEPS = 256


def _decode_band_vectorized(bit_bytes: np.ndarray, table_len: np.ndarray,
                            table_sym: np.ndarray, bit_offsets: np.ndarray,
                            sym_counts: np.ndarray,
                            chunk_ends: np.ndarray) -> np.ndarray:
    """Decode consecutive chunks as a vectorized row walk.

    Every step advances all chunk cursors by one symbol with three NumPy
    calls: gather the 16-bit window under each cursor into the step's row of
    one whole-stream ``(steps, chunks)`` ``uint16`` record (2 B per symbol),
    gather the windows' ``int64`` code lengths, and add them to the ``int64``
    cursors.  After the walk the bit windows are freed, one contiguous
    ``int32`` gather turns the record into symbols (unused windows map to
    -1), and a tiled transpose widens them once into the chunk-major
    ``int64`` output.  Every chunk but the last holds the same number of
    symbols (the HUF3 chunk geometry); a shorter last chunk walks on
    harmlessly past its end, its surplus symbols are left out of the output
    and the checks, and its cursor is re-derived from its own windows'
    lengths.  A chunk is corrupt unless it ends exactly on its recorded
    boundary (checked first) with no unused window among its symbols (an
    unused window has length 0, so without that check a chunk that reached
    its end early could stall on the boundary and pass).
    """
    width = bit_offsets.size
    steps = int(sym_counts[0])
    tail = int(sym_counts[-1])
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
    symbols = table_sym.take(walked)
    del walked
    if min(symbols[:, :-1].min(initial=0), symbols[:tail, -1].min()) < 0:
        raise _corrupt("bit window matches no codeword")
    out = np.empty((width, steps), dtype=np.int64)
    for step0 in range(0, steps, _TRANSPOSE_STEPS):
        step1 = step0 + _TRANSPOSE_STEPS
        out[:, step0:step1] = symbols[step0:step1].T
    return out.reshape(-1)[:(width - 1) * steps + tail]


def _rebase(bit_bytes: np.ndarray, bit_offsets: np.ndarray,
            chunk_ends: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The byte window spanned by the chunks, with positions relative to it."""
    byte0 = int(bit_offsets[0]) >> 3
    byte_hi = (int(chunk_ends[-1]) + 7) >> 3
    return (bit_bytes[byte0:byte_hi], bit_offsets - (byte0 << 3),
            chunk_ends - (byte0 << 3))


def _decode_chunks(bit_bytes: np.ndarray, length_table: bytes,
                   bit_offsets: np.ndarray, sym_counts: np.ndarray,
                   chunk_ends: np.ndarray) -> np.ndarray:
    """Decode consecutive chunks in-thread with the kernel that suits them.

    ``bit_offsets``/``chunk_ends`` are bit positions in ``bit_bytes``; the
    chunks are first rebased onto the zero-copy byte window they span, so a
    streaming consumer's burst never touches bytes outside it.
    """
    bit_bytes, bit_offsets, chunk_ends = _rebase(bit_bytes, bit_offsets, chunk_ends)
    kernel = _decode_scalar if bit_offsets.size < _MIN_VECTOR_CHUNKS \
        else _decode_band_vectorized
    return kernel(bit_bytes, *_decode_tables_cached(length_table), bit_offsets,
                  sym_counts, chunk_ends)


def _decode_band_task(task: "tuple[bytes, bytes, np.ndarray, np.ndarray, np.ndarray]") -> np.ndarray:
    """Decode one band of chunks from its slice of the packed bit stream.

    Module-level and fully self-contained so the banded decode can run on any
    :class:`~repro.utils.parallel.ExecutionBackend`, including a process pool:
    the task tuple ``(bit_slice, length_table, bit_offsets, sym_counts,
    chunk_ends)`` pickles cheaply (offsets are relative to the slice), and the
    decoded symbol band is *returned* instead of written into shared memory.
    The band runs the same kernels as the in-thread decode (the scalar loop
    below :data:`_MIN_VECTOR_CHUNKS` chunks, else the row walk with its
    whole-band window record), and its 64K-entry window tables (``int64``
    code lengths, ``int32`` symbols with -1 for unused windows) come from
    the one per-worker :func:`_decode_tables_cached` LRU, so a multi-band
    decode of one stream builds them once per worker instead of once per
    band.
    """
    bit_slice, length_table, bit_offsets, sym_counts, chunk_ends = task
    return _decode_chunks(np.frombuffer(bit_slice, dtype=np.uint8), length_table,
                          bit_offsets, sym_counts, chunk_ends)


def _decode_span(bit_bytes: np.ndarray, length_table: bytes,
                 bit_offsets: np.ndarray, sym_counts: np.ndarray,
                 chunk_ends: np.ndarray, backend: ExecutionBackend,
                 workers: int) -> np.ndarray:
    """Decode consecutive chunks in-thread, or in bands on ``backend``.

    One worker decodes every chunk as one band in the calling thread.  More
    workers split the chunks into bands of at least
    :data:`_MIN_VECTOR_CHUNKS` chunks; on a GIL-bound backend never more
    bands than cores — a band's cost is dominated by its per-step dispatch
    overhead, so extra narrower bands only help while they actually run
    concurrently; a process pool's workers always do, so there the knob is
    honoured.
    """
    n_chunks = bit_offsets.size
    cap = workers if not backend.gil_bound else min(workers, os.cpu_count() or 1)
    n_bands = min(cap, n_chunks // _MIN_VECTOR_CHUNKS)
    if n_bands <= 1:
        return _decode_chunks(bit_bytes, length_table, bit_offsets, sym_counts,
                              chunk_ends)
    edges = np.linspace(0, n_chunks, n_bands + 1).astype(int)
    tasks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        # copy each band's byte window so the task is a small, self-contained
        # (and cheaply picklable) unit of work
        window, offsets, ends = _rebase(bit_bytes, bit_offsets[lo:hi], chunk_ends[lo:hi])
        tasks.append((window.tobytes(), length_table, offsets, sym_counts[lo:hi], ends))
    return np.concatenate(list(backend.map(_decode_band_task, tasks,
                                           workers=workers, chunksize=1)))


def _decode_reference(payload: bytes) -> np.ndarray:
    """Decode a whole stream with :func:`_decode_scalar` at any chunk count.

    The reference the tests and ``benchmarks/bench_entropy.py`` hold the
    default :meth:`HuffmanCoder.decode` against.
    """
    lengths, index, count, total_bits, bits_at = HuffmanCoder._parse_header(payload)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    return _decode_scalar(np.frombuffer(payload, dtype=np.uint8, offset=bits_at),
                          *_decode_tables_cached(lengths.astype(np.uint8).tobytes()),
                          index[:, 0], index[:, 1], np.append(index[1:, 0], total_bits))


class ChunkBandConsumer:
    """Incremental decoder for v3 ``HUF3`` streams: feed bytes, get symbols.

    The per-chunk ``(bit_offset, symbol_count)`` index makes any *byte prefix*
    of the stream useful: chunk ``k`` is decodable as soon as the prefix covers
    the header plus ``ceil(chunk_end_bit(k) / 8)`` bytes of the packed bit
    stream.  This consumer exploits that to overlap decode time with arrival
    time (the paper's ``t_D`` hiding inside ``S'/B``): :meth:`feed` accepts
    stream bytes in any chunking — per simulated packet, per decompressor
    output burst, or all at once — parses the header progressively, and
    eagerly decodes every chunk whose bytes have fully arrived.  Bands of
    newly-ready chunks go through exactly the same scalar/vectorized decode
    kernels as :meth:`HuffmanCoder.decode` (in-thread, or banded on the
    backend for a wide burst), so the symbols are bit-identical to a
    non-streaming decode at any worker count on any backend.

    The stream's CRC-32 covers the *entire* payload, so it can only be
    verified once the last byte arrives: :meth:`finish` checks it (and the
    declared total length) before releasing the symbol array.  Structural
    corruption that a prefix already proves — bad magic, inconsistent chunk
    geometry, a chunk that decodes past its recorded boundary, over-long
    streams — raises :class:`ValueError` from :meth:`feed` at the earliest
    byte that exposes it.  Callers must treat the symbols as tentative until
    :meth:`finish` returns.

    ``check_count``, when given, is the enclosing container's check of the
    declared symbol count: it is called with the header's count as soon as
    the fixed fields arrive, before anything is sized by that count, and
    raises :class:`ValueError` for any count the container rules out.
    """

    def __init__(self, max_workers: int | None = 1,
                 backend: "str | ExecutionBackend" = "serial",
                 check_count: "Callable[[int], None] | None" = None) -> None:
        self.backend = get_backend(backend)
        self.max_workers = max_workers
        self._check_count = check_count
        self._buf = StreamBuffer()
        self._crc = 0
        self._crc_pos = _PREFIX_LEN  # next byte offset to fold into the CRC
        self._crc_stored: int | None = None
        self._header: "tuple | None" = None  # (length_table, bit_offsets, sym_counts, sym_starts, chunk_ends, count, bits_at)
        self._out: "np.ndarray | None" = None
        self._next_chunk = 0
        self._finished: "np.ndarray | None" = None

    # -- public surface ------------------------------------------------
    @property
    def header_ready(self) -> bool:
        """True once the full header (code table + chunk index) has arrived."""
        return self._header is not None

    @property
    def chunks_total(self) -> "int | None":
        """Number of chunks in the stream (``None`` before the header)."""
        return self._header[1].size if self._header is not None else None

    @property
    def chunks_decoded(self) -> int:
        """Chunks decoded so far."""
        return self._next_chunk

    @property
    def symbols_decoded(self) -> int:
        """Symbols decoded so far (a prefix of the final array)."""
        if self._header is None or self._next_chunk == 0:
            return 0
        _, _, sym_counts, sym_starts, _, _, _ = self._header
        return int(sym_starts[self._next_chunk - 1] + sym_counts[self._next_chunk - 1])

    @property
    def bytes_received(self) -> int:
        """Stream bytes fed so far."""
        return self._buf.available

    def required_prefix(self, chunk: int) -> int:
        """Bytes of stream prefix sufficient to decode chunks ``0..chunk``.

        Only available once the header has arrived; this is the quantity the
        FORMATS.md streaming contract specifies.
        """
        if self._header is None:
            raise ValueError("header has not arrived yet")
        _, _, _, _, chunk_ends, count, bits_at = self._header
        if count == 0:
            return bits_at
        return bits_at + ((int(chunk_ends[chunk]) + 7) >> 3)

    def feed(self, data) -> int:
        """Consume arriving stream bytes; decodes every newly-complete chunk.

        Returns the number of symbols decoded so far.  Raises
        :class:`ValueError` on structurally corrupt input.
        """
        if self._finished is not None:
            raise ValueError("cannot feed a finished Huffman stream consumer")
        self._buf.feed(data)
        if self._header is None:
            self._try_parse_header()
        self._update_crc()
        if self._header is not None:
            self._decode_ready()
        return self.symbols_decoded

    def finish(self) -> np.ndarray:
        """Verify total length and CRC-32, then return the decoded symbols."""
        if self._finished is not None:
            return self._finished
        if self._header is None:
            raise _corrupt(f"stream truncated inside the header "
                           f"({self._buf.available} bytes arrived)")
        if not self._buf.complete:
            raise _corrupt(f"stream truncated: {self._buf.available} of "
                           f"{self._buf.expected} bytes arrived")
        self._update_crc()
        if self._crc != self._crc_stored:
            raise _corrupt("CRC-32 mismatch")
        self._decode_ready()
        _, bit_offsets, *_ = self._header
        if self._next_chunk != bit_offsets.size:
            raise _corrupt("stream ended before every chunk decoded")
        self._finished = self._out if self._out is not None \
            else np.zeros(0, dtype=np.int64)
        return self._finished

    # -- internals -----------------------------------------------------
    def _update_crc(self) -> None:
        if self._crc_pos < self._buf.available:
            self._crc = zlib.crc32(self._buf.view(self._crc_pos), self._crc)
            self._crc_pos = self._buf.available

    def _try_parse_header(self) -> None:
        """Parse the fixed header, code table, and chunk index once present.

        Runs the same structural validation as
        :meth:`HuffmanCoder._parse_header` — everything except the CRC, which
        needs the whole stream and is deferred to :meth:`finish`.
        """
        buf = self._buf
        fixed = _PREFIX_LEN + _HEADER.size
        if not buf.has(fixed):
            return
        if bytes(buf.view(0, 4)) != _MAGIC:
            raise _corrupt("bad magic (not a version-3 Huffman stream)")
        (self._crc_stored,) = struct.unpack("<I", buf.view(4, _PREFIX_LEN))
        alphabet, count, chunk_size, n_chunks = _HEADER.unpack(buf.view(fixed - _HEADER.size, fixed))
        if self._check_count is not None:
            self._check_count(count)
        offset = fixed
        if not buf.has(alphabet + 16 * n_chunks + 8, offset):
            return
        length_table = bytes(buf.view(offset, offset + alphabet))
        offset += alphabet
        index = np.frombuffer(buf.view(offset, offset + 16 * n_chunks),
                              dtype="<u8").reshape(n_chunks, 2).astype(np.int64)
        offset += 16 * n_chunks
        (total_bits,) = struct.unpack("<Q", buf.view(offset, offset + 8))
        offset += 8

        if count == 0:
            if n_chunks != 0 or total_bits != 0:
                raise _corrupt("empty stream declares chunks or bits")
        else:
            if chunk_size < 1 or n_chunks != -(-count // chunk_size):
                raise _corrupt(f"{n_chunks} chunks cannot cover {count} symbols "
                               f"at {chunk_size} symbols per chunk")
            sym_counts = index[:, 1]
            expected = np.full(n_chunks, chunk_size, dtype=np.int64)
            expected[-1] = count - (n_chunks - 1) * chunk_size
            if not np.array_equal(sym_counts, expected):
                raise _corrupt("chunk symbol counts disagree with the stream length")
            bit_offsets = index[:, 0]
            spans = np.diff(np.concatenate([bit_offsets, [total_bits]]))
            if bit_offsets[0] != 0 or np.any(spans < sym_counts) or \
                    np.any(spans > sym_counts * MAX_CODE_LENGTH):
                raise _corrupt("chunk bit offsets are inconsistent with their symbol counts")

        bit_offsets = index[:, 0]
        sym_counts = index[:, 1]
        sym_starts = np.concatenate([[0], np.cumsum(sym_counts)[:-1]]) \
            if n_chunks else np.zeros(0, dtype=np.int64)
        chunk_ends = np.concatenate([bit_offsets[1:], [total_bits]]) \
            if n_chunks else np.zeros(0, dtype=np.int64)
        # from here on the total stream length is pinned; over-feeding raises
        self._buf.expect(offset + (total_bits + 7) // 8)
        self._header = (length_table, bit_offsets, sym_counts, sym_starts,
                        chunk_ends, count, offset)
        if count:
            _decode_tables_cached(length_table)  # a bad code table fails here
            self._out = np.empty(count, dtype=np.int64)

    def _ready_chunks(self) -> int:
        """Index one past the last chunk whose bytes have fully arrived."""
        _, _, _, _, chunk_ends, count, bits_at = self._header
        if count == 0:
            return 0
        avail_bits = (self._buf.available - bits_at) << 3
        # chunk k is ready when ceil(chunk_ends[k] / 8) bytes arrived, i.e.
        # chunk_ends[k] <= available whole bits
        return int(np.searchsorted(chunk_ends, avail_bits, side="right"))

    def _decode_ready(self) -> None:
        """Eagerly decode every chunk whose bytes have arrived."""
        lo, hi = self._next_chunk, self._ready_chunks()
        if hi <= lo:
            return
        length_table, bit_offsets, sym_counts, sym_starts, chunk_ends, _, bits_at = self._header
        workers = self.backend.resolve_workers(self.max_workers, hi - lo)
        # a wide burst (a large feed or a fast wire) is banded out exactly
        # like the non-streaming decode; the rest runs in-thread on the
        # zero-copy window of the ready chunks
        band = _decode_span(np.frombuffer(self._buf.view(bits_at), dtype=np.uint8),
                            length_table, bit_offsets[lo:hi], sym_counts[lo:hi],
                            chunk_ends[lo:hi], self.backend, workers)
        base = int(sym_starts[lo])
        self._out[base:base + band.size] = band
        self._next_chunk = hi


#: Bytes of packing scratch per symbol of a group: the int64 codes, lengths,
#: end bits and start bytes :func:`_pack_codes` holds at once (the float64
#: copy of the weights :func:`numpy.bincount` makes takes the place of the
#: two it has freed by then).
_PACK_SCRATCH_PER_SYMBOL = 32
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


class ChunkBandProducer:
    """Incremental encoder for v3 ``HUF3`` streams: the twin of
    :class:`ChunkBandConsumer`.

    The encoder has every symbol in memory before the first bit is packed, so
    after one cheap symbol pass (histogram, code lengths, canonical codes,
    chunk geometry) the *entire* header — code-length table, per-chunk
    ``(bit_offset, symbol_count)`` index, and total bit count — is pinned:
    :attr:`pinned_header` and :attr:`stream_length` are available before any
    band exists.  :meth:`bands` then packs groups of whole chunks and emits
    each chunk's packed code bits in chunk order, cut at byte boundaries so
    the concatenated bands are the stream's packed bit stream byte for byte.

    Packing a group of whole chunks (:data:`_PACK_GROUP_SYMBOLS` symbols, or
    one larger chunk) instead of the whole stream bounds the packing scratch:
    :attr:`peak_scratch_bytes` reports its analytic high-water mark, which is
    what the round engine surfaces as encode scratch.

    The one field that cannot be pinned early is the stream CRC-32 at byte
    offset 4: it covers the packed bands, so :meth:`magic_and_crc` only
    becomes available once :meth:`bands` is exhausted.  Consumers that need
    the stream in byte order therefore stage bands until the prefix is
    released — :meth:`chunks` does exactly that and yields the byte-order
    stream (prefix, pinned header, then each band), whose concatenation
    equals :meth:`HuffmanCoder.encode` for the same ``chunk_size``.  See the
    producer-side framing contract in FORMATS.md.
    """

    def __init__(self, symbols: np.ndarray,
                 chunk_size: int = DEFAULT_CHUNK_SYMBOLS,
                 lengths: "np.ndarray | None" = None) -> None:
        if not 1 <= chunk_size <= 0xFFFFFFFF:
            raise ValueError("chunk_size must be in [1, 2**32 - 1] (stored as u32)")
        symbols = np.ascontiguousarray(symbols).ravel()
        if symbols.size and symbols.min() < 0:
            raise ValueError("Huffman symbols must be non-negative")
        self._count = count = symbols.size
        self._crc: "int | None" = None
        self._bands_done = count == 0
        if count == 0:
            self.n_chunks = 0
            self.code_lengths: "bytes | None" = None
            self.pinned_header = _HEADER.pack(0, 0, chunk_size, 0) + \
                struct.pack("<Q", 0)
            self._crc = zlib.crc32(self.pinned_header)
            self.stream_length = _PREFIX_LEN + len(self.pinned_header)
            self.peak_scratch_bytes = 0
            return
        self._symbols = symbols = symbols.astype(np.int64, copy=False)
        pinned = lengths is not None
        if pinned:
            # a pinned table from a previous build (warm codebook reuse);
            # it must cover the whole alphabet — an uncovered symbol would
            # produce an undecodable stream, so fail loudly here
            lengths = np.asarray(lengths, dtype=np.int64)
            alphabet = lengths.size
            if alphabet == 0 or int(symbols.max()) >= alphabet:
                raise ValueError("pinned code-length table does not cover the "
                                 "symbol alphabet")
            if int(lengths.max()) > MAX_CODE_LENGTH:
                raise ValueError(f"pinned code length exceeds {MAX_CODE_LENGTH}")
        else:
            alphabet = int(symbols.max()) + 1
            freqs = np.bincount(symbols, minlength=alphabet)
            lengths = _build_code_lengths(freqs)
        self._lengths = lengths
        self._codes = _canonical_codes(lengths).astype(np.int64)
        sym_lengths = lengths[symbols]
        if pinned and int(sym_lengths.min()) == 0:
            raise ValueError("pinned code-length table assigns no code to a "
                             "present symbol")

        self._chunk = chunk = min(chunk_size, max(_MIN_CHUNK_SYMBOLS, count // _TARGET_CHUNKS))
        starts = np.arange(0, count, chunk, dtype=np.int64)
        self.n_chunks = starts.size
        chunk_bits = np.add.reduceat(sym_lengths, starts)
        del sym_lengths
        self._chunk_ends = chunk_ends = np.cumsum(chunk_bits)
        total_bits = int(chunk_ends[-1])
        index = np.empty((starts.size, 2), dtype="<u8")
        index[:, 0] = chunk_ends - chunk_bits
        index[:, 1] = np.minimum(chunk, count - starts)

        self.code_lengths = lengths.astype(np.uint8).tobytes()
        header = bytearray(_HEADER.size + alphabet + 16 * starts.size + 8)
        _HEADER.pack_into(header, 0, alphabet, count, chunk, starts.size)
        pos = _HEADER.size
        header[pos:pos + alphabet] = self.code_lengths
        pos += alphabet
        header[pos:pos + 16 * starts.size] = index.tobytes()
        pos += 16 * starts.size
        struct.pack_into("<Q", header, pos, total_bits)
        self.pinned_header = bytes(header)
        self.stream_length = _PREFIX_LEN + len(self.pinned_header) + \
            (total_bits + 7) // 8

        # the widest group bounds the packing scratch: its symbols and the
        # bytes from the one its first bit lands in to the one its last does
        self._group = group = max(1, _PACK_GROUP_SYMBOLS // chunk)
        group_ends = chunk_ends[group - 1::group]
        if group_ends.size * group < self.n_chunks:
            group_ends = np.append(group_ends, total_bits)
        group_bytes = ((group_ends + 7) >> 3) - (np.append(0, group_ends[:-1]) >> 3)
        self.peak_scratch_bytes = min(group * chunk, count) * _PACK_SCRATCH_PER_SYMBOL \
            + int(group_bytes.max()) * _PACK_SCRATCH_PER_BYTE

    def bands(self):
        """Yield each chunk's packed code bits, one group of chunks at a time.

        Bands are cut at byte boundaries (a group's open last byte carries
        into the next group; the final band is zero-padded), so their
        concatenation equals the packed bit stream byte for byte.  The
        running CRC-32 folds each band in as it is yielded;
        :meth:`magic_and_crc` unlocks when the generator is exhausted.
        """
        if self._count == 0:
            return
        crc = zlib.crc32(self.pinned_header)
        cuts = self._chunk_ends >> 3
        cuts[-1] = (int(self._chunk_ends[-1]) + 7) >> 3
        bit0 = carry = 0
        for g0 in range(0, self.n_chunks, self._group):
            g1 = min(g0 + self._group, self.n_chunks)
            symbols = self._symbols[g0 * self._chunk:g1 * self._chunk]
            packed = _pack_codes(self._codes[symbols], self._lengths[symbols], bit0 & 7)
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
        :meth:`bands` has been exhausted (immediately for an empty stream).
        """
        if not self._bands_done:
            raise ValueError("the HUF3 CRC covers the packed bands; drain "
                             "bands() before reading the stream prefix")
        return _MAGIC + struct.pack("<I", self._crc)

    def chunks(self):
        """Byte-order view of the stream: prefix, pinned header, then bands.

        Because the CRC at offset 4 is pinned last, bands are staged
        internally until packing completes; the staging high-water mark is
        the packed bit stream itself, never the packing scratch.  The
        concatenation of the yielded pieces is byte-identical to
        :meth:`HuffmanCoder.encode` at the same ``chunk_size``.
        """
        staged = list(self.bands())
        yield self.magic_and_crc()
        yield self.pinned_header
        yield from staged


class HuffmanCoder:
    """Encode/decode streams of non-negative integer symbols.

    ``chunk_size`` caps the number of symbols per chunk (the encoder may pick
    smaller chunks for short streams, see :data:`_TARGET_CHUNKS`).
    ``max_workers`` is the default decode concurrency: ``1`` decodes the
    whole stream in-thread as one vectorized band, larger values (or ``None``
    for the backend default) split it into bands dispatched on the
    :class:`~repro.utils.parallel.ExecutionBackend` named by ``backend``
    (``"serial"`` always runs the one in-thread band).  Every combination
    produces bit-identical symbol arrays; instances are stateless per call,
    thread-safe, and picklable.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SYMBOLS,
                 max_workers: int | None = 1,
                 backend: "str | ExecutionBackend" = "thread") -> None:
        if not 1 <= chunk_size <= 0xFFFFFFFF:
            raise ValueError("chunk_size must be in [1, 2**32 - 1] (stored as u32)")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.chunk_size = int(chunk_size)
        self.max_workers = max_workers
        self.backend = get_backend(backend)

    # ------------------------------------------------------------------
    def _effective_chunk(self, count: int) -> int:
        """Symbols per chunk for a ``count``-symbol stream (never above the cap)."""
        return min(self.chunk_size, max(_MIN_CHUNK_SYMBOLS, count // _TARGET_CHUNKS))

    def encode(self, symbols: np.ndarray,
               lengths: "np.ndarray | None" = None) -> bytes:
        """Encode ``symbols`` (any integer dtype, values >= 0) to bytes.

        The stream is assembled band by band through
        :class:`ChunkBandProducer` into one preallocated buffer: packing one
        group of chunks at a time bounds the packing scratch to a group
        instead of the whole stream, and the single output buffer replaces
        the former chain of intermediate ``bytes`` concatenations.
        ``lengths`` optionally pins a code-length table from a previous build
        (warm codebook reuse), skipping the histogram + tree construction.
        """
        return self.assemble(ChunkBandProducer(symbols, self.chunk_size,
                                               lengths=lengths))

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

    def stream_producer(self, symbols: np.ndarray,
                        lengths: "np.ndarray | None" = None) -> ChunkBandProducer:
        """Return a :class:`ChunkBandProducer` over ``symbols``.

        The producer uses this coder's ``chunk_size``, so its byte-order
        stream (:meth:`ChunkBandProducer.chunks`) concatenates to exactly
        what :meth:`encode` returns.  ``lengths`` optionally pins a
        code-length table exactly as in :meth:`encode`.
        """
        return ChunkBandProducer(symbols, self.chunk_size, lengths=lengths)

    def stream_consumer(self, max_workers: int | None = None,
                        backend: "str | ExecutionBackend | None" = None,
                        check_count: "Callable[[int], None] | None" = None
                        ) -> ChunkBandConsumer:
        """Return a :class:`ChunkBandConsumer` for incremental decoding.

        ``max_workers`` / ``backend`` default to this coder's configuration,
        matching what :meth:`decode` would use, so a streaming decode is
        bit-identical to the batch path under the same settings.
        ``check_count`` vets the declared symbol count before the consumer
        allocates for it (see :class:`ChunkBandConsumer`).
        """
        return ChunkBandConsumer(
            max_workers=self.max_workers if max_workers is None else max_workers,
            backend=self.backend if backend is None else backend,
            check_count=check_count)

    # ------------------------------------------------------------------
    @staticmethod
    def _parse_header(payload: bytes):
        """Validate the v3 container and return its parsed fields.

        Every declared length is bounds-checked against the remaining buffer
        (truncation can never surface as ``struct.error`` or ``IndexError``)
        and the CRC covers everything after itself, so any byte flip in the
        payload is detected here.
        """
        _require(payload, 0, _PREFIX_LEN + _HEADER.size, "header")
        if payload[:4] != _MAGIC:
            raise _corrupt("bad magic (not a version-3 Huffman stream)")
        (crc_stored,) = struct.unpack_from("<I", payload, 4)
        if zlib.crc32(memoryview(payload)[_PREFIX_LEN:]) != crc_stored:
            raise _corrupt("CRC-32 mismatch")
        alphabet, count, chunk_size, n_chunks = _HEADER.unpack_from(payload, _PREFIX_LEN)
        offset = _PREFIX_LEN + _HEADER.size

        _require(payload, offset, alphabet, "code-length table")
        lengths = np.frombuffer(payload, dtype=np.uint8, count=alphabet,
                                offset=offset).astype(np.int64)
        offset += alphabet

        _require(payload, offset, 16 * n_chunks, "chunk index")
        index = np.frombuffer(payload, dtype="<u8", count=2 * n_chunks,
                              offset=offset).reshape(n_chunks, 2).astype(np.int64)
        offset += 16 * n_chunks

        _require(payload, offset, 8, "total bit count")
        (total_bits,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        if len(payload) - offset != (total_bits + 7) // 8:
            raise _corrupt(f"bit stream holds {len(payload) - offset} bytes but "
                           f"{total_bits} bits are declared")

        if count == 0:
            if n_chunks != 0 or total_bits != 0:
                raise _corrupt("empty stream declares chunks or bits")
            return lengths, index, 0, 0, offset
        if chunk_size < 1 or n_chunks != -(-count // chunk_size):
            raise _corrupt(f"{n_chunks} chunks cannot cover {count} symbols "
                           f"at {chunk_size} symbols per chunk")
        sym_counts = index[:, 1]
        expected = np.full(n_chunks, chunk_size, dtype=np.int64)
        expected[-1] = count - (n_chunks - 1) * chunk_size
        if not np.array_equal(sym_counts, expected):
            raise _corrupt("chunk symbol counts disagree with the stream length")
        bit_offsets = index[:, 0]
        spans = np.diff(np.concatenate([bit_offsets, [total_bits]]))
        if bit_offsets[0] != 0 or np.any(spans < sym_counts) or \
                np.any(spans > sym_counts * MAX_CODE_LENGTH):
            raise _corrupt("chunk bit offsets are inconsistent with their symbol counts")
        return lengths, index, count, total_bits, offset

    def decode(self, payload: bytes, max_workers: int | None = None,
               backend: "str | ExecutionBackend | None" = None) -> np.ndarray:
        """Decode a byte string produced by :meth:`encode` back to ``int64``.

        ``max_workers`` and ``backend`` override the instance defaults for
        this call; one worker (or the ``serial`` backend) decodes the whole
        stream in-thread as one band, more split it into bands on the backend
        (identical output either way).  A stream of fewer than
        :data:`_MIN_VECTOR_CHUNKS` chunks runs the per-symbol scalar loop.
        """
        lengths, index, count, total_bits, bits_at = self._parse_header(payload)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        bit_offsets = index[:, 0]
        exec_backend = self.backend if backend is None else get_backend(backend)
        workers = exec_backend.resolve_workers(
            self.max_workers if max_workers is None else max_workers, bit_offsets.size)
        return _decode_span(np.frombuffer(payload, dtype=np.uint8, offset=bits_at),
                            lengths.astype(np.uint8).tobytes(), bit_offsets,
                            index[:, 1], np.append(bit_offsets[1:], total_bits),
                            exec_backend, workers)
