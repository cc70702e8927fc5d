"""The entropy stage's fast kernels held to their references.

* The scatter packer must cut the same bands, byte for byte, as the
  bit-matrix oracle in ``huffman_reference.py``: random alphabets, code
  lengths up to 16 (clamped tables included), pinned tables, chunk sizes
  whose bit counts force carries, group sizes that split chunks across
  packing groups, and empty and single-symbol streams.
* The default decode (one in-thread band; the vectorized row walk above
  ``_MIN_VECTOR_CHUNKS`` chunks) must equal the per-symbol scalar loop on both
  sides of the crossover, batch and streaming at random feed splits, and must
  reject exactly the corrupt bodies the scalar loop rejects.
* ``peak_scratch_bytes`` must bound the packer's traced allocation peak.
* A crafted stream whose last chunk stalls on its boundary must raise on
  every decode path.
* On both kernels, batch and streaming: an unused window at the first, a
  middle or the last symbol of a full or a short tail chunk is rejected as
  the reference rejects it, unused windows the tail chunk's surplus walk
  reads are ignored, and alphabets past ``uint16`` and Kraft-incomplete
  (clamped) tables decode like the reference.
* The row walk's traced peak is bounded by its arrays: 2 B per symbol for
  the window record, never an ``int64`` one.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from huffman_reference import bit_matrix_bands
from repro.compressors import huffman
from repro.compressors.huffman import (
    MAX_CODE_LENGTH,
    ChunkBandProducer,
    HuffmanCoder,
    _build_code_lengths,
    _decode_reference,
)

_HEADER = struct.Struct("<IQII")


def _symbols(kind: str, size: int, alphabet: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.integers(0, alphabet, size=size)
    if kind == "skewed":
        # geometric-ish frequencies: short codes up front, long rare ones
        p = 2.0 ** (-0.7 * np.arange(alphabet))
        return rng.choice(alphabet, size=size, p=p / p.sum())
    if kind == "clamped":
        # Fibonacci counts build a tree 18 levels deep: the table is clamped
        fib = [1, 1]
        while len(fib) < 19:
            fib.append(fib[-1] + fib[-2])
        symbols = np.repeat(np.arange(19), fib)
        rng.shuffle(symbols)
        return symbols
    return np.full(size, alphabet - 1, dtype=np.int64)  # single symbol


def _pieces(blob: bytes, cuts: list[int]):
    edges = sorted({0, len(blob), *(c % (len(blob) + 1) for c in cuts)})
    return [blob[a:b] for a, b in zip(edges[:-1], edges[1:])]


def _refresh_crc(payload: bytes) -> bytes:
    return payload[:4] + struct.pack("<I", zlib.crc32(payload[8:])) + payload[8:]


def _decode_all_paths(payload: bytes, cuts: list[int]) -> "list[np.ndarray | None]":
    """Batch at 1 and 2 workers and streaming; ``None`` where it raised."""
    results = []
    for workers in (1, 2):
        try:
            results.append(HuffmanCoder(max_workers=workers).decode(payload))
        except ValueError:
            results.append(None)
    consumer = HuffmanCoder().stream_consumer()
    try:
        for piece in _pieces(payload, cuts):
            consumer.feed(piece)
        results.append(consumer.finish())
    except ValueError:
        results.append(None)
    return results


class TestPacker:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["uniform", "skewed", "clamped", "single"]),
           size=st.integers(0, 3000), alphabet=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1), chunk=st.integers(1, 97),
           group=st.integers(1, 400), pin=st.booleans())
    def test_bands_match_bit_matrix_oracle(self, kind, size, alphabet, seed,
                                           chunk, group, pin):
        symbols = _symbols(kind, size, alphabet, seed)
        lengths = None
        if pin and symbols.size:
            # a warm table built from a different histogram of a wider alphabet
            lengths = _build_code_lengths(
                np.bincount(symbols, minlength=int(symbols.max()) + 3) + 1)
        with mock.patch.object(huffman, "_PACK_GROUP_SYMBOLS", group):
            producer = ChunkBandProducer(symbols, chunk, lengths=lengths)
        bands = list(producer.bands())
        assert bands == bit_matrix_bands(symbols, producer.pinned_header)
        stream = producer.magic_and_crc() + producer.pinned_header + b"".join(bands)
        assert len(stream) == producer.stream_length
        np.testing.assert_array_equal(HuffmanCoder().decode(stream), symbols)

    def test_clamped_profile_reaches_the_length_limit(self):
        producer = ChunkBandProducer(_symbols("clamped", 0, 1, 0))
        assert max(producer.code_lengths) == MAX_CODE_LENGTH

    @pytest.mark.parametrize("kind, alphabet, chunk_size, group", [
        ("skewed", 40, huffman.DEFAULT_CHUNK_SYMBOLS, None),  # default geometry
        ("uniform", 20_000, 1024, 256),                       # chunk > group, ~15-bit codes
        ("skewed", 40, 300, 4096),                            # many chunks per group
    ])
    def test_peak_scratch_bounds_traced_peak(self, kind, alphabet, chunk_size, group):
        symbols = _symbols(kind, 300_000, alphabet, 9)
        with mock.patch.object(huffman, "_PACK_GROUP_SYMBOLS",
                               group or huffman._PACK_GROUP_SYMBOLS):
            producer = ChunkBandProducer(symbols, chunk_size)
        # an untraced pass first stocks the interpreter's free lists, so the
        # traced pass counts the kernel's arrays, not objects parked there
        for _ in producer.bands():
            pass
        tracemalloc.start()
        try:
            for _ in producer.bands():
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < peak <= producer.peak_scratch_bytes
        # the figure describes this kernel, not a loose ceiling
        assert peak >= producer.peak_scratch_bytes // 2


class TestDecodeMatchesScalar:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_chunks=st.integers(1, 3 * huffman._MIN_VECTOR_CHUNKS + 2),
           chunk=st.integers(1, 64), tail=st.integers(1, 64),
           alphabet=st.integers(1, 120),
           cuts=st.lists(st.integers(0, 10 ** 6), max_size=6))
    def test_both_sides_of_the_crossover(self, seed, n_chunks, chunk, tail,
                                         alphabet, cuts):
        count = chunk * (n_chunks - 1) + min(tail, chunk)
        symbols = _symbols("skewed", count, alphabet, seed)
        payload = HuffmanCoder(chunk_size=chunk).encode(symbols)
        assert _HEADER.unpack_from(payload, 8)[3] == n_chunks
        reference = _decode_reference(payload)
        np.testing.assert_array_equal(reference, symbols)
        for decoded in _decode_all_paths(payload, cuts):
            assert decoded is not None
            np.testing.assert_array_equal(decoded, reference)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_chunks=st.integers(1, 3 * huffman._MIN_VECTOR_CHUNKS + 2),
           chunk=st.integers(1, 64), alphabet=st.integers(2, 40),
           flips=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=3),
           cuts=st.lists(st.integers(0, 10 ** 6), max_size=4))
    def test_corrupt_bodies_rejected_like_scalar(self, seed, n_chunks, chunk,
                                                 alphabet, flips, cuts):
        symbols = _symbols("skewed", chunk * n_chunks, alphabet, seed)
        payload = bytearray(HuffmanCoder(chunk_size=chunk).encode(symbols))
        *_, bits_at = HuffmanCoder._parse_header(bytes(payload))
        body_bits = (len(payload) - bits_at) * 8
        for flip in flips:
            bit = flip % body_bits
            payload[bits_at + bit // 8] ^= 0x80 >> (bit % 8)
        mutated = _refresh_crc(bytes(payload))
        try:
            expected = _decode_reference(mutated)
        except ValueError:
            expected = None
        for decoded in _decode_all_paths(mutated, cuts):
            if expected is None:
                assert decoded is None
            else:
                np.testing.assert_array_equal(decoded, expected)


def _stalling_stream(n_chunks: int) -> bytes:
    """``n_chunks`` chunks of 4 symbols over the codes ``0 -> "0"``,
    ``1 -> "10"`` (windows starting ``11`` are unused).

    Every chunk but the last holds ``1 1 1 0`` in 7 bits; the last holds only
    ``10100`` (3 codes in 5 bits) yet declares 4 symbols, and the two pad bits
    behind it are ``11``.  Its cursor reaches the recorded end one symbol early
    and then reads an unused window there.
    """
    bits = "1010100" * (n_chunks - 1) + "10100"
    assert len(bits) % 8 == 6
    bits += "11"
    index = b"".join(struct.pack("<QQ", 7 * k, 4) for k in range(n_chunks))
    body = (_HEADER.pack(2, 4 * n_chunks, 4, n_chunks) + bytes([1, 2]) + index
            + struct.pack("<Q", len(bits) - 2)
            + int(bits, 2).to_bytes(len(bits) // 8, "big"))
    return b"HUF3" + struct.pack("<I", zlib.crc32(body)) + body


@pytest.mark.parametrize("n_chunks", [8, 64])
class TestStalledChunkRejected:
    def test_scalar_reference(self, n_chunks):
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            _decode_reference(_stalling_stream(n_chunks))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_decode(self, n_chunks, workers):
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            HuffmanCoder(max_workers=workers).decode(_stalling_stream(n_chunks))

    @pytest.mark.parametrize("piece", [1, 1 << 20])
    def test_streaming_decode(self, n_chunks, piece):
        blob = _stalling_stream(n_chunks)
        consumer = HuffmanCoder().stream_consumer()
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            for start in range(0, len(blob), piece):
                consumer.feed(blob[start:start + piece])
            consumer.finish()

    def test_walk_itself_rejects(self, n_chunks):
        # force the vectorized kernel even for the narrowest band
        with mock.patch.object(huffman, "_MIN_VECTOR_CHUNKS", 1):
            with pytest.raises(ValueError, match="no codeword"):
                HuffmanCoder().decode(_stalling_stream(n_chunks))


_KERNELS = {"walk": 1, "scalar": 1 << 30}  # the _MIN_VECTOR_CHUNKS forcing each
_TOKENS = {0: "0", 1: "10", None: "11"}    # None writes an unused window


def _token_stream(chunks: "list[list]", pad: str = "0") -> bytes:
    """A HUF3 stream over the codes ``0 -> "0"`` and ``1 -> "10"`` whose
    chunks hold the given tokens; a ``None`` token is a declared symbol whose
    window starts ``11``, which no code covers.  ``pad`` fills the last
    byte behind the final code."""
    bits, index = "", b""
    for tokens in chunks:
        index += struct.pack("<QQ", len(bits), len(tokens))
        bits += "".join(_TOKENS[t] for t in tokens)
    total = len(bits)
    bits += pad * (-total % 8)
    body = (_HEADER.pack(2, sum(map(len, chunks)), len(chunks[0]), len(chunks))
            + bytes([1, 2]) + index + struct.pack("<Q", total)
            + int(bits, 2).to_bytes(len(bits) // 8, "big"))
    return b"HUF3" + struct.pack("<I", zlib.crc32(body)) + body


def _kernel_decodes(payload: bytes, kernel: str) -> "list[np.ndarray | None]":
    """:func:`_decode_all_paths` on ``kernel``, streaming in at most ~200
    pieces (one byte each for the crafted streams)."""
    cuts = list(range(0, len(payload), 1 + len(payload) // 200))
    with mock.patch.object(huffman, "_MIN_VECTOR_CHUNKS", _KERNELS[kernel]):
        return _decode_all_paths(payload, cuts)


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
class TestKernelEdges:
    FULL = [1, 0, 1, 1, 0, 0, 1, 0]
    TAIL = [1, 0, 0, 1, 1]

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("chunk", ["full", "tail"])
    def test_unused_window_rejected(self, kernel, position, chunk):
        chunks = [list(self.FULL) for _ in range(3)] + [list(self.TAIL)]
        tokens = chunks[0 if chunk == "full" else -1]
        tokens[{"first": 0, "middle": len(tokens) // 2, "last": -1}[position]] = None
        payload = _token_stream(chunks)
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            _decode_reference(payload)
        assert _kernel_decodes(payload, kernel) == [None] * 3

    def test_unused_windows_past_a_short_tail_are_ignored(self, kernel):
        chunks = [list(self.FULL) for _ in range(3)] + [list(self.TAIL)]
        # the tail ends 3 bits into its last byte; its surplus walk reads
        # the ones behind it, an unused window
        payload = _token_stream(chunks, pad="1")
        expected = np.array(sum(chunks, []))
        np.testing.assert_array_equal(_decode_reference(payload), expected)
        for decoded in _kernel_decodes(payload, kernel):
            np.testing.assert_array_equal(decoded, expected)

    @pytest.mark.parametrize("chunk_size", [5000, 1250, 250])
    def test_alphabet_past_uint16(self, kernel, chunk_size):
        # SZ2's radius-32768 quantizer emits codes up to 65537
        rng = np.random.default_rng(17)
        symbols = rng.integers(0, 40, size=5000)
        symbols[rng.choice(5000, size=60, replace=False)] = \
            rng.choice([65535, 65536, 65537, 70000], size=60)
        payload = HuffmanCoder(chunk_size=chunk_size).encode(symbols)
        np.testing.assert_array_equal(_decode_reference(payload), symbols)
        for decoded in _kernel_decodes(payload, kernel):
            np.testing.assert_array_equal(decoded, symbols)

    @pytest.mark.parametrize("chunk_size", [1 << 16, 2000, 512])
    def test_kraft_incomplete_table(self, kernel, chunk_size):
        symbols = _symbols("clamped", 0, 1, 23)
        producer = ChunkBandProducer(symbols, chunk_size)
        lengths = np.frombuffer(producer.code_lengths, dtype=np.uint8).astype(np.int64)
        assert np.sum(1 << (MAX_CODE_LENGTH - lengths[lengths > 0])) < 1 << MAX_CODE_LENGTH
        payload = HuffmanCoder.assemble(producer)
        np.testing.assert_array_equal(_decode_reference(payload), symbols)
        for decoded in _kernel_decodes(payload, kernel):
            np.testing.assert_array_equal(decoded, symbols)


def test_walk_peak_is_bounded_by_its_arrays():
    """One default decode's traced peak, phase by phase.

    The walk holds the bit windows (8 ``uint16`` per stream byte, built from
    ``uint32`` fields of 4 B per byte) plus the ``uint16`` window record.
    Once the windows are freed, the gather holds the record, the ``intp``
    copy ``take`` makes of it and the ``int32`` symbols; the widening holds
    those symbols and the ``int64`` output.  With 4-bit codes an ``int64``
    record beside the windows would exceed every one of these phases.
    """
    symbols = np.random.default_rng(5).integers(0, 16, size=1 << 16)
    payload = HuffmanCoder(chunk_size=1024).encode(symbols)
    _, index, _, _, bits_at = HuffmanCoder._parse_header(payload)
    width, steps = index.shape[0], int(index[0, 1])
    assert width >= huffman._MIN_VECTOR_CHUNKS
    n_bytes, n_syms = len(payload) - bits_at, width * steps
    phases = {"windows": 20 * n_bytes,
              "walk": 16 * n_bytes + 2 * n_syms,
              "gather": (2 + 8 + 4) * n_syms,
              "widen": (4 + 8) * n_syms}
    bound = max(phases.values()) + (64 << 10)  # + header arrays, ufunc buffers
    coder = HuffmanCoder()
    coder.decode(payload)  # caches the tables and stocks the free lists
    tracemalloc.start()
    try:
        decoded = coder.decode(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(decoded, symbols)
    assert peak <= bound
    assert peak >= bound // 2
