"""The entropy stage's fast kernels held to their references.

* The scatter packer must cut the same bands, byte for byte, as the
  bit-matrix oracle in ``huffman_reference.py``: random alphabets and
  offsets, every tuple size the rule allows (k = 1, 2, 3, 7 and 12 on
  streams the encoder codes in those tuples), code lengths up to 16 (clamped
  tables included), chunk sizes whose bit counts force carries, group sizes
  that split chunks across packing groups, padded last tuples, and empty and
  one-tuple streams.
* The batch decode must equal the per-tuple scalar oracle stream by stream
  (``huffman_reference.decode_reference``): on both sides of the grouping
  line (``_SHARED_WALK_CHUNKS``: a stream walks alone or shares its walk)
  and of the crossover (``_MIN_VECTOR_CHUNKS``: a walk narrower than it
  runs the per-tuple loop), on random batches of 1 to 8 streams mixing
  tuple sizes, ranges, empty and one-tuple streams and up to 3 x 512
  chunks, and it must reject exactly the corrupt bodies the oracle rejects.
  Corrupting any one stream of a batch raises ``ValueError`` that names its
  place in the batch.
* ``peak_scratch_bytes`` must bound the packer's traced allocation peak, and
  the header and stream length are pinned before any band is packed, while
  the CRC waits for the last band.
* A crafted stream whose last chunk stalls on its boundary must raise in
  every kernel: a walk alone, a shared walk and the per-tuple loop.
* In every kernel: an unused window at the first, a
  middle or the last tuple of a full or a short tail chunk is rejected as
  the reference rejects it, unused windows the tail chunk's surplus walk
  reads are ignored, and symbols up to 65537 (W past ``uint16``),
  Kraft-incomplete and length-clamped tables decode like the reference.
* The row walk's traced peak is bounded by its arrays: 2 B per tuple for
  the window record, never an ``int64`` one; and a batch of many small
  streams holds the window tables of a few streams at a time.
"""

from __future__ import annotations

import functools
import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from huffman_reference import (
    any_count,
    bit_matrix_bands,
    decode_reference,
    one_tuple_bomb,
    pinned_code_table,
)
from repro.compressors import huffman
from repro.compressors.huffman import MAX_CODE_LENGTH, ChunkBandProducer, HuffmanCoder

_HEADER = struct.Struct("<IIBQII")  # lo, W, k, count, tuples per chunk, chunks


def _symbols(kind: str, size: int, alphabet: int, seed: int, lo: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return lo + rng.integers(0, alphabet, size=size)
    if kind == "skewed":
        # geometric-ish frequencies: short codes up front, long rare ones
        p = 2.0 ** (-0.7 * np.arange(alphabet))
        return lo + rng.choice(alphabet, size=size, p=p / p.sum())
    if kind == "clamped":
        # Fibonacci counts build a tree 18 levels deep: the table is clamped.
        # Spaced 4 apart, the range is 73 wide, so the code is over singles.
        fib = [1, 1]
        while len(fib) < 19:
            fib.append(fib[-1] + fib[-2])
        symbols = lo + 4 * np.repeat(np.arange(19), fib)
        rng.shuffle(symbols)
        return symbols
    return np.full(size, lo + alphabet - 1, dtype=np.int64)  # single symbol


def _refresh_crc(payload: bytes) -> bytes:
    return payload[:4] + struct.pack("<I", zlib.crc32(payload[8:])) + payload[8:]


def _decode_or_none(payload: bytes) -> "np.ndarray | None":
    """The default decode; ``None`` where it raised."""
    try:
        return HuffmanCoder().decode(payload, any_count)
    except ValueError:
        return None


class TestPacker:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["uniform", "skewed", "clamped", "single"]),
           size=st.integers(0, 3000), alphabet=st.integers(1, 300),
           lo=st.sampled_from([0, 1, 32768]),
           seed=st.integers(0, 2 ** 32 - 1), chunk=st.integers(1, 97),
           group=st.integers(1, 400))
    def test_bands_match_bit_matrix_oracle(self, kind, size, alphabet, lo, seed,
                                           chunk, group):
        symbols = _symbols(kind, size, alphabet, seed, lo)
        with mock.patch.object(huffman, "_PACK_GROUP_TUPLES", group):
            producer = ChunkBandProducer(symbols, chunk)
        bands = list(producer.bands())
        assert bands == bit_matrix_bands(symbols, producer.pinned_header)
        stream = producer.magic_and_crc() + producer.pinned_header + b"".join(bands)
        assert len(stream) == producer.stream_length
        np.testing.assert_array_equal(HuffmanCoder().decode(stream, any_count), symbols)

    @pytest.mark.parametrize("width, k", [(2, 12), (3, 7), (16, 3), (51, 2), (70, 1)])
    @pytest.mark.parametrize("size", [40_000, 40_003])  # 40003 pads the last tuple
    def test_each_tuple_size_matches_the_oracle(self, width, k, size):
        # one dominant symbol: the tuple code beats singles wherever W allows
        rng = np.random.default_rng(width)
        symbols = np.where(rng.random(size) < 0.9, width // 2,
                           rng.integers(0, width, size)) + 7
        symbols[:2] = 7, 7 + width - 1
        producer = ChunkBandProducer(symbols, 64)
        fields, _ = pinned_code_table(producer.pinned_header)
        assert (fields["width"], fields["k"]) == (width, k)
        bands = list(producer.bands())
        assert bands == bit_matrix_bands(symbols, producer.pinned_header)
        payload = producer.magic_and_crc() + producer.pinned_header + b"".join(bands)
        np.testing.assert_array_equal(decode_reference(payload), symbols)
        np.testing.assert_array_equal(_decode_or_none(payload), symbols)

    @pytest.mark.parametrize("case, k", [
        ("uniform", 1),       # tuples gain nothing and their table costs ~2 KB
        ("dominant", 3),      # tuples are smaller outright
        ("laplace-50k", 1),   # pairs: 239 B more for 25000 fewer decode steps
        ("laplace-100k", 2),  # pairs: 312 B more for 50000 fewer decode steps
    ])
    def test_tuple_choice_weighs_bytes_against_decode_steps(self, case, k):
        if case in ("uniform", "dominant"):
            symbols = _symbols("uniform", 20_000, 16, 3)
            if case == "dominant":
                rng = np.random.default_rng(3)
                symbols = np.where(rng.random(20_000) < 0.9, 8, symbols)
        else:
            n, scale = (50_000, 2.0) if case == "laplace-50k" else (100_000, 3.0)
            rng = np.random.default_rng(7)
            symbols = np.clip(np.rint(rng.laplace(0, scale, n)), -25, 25).astype(np.int64) + 25
            symbols[:2] = 0, 50
        kmax = huffman._tuple_sizes(int(np.ptp(symbols)) + 1)[-1]
        lengths = {}
        for size in (1, kmax):
            with mock.patch.object(huffman, "_tuple_sizes", lambda width: (size,)):
                lengths[size] = len(HuffmanCoder().encode(symbols))
        producer = ChunkBandProducer(symbols)
        assert producer.k == k and producer.stream_length == lengths[k]
        saved_steps = symbols.size - -(-symbols.size // kmax)
        extra = lengths[kmax] - lengths[1]
        assert (extra * huffman._STEPS_PER_BYTE > saved_steps) == (k == 1)
        if case.startswith("laplace"):
            assert extra > 0  # k = kmax costs bytes either way

    def test_one_tuple_stream_carries_no_code_bits(self):
        for symbols in (np.full(100_000, 5), np.tile([0, 1], 6000)):
            producer = ChunkBandProducer(symbols, 64)
            assert producer.n_chunks == 1 and list(producer.bands()) == []
            payload = HuffmanCoder(64).encode(symbols)
            assert len(payload) == producer.stream_length < 600
            np.testing.assert_array_equal(decode_reference(payload), symbols)
            np.testing.assert_array_equal(_decode_or_none(payload), symbols)

    def test_header_and_length_pinned_before_any_band(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 40, size=2048).astype(np.int64)
        producer = ChunkBandProducer(codes, 256)
        # available before bands() has run at all
        assert producer.pinned_header
        assert producer.stream_length == len(HuffmanCoder(chunk_size=256).encode(codes))
        assert producer.peak_scratch_bytes > 0

    def test_crc_gated_on_band_completion(self):
        producer = ChunkBandProducer(np.arange(300, dtype=np.int64), 64)
        with pytest.raises(ValueError):
            producer.magic_and_crc()
        for _ in producer.bands():
            pass
        assert len(producer.magic_and_crc()) == 8

    def test_clamped_profile_reaches_the_length_limit(self):
        producer = ChunkBandProducer(_symbols("clamped", 0, 1, 0))
        assert producer.k == 1
        assert max(producer.code_lengths) == MAX_CODE_LENGTH

    @pytest.mark.parametrize("kind, alphabet, chunk_size, group", [
        ("skewed", 40, huffman.DEFAULT_CHUNK_TUPLES, None),   # default geometry
        ("uniform", 20_000, 1024, 256),                       # chunk > group, ~15-bit codes
        ("skewed", 40, 300, 4096),                            # many chunks per group
    ])
    def test_peak_scratch_bounds_traced_peak(self, kind, alphabet, chunk_size, group):
        symbols = _symbols(kind, 300_000, alphabet, 9)
        with mock.patch.object(huffman, "_PACK_GROUP_TUPLES",
                               group or huffman._PACK_GROUP_TUPLES):
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


@functools.lru_cache(maxsize=None)
def _companion(seed: int) -> bytes:
    """A narrow stream (3 chunks of 1024 singles) to share a walk with."""
    symbols = _symbols("skewed", 3000, 30, seed)
    symbols[:2] = 0, 29
    return HuffmanCoder().encode(symbols)


@functools.lru_cache(maxsize=None)
def _companion_symbols(seed: int) -> np.ndarray:
    return decode_reference(_companion(seed))


#: the ``_SHARED_WALK_CHUNKS`` and ``_MIN_VECTOR_CHUNKS`` that put a stream
#: in each kernel: a walk of its own, one walk shared with every stream of
#: its batch, or the per-tuple loop
_KERNELS = {"alone": (1, 1), "shared": (1 << 30, 1), "scalar": (1 << 30, 1 << 30)}


def _decode_in_walk(payload: bytes, kernel: str) -> "np.ndarray | None":
    """:func:`_decode_or_none` with ``payload`` decoded by ``kernel``
    (:data:`_KERNELS`), in a batch between two narrow companions."""
    batch = [_companion(1), payload, _companion(2)]
    line, crossover = _KERNELS[kernel]
    with mock.patch.object(huffman, "_SHARED_WALK_CHUNKS", line), \
            mock.patch.object(huffman, "_MIN_VECTOR_CHUNKS", crossover):
        try:
            decoded = HuffmanCoder().decode(batch, [any_count] * 3)
        except ValueError:
            return None
    for seed, symbols in zip((1, 2), decoded[::2]):
        np.testing.assert_array_equal(symbols, _companion_symbols(seed))
    return decoded[1]


class TestDecodeMatchesScalar:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_chunks=st.integers(1, 3 * huffman._SHARED_WALK_CHUNKS + 2),
           chunk=st.integers(1, 64), tail=st.integers(1, 64),
           alphabet=st.integers(2, 120))
    def test_both_sides_of_the_grouping_line(self, seed, n_chunks, chunk, tail,
                                             alphabet):
        # as many symbols as n_chunks chunks of the tuples the coder takes
        # for them, short of a whole last tuple by a seeded pad.  The first
        # tuple is all 0 and the last symbol is alphabet - 1, so W is the
        # alphabet and a stream of two or more tuples uses two or more.  A
        # stream under the line shares its walk with two narrow companions.
        tuples = chunk * (n_chunks - 1) + min(tail, chunk)
        for k in huffman._tuple_sizes(alphabet):
            symbols = _symbols("skewed", tuples * k - seed % k, alphabet, seed)
            symbols[:k] = 0
            symbols[-1] = alphabet - 1
            if ChunkBandProducer(symbols, chunk).k == k:
                break
        else:
            assume(False)  # neither tuple size is the one its own stream takes
        payload = HuffmanCoder(chunk_size=chunk).encode(symbols)
        head = HuffmanCoder._parse(payload, None)
        assert (head.k, head.bit_offsets.size) == (k, n_chunks)
        reference = decode_reference(payload)
        np.testing.assert_array_equal(reference, symbols)
        batch = [_companion(1), payload, _companion(2)]
        decoded = HuffmanCoder().decode(batch, [any_count] * 3)
        np.testing.assert_array_equal(decoded[0], _companion_symbols(1))
        np.testing.assert_array_equal(decoded[1], reference)
        np.testing.assert_array_equal(decoded[2], _companion_symbols(2))
        walks = huffman._walks([huffman._Stream(i, HuffmanCoder._parse(p, None), None, None)
                                for i, p in enumerate(batch)])
        alone = [[s.index for s in walk] == [1] for walk in walks]
        assert any(alone) == (n_chunks >= huffman._SHARED_WALK_CHUNKS)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_chunks=st.integers(1, 3 * huffman._SHARED_WALK_CHUNKS + 2),
           chunk=st.integers(1, 64), alphabet=st.integers(2, 40),
           flips=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=3),
           kernel=st.sampled_from(sorted(_KERNELS)))
    def test_corrupt_bodies_rejected_like_the_oracle(self, seed, n_chunks, chunk,
                                                     alphabet, flips, kernel):
        symbols = _symbols("skewed", chunk * n_chunks, alphabet, seed)
        payload = bytearray(HuffmanCoder(chunk_size=chunk).encode(symbols))
        bits_at = HuffmanCoder._parse(bytes(payload), None).bits_at
        body_bits = (len(payload) - bits_at) * 8
        if body_bits == 0:
            return  # a one-tuple stream has no code bits to flip
        for flip in flips:
            bit = flip % body_bits
            payload[bits_at + bit // 8] ^= 0x80 >> (bit % 8)
        mutated = _refresh_crc(bytes(payload))
        try:
            expected = decode_reference(mutated)
        except ValueError:
            expected = None
        decoded = _decode_in_walk(mutated, kernel)
        if expected is None:
            assert decoded is None
        else:
            np.testing.assert_array_equal(decoded, expected)


def _crafted(chunks_bits: "list[str]", tuples: "list[int]", pad: str = "0") -> bytes:
    """A k = 1 HUF4 stream over the codes ``0 -> "0"`` and ``1 -> "10"`` (W =
    2; windows starting ``11`` are unused) whose chunks hold the given bit
    strings and declare the given tuple counts.  ``pad`` fills the last byte
    behind the final code."""
    bits = "".join(chunks_bits)
    total = len(bits)
    bits += pad * (-total % 8)
    body = (_HEADER.pack(0, 2, 1, sum(tuples), tuples[0], len(tuples))
            + b"\xc0" + b"\x01"  # tuples 0 and 1 used; lengths 1 and 2
            + np.array([len(b) for b in chunks_bits], dtype="<u4").tobytes()
            + (int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""))
    return b"HUF4" + struct.pack("<I", zlib.crc32(body)) + body


def _stalling_stream(n_chunks: int) -> bytes:
    """``n_chunks`` chunks of 4 symbols over the codes ``0 -> "0"``,
    ``1 -> "10"`` (windows starting ``11`` are unused).

    Every chunk but the last holds ``1 1 1 0`` in 7 bits; the last holds only
    ``10100`` (3 codes in 5 bits) yet declares 4 symbols, and the two pad bits
    behind it are ``11``.  Its cursor reaches the recorded end one symbol early
    and then reads an unused window there.
    """
    stream = _crafted(["1010100"] * (n_chunks - 1) + ["10100"], [4] * n_chunks, pad="1")
    assert (7 * (n_chunks - 1) + 5) % 8 == 6
    return stream


@pytest.mark.parametrize("n_chunks", [8, 64, 304])
class TestStalledChunkRejected:
    def test_scalar_reference(self, n_chunks):
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            decode_reference(_stalling_stream(n_chunks))

    @pytest.mark.parametrize("kernel", sorted(_KERNELS))
    def test_each_kernel_rejects(self, n_chunks, kernel):
        # a walk's stalled chunk ends on its boundary, so only the unused
        # window it stalls on gives it away; the loop runs into the boundary
        batch = [_companion(1), _companion(2), _stalling_stream(n_chunks)]
        line, crossover = _KERNELS[kernel]
        match = "past its recorded boundary" if kernel == "scalar" else "no codeword"
        with mock.patch.object(huffman, "_SHARED_WALK_CHUNKS", line), \
                mock.patch.object(huffman, "_MIN_VECTOR_CHUNKS", crossover):
            with pytest.raises(huffman.StreamError, match=match) as caught:
                HuffmanCoder().decode(batch, [any_count] * len(batch))
        assert caught.value.index == 2


_TOKENS = {0: "0", 1: "10", None: "11"}    # None writes an unused window


def _token_stream(chunks: "list[list]", pad: str = "0") -> bytes:
    """A crafted stream (:func:`_crafted`) whose chunks hold the given tokens;
    a ``None`` token is a declared symbol whose window starts ``11``, which
    no code covers."""
    return _crafted(["".join(_TOKENS[t] for t in tokens) for tokens in chunks],
                    [len(tokens) for tokens in chunks], pad)


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
            decode_reference(payload)
        assert _decode_in_walk(payload, kernel) is None

    def test_unused_windows_past_a_short_tail_are_ignored(self, kernel):
        chunks = [list(self.FULL) for _ in range(3)] + [list(self.TAIL)]
        # the tail ends 3 bits into its last byte; its surplus walk reads
        # the ones behind it, an unused window
        payload = _token_stream(chunks, pad="1")
        expected = np.array(sum(chunks, []))
        np.testing.assert_array_equal(decode_reference(payload), expected)
        np.testing.assert_array_equal(_decode_in_walk(payload, kernel), expected)

    @pytest.mark.parametrize("chunk_size", [5000, 1250, 250])
    def test_alphabet_past_uint16(self, kernel, chunk_size):
        # SZ2's radius-32768 quantizer emits codes up to 65537: W = 65538
        rng = np.random.default_rng(17)
        symbols = rng.integers(0, 40, size=5000)
        symbols[rng.choice(5000, size=60, replace=False)] = \
            rng.choice([65535, 65536, 65537], size=60)
        payload = HuffmanCoder(chunk_size=chunk_size).encode(symbols)
        assert pinned_code_table(payload[8:])[0]["width"] == 65538
        np.testing.assert_array_equal(decode_reference(payload), symbols)
        np.testing.assert_array_equal(_decode_in_walk(payload, kernel), symbols)

    @pytest.mark.parametrize("chunk_size", [1 << 16, 2000, 512])
    def test_length_clamped_table(self, kernel, chunk_size):
        symbols = _symbols("clamped", 0, 1, 23)
        producer = ChunkBandProducer(symbols, chunk_size)
        assert max(producer.code_lengths) == MAX_CODE_LENGTH
        payload = HuffmanCoder.assemble(producer)
        np.testing.assert_array_equal(decode_reference(payload), symbols)
        np.testing.assert_array_equal(_decode_in_walk(payload, kernel), symbols)

    def test_kraft_incomplete_table(self, kernel):
        # the crafted codes "0" and "10" leave every window "11..." unused
        chunks = [list(self.FULL) for _ in range(20)] + [list(self.TAIL)]
        payload = _token_stream(chunks)
        expected = np.array(sum(chunks, []))
        np.testing.assert_array_equal(decode_reference(payload), expected)
        np.testing.assert_array_equal(_decode_in_walk(payload, kernel), expected)


@st.composite
def _streams(draw) -> "tuple[np.ndarray, bytes]":
    """``(symbols, payload)``: an empty, a one-tuple or a coded stream of 1
    to 3 x 512 chunks of 1 to 8 tuples, over a drawn range and offset."""
    kind = draw(st.sampled_from(["empty", "one-tuple", "coded", "coded"]))
    lo = draw(st.sampled_from([0, 7, 65530]))
    if kind == "empty":
        return np.zeros(0, dtype=np.int64), HuffmanCoder().encode(np.zeros(0, dtype=np.int64))
    n_chunks, chunk = draw(st.integers(1, 3 * 512)), draw(st.integers(1, 8))
    size = n_chunks * chunk - draw(st.integers(0, chunk - 1))
    if kind == "one-tuple":
        symbols = np.full(size, lo + draw(st.integers(0, 40)), dtype=np.int64)
    else:
        alphabet = draw(st.integers(2, 300))
        symbols = _symbols(draw(st.sampled_from(["uniform", "skewed"])), size, alphabet,
                           draw(st.integers(0, 2 ** 32 - 1)), lo)
    return symbols, HuffmanCoder(chunk_size=chunk).encode(symbols)


class TestBatch:
    @settings(max_examples=40, deadline=None)
    @given(streams=st.lists(_streams(), min_size=1, max_size=8),
           line=st.sampled_from([1, 16, huffman._SHARED_WALK_CHUNKS]),
           crossover=st.sampled_from([1, huffman._MIN_VECTOR_CHUNKS]))
    def test_batch_equals_the_oracle_stream_by_stream(self, streams, line, crossover):
        payloads = [payload for _, payload in streams]
        with mock.patch.object(huffman, "_SHARED_WALK_CHUNKS", line), \
                mock.patch.object(huffman, "_MIN_VECTOR_CHUNKS", crossover):
            decoded = HuffmanCoder().decode(payloads, [any_count] * len(payloads))
        assert len(decoded) == len(streams)
        for (symbols, payload), got in zip(streams, decoded):
            np.testing.assert_array_equal(decode_reference(payload), symbols)
            np.testing.assert_array_equal(got, symbols)
            assert got.dtype == np.int32

    def test_single_stream_is_a_batch_of_one(self):
        payload = HuffmanCoder(chunk_size=64).encode(_symbols("skewed", 5000, 30, 4))
        single = HuffmanCoder().decode(payload, any_count)
        (batched,) = HuffmanCoder().decode([payload], [any_count])
        np.testing.assert_array_equal(single, batched)

    def test_many_streams_share_walks_a_few_at_a_time(self):
        # 300 streams of 2 chunks: each would bring 768 KB of window tables
        # to a walk, so a shared walk holds at most _SHARED_WALK_STREAMS
        symbols = np.tile(np.arange(5), 10)
        payloads = [HuffmanCoder(chunk_size=32).encode(symbols) for _ in range(300)]
        streams = [huffman._Stream(i, HuffmanCoder._parse(p, None), None, None)
                   for i, p in enumerate(payloads)]
        walks = huffman._walks(streams)
        assert max(len(walk) for walk in walks) == huffman._SHARED_WALK_STREAMS
        coder = HuffmanCoder()
        coder.decode(payloads[:20], [any_count] * 20)  # stocks the free lists
        tracemalloc.start()
        try:
            decoded = coder.decode(payloads, [any_count] * len(payloads))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(got, symbols) for got in decoded)
        tables = huffman._SHARED_WALK_STREAMS * (12 << MAX_CODE_LENGTH)
        assert peak < tables + (2 << 20)

    def test_each_stream_needs_a_count_check(self):
        payload = HuffmanCoder().encode(np.arange(10))
        with pytest.raises(TypeError, match="2 streams need as many count checks"):
            HuffmanCoder().decode([payload, payload], [any_count])


def _batch(position: int, corrupt: bytes) -> "list[bytes]":
    """Four streams of different shapes, ``corrupt`` at ``position``."""
    batch = [HuffmanCoder(chunk_size=64).encode(_symbols("skewed", 3000, 20, 1)),
             _companion(5),
             HuffmanCoder().encode(_symbols("uniform", 1 << 17, 51, 2)),  # 128 chunks
             HuffmanCoder().encode(np.full(500, 3))]
    batch.insert(position, corrupt)
    return batch


def _flipped_stream() -> bytes:
    """A stream with one code bit flipped (and the CRC re-stamped): the
    first flip the oracle rejects."""
    payload = HuffmanCoder(chunk_size=64).encode(_symbols("skewed", 4000, 12, 8))
    bits_at = HuffmanCoder._parse(payload, None).bits_at
    for bit in range(8 * (len(payload) - bits_at)):
        flipped = bytearray(payload)
        flipped[bits_at + bit // 8] ^= 0x80 >> (bit % 8)
        mutated = _refresh_crc(bytes(flipped))
        try:
            decode_reference(mutated)
        except ValueError:
            return mutated
    raise AssertionError("no flip of the code bits was rejected")


def _at_most_a_million(count: int) -> None:
    if count > 10 ** 6:
        raise ValueError(f"{count} symbols declared, at most 1000000 expected")


_CORRUPT = {
    "cut": lambda: HuffmanCoder().encode(_symbols("skewed", 9000, 30, 3))[:-1],
    "flip": _flipped_stream,
    "stall": lambda: _stalling_stream(64),
    "bomb": lambda: one_tuple_bomb(1 << 34),
}


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("corruption", sorted(_CORRUPT))
def test_corrupt_stream_in_a_batch_is_named(corruption, position):
    batch = _batch(position, _CORRUPT[corruption]())
    coder = HuffmanCoder()
    checks = [_at_most_a_million] * len(batch)
    with pytest.raises(huffman.StreamError, match="corrupt Huffman stream|symbols declared") \
            as caught:
        coder.decode(batch, checks)
    assert caught.value.index == position
    if corruption == "bomb":
        # rejected with the headers, before any table, window or record
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="17179869184 symbols declared"):
                coder.decode(batch, checks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("alphabet, k", [(16, 1), (51, 2)])
def test_walk_peak_is_bounded_by_its_arrays(alphabet, k):
    """One default decode's traced peak, phase by phase.

    The header parse builds the window tables, ``int64`` lengths and
    ``int32`` values (12 B per 16-bit window), which live through every
    phase.  The walk holds the bit windows (8 ``uint16`` per stream byte, built from
    ``uint32`` fields of 4 B per byte) plus the ``uint16`` window record.
    Once the windows are freed, the gather holds the record, the ``intp``
    copy ``take`` makes of it and the ``int32`` values; the widening holds
    those values, the ``int32`` output and one tile of gathered symbols
    (with the ``intp`` copy of its ranks).  With 4-bit codes an ``int64``
    record beside the windows would exceed every one of these phases.
    """
    rng = np.random.default_rng(5)
    symbols = rng.integers(0, alphabet, size=1 << 16) if k == 1 else \
        np.where(rng.random(1 << 16) < 0.9, 25, rng.integers(0, alphabet, 1 << 16))
    symbols[:2] = 0, alphabet - 1
    payload = HuffmanCoder(chunk_size=1024 // k).encode(symbols)
    head = HuffmanCoder._parse(payload, None)
    assert head.k == k
    width, steps = head.bit_offsets.size, int(head.tuple_counts[0])
    assert width >= 16
    n_bytes, n_tuples = len(payload) - head.bits_at, width * steps
    tile = width * min(steps, huffman._TRANSPOSE_STEPS)
    phases = {"windows": 20 * n_bytes,
              "walk": 16 * n_bytes + 2 * n_tuples,
              "gather": (2 + 8 + 4) * n_tuples,
              "widen": (4 + 4 * k) * n_tuples + (8 + 4 * k) * tile}
    tables = 12 << MAX_CODE_LENGTH
    bound = max(phases.values()) + tables + (64 << 10)  # + header arrays, ufunc buffers
    coder = HuffmanCoder()
    coder.decode(payload, any_count)  # stocks the interpreter's free lists
    tracemalloc.start()
    try:
        decoded = coder.decode(payload, any_count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(decoded, symbols)
    assert peak <= bound
    assert peak >= bound // 2
