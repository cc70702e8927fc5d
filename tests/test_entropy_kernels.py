"""The entropy stage's fast kernels held to their references.

* The scatter packer must cut the same bands, byte for byte, as the
  bit-matrix oracle in ``huffman_reference.py``: random alphabets and
  offsets, every tuple size the rule allows (k = 1, 2, 3, 7 and 12 on
  streams the encoder codes in those tuples), code lengths up to 16 (clamped
  tables included), chunk sizes whose bit counts force carries, group sizes
  that split chunks across packing groups, padded last tuples, and empty and
  one-tuple streams.
* The in-thread decode (the vectorized row walk above
  ``_MIN_VECTOR_CHUNKS`` chunks) must equal the per-tuple scalar loop on both
  sides of the crossover, and must reject exactly the corrupt bodies the
  scalar loop rejects.
* ``peak_scratch_bytes`` must bound the packer's traced allocation peak, and
  the header and stream length are pinned before any band is packed, while
  the CRC waits for the last band.
* A crafted stream whose last chunk stalls on its boundary must raise on
  every decode path.
* On both kernels: an unused window at the first, a
  middle or the last tuple of a full or a short tail chunk is rejected as
  the reference rejects it, unused windows the tail chunk's surplus walk
  reads are ignored, and symbols up to 65537 (W past ``uint16``),
  Kraft-incomplete and length-clamped tables decode like the reference.
* The row walk's traced peak is bounded by its arrays: 2 B per tuple for
  the window record, never an ``int64`` one.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from huffman_reference import any_count, bit_matrix_bands, pinned_code_table
from repro.compressors import huffman
from repro.compressors.huffman import (
    MAX_CODE_LENGTH,
    ChunkBandProducer,
    HuffmanCoder,
    _decode_reference,
)

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
        np.testing.assert_array_equal(_decode_reference(payload), symbols)
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
            np.testing.assert_array_equal(_decode_reference(payload), symbols)
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


class TestDecodeMatchesScalar:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_chunks=st.integers(1, 3 * huffman._MIN_VECTOR_CHUNKS + 2),
           chunk=st.integers(1, 64), tail=st.integers(1, 64),
           alphabet=st.integers(2, 120))
    def test_both_sides_of_the_crossover(self, seed, n_chunks, chunk, tail,
                                         alphabet):
        # as many symbols as n_chunks chunks of the tuples the coder takes
        # for them, short of a whole last tuple by a seeded pad.  The first
        # tuple is all 0 and the last symbol is alphabet - 1, so W is the
        # alphabet and a stream of two or more tuples uses two or more.
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
        reference = _decode_reference(payload)
        np.testing.assert_array_equal(reference, symbols)
        decoded = _decode_or_none(payload)
        assert decoded is not None
        np.testing.assert_array_equal(decoded, reference)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_chunks=st.integers(1, 3 * huffman._MIN_VECTOR_CHUNKS + 2),
           chunk=st.integers(1, 64), alphabet=st.integers(2, 40),
           flips=st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=3))
    def test_corrupt_bodies_rejected_like_scalar(self, seed, n_chunks, chunk,
                                                 alphabet, flips):
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
            expected = _decode_reference(mutated)
        except ValueError:
            expected = None
        decoded = _decode_or_none(mutated)
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


@pytest.mark.parametrize("n_chunks", [8, 64])
class TestStalledChunkRejected:
    def test_scalar_reference(self, n_chunks):
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            _decode_reference(_stalling_stream(n_chunks))

    def test_batch_decode(self, n_chunks):
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            HuffmanCoder().decode(_stalling_stream(n_chunks), any_count)

    def test_walk_itself_rejects(self, n_chunks):
        # force the vectorized kernel even for the narrowest band
        with mock.patch.object(huffman, "_MIN_VECTOR_CHUNKS", 1):
            with pytest.raises(ValueError, match="no codeword"):
                HuffmanCoder().decode(_stalling_stream(n_chunks), any_count)


_KERNELS = {"walk": 1, "scalar": 1 << 30}  # the _MIN_VECTOR_CHUNKS forcing each
_TOKENS = {0: "0", 1: "10", None: "11"}    # None writes an unused window


def _token_stream(chunks: "list[list]", pad: str = "0") -> bytes:
    """A crafted stream (:func:`_crafted`) whose chunks hold the given tokens;
    a ``None`` token is a declared symbol whose window starts ``11``, which
    no code covers."""
    return _crafted(["".join(_TOKENS[t] for t in tokens) for tokens in chunks],
                    [len(tokens) for tokens in chunks], pad)


def _kernel_decode(payload: bytes, kernel: str) -> "np.ndarray | None":
    """:func:`_decode_or_none` on ``kernel``."""
    with mock.patch.object(huffman, "_MIN_VECTOR_CHUNKS", _KERNELS[kernel]):
        return _decode_or_none(payload)


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
        assert _kernel_decode(payload, kernel) is None

    def test_unused_windows_past_a_short_tail_are_ignored(self, kernel):
        chunks = [list(self.FULL) for _ in range(3)] + [list(self.TAIL)]
        # the tail ends 3 bits into its last byte; its surplus walk reads
        # the ones behind it, an unused window
        payload = _token_stream(chunks, pad="1")
        expected = np.array(sum(chunks, []))
        np.testing.assert_array_equal(_decode_reference(payload), expected)
        np.testing.assert_array_equal(_kernel_decode(payload, kernel), expected)

    @pytest.mark.parametrize("chunk_size", [5000, 1250, 250])
    def test_alphabet_past_uint16(self, kernel, chunk_size):
        # SZ2's radius-32768 quantizer emits codes up to 65537: W = 65538
        rng = np.random.default_rng(17)
        symbols = rng.integers(0, 40, size=5000)
        symbols[rng.choice(5000, size=60, replace=False)] = \
            rng.choice([65535, 65536, 65537], size=60)
        payload = HuffmanCoder(chunk_size=chunk_size).encode(symbols)
        assert pinned_code_table(payload[8:])[0]["width"] == 65538
        np.testing.assert_array_equal(_decode_reference(payload), symbols)
        np.testing.assert_array_equal(_kernel_decode(payload, kernel), symbols)

    @pytest.mark.parametrize("chunk_size", [1 << 16, 2000, 512])
    def test_length_clamped_table(self, kernel, chunk_size):
        symbols = _symbols("clamped", 0, 1, 23)
        producer = ChunkBandProducer(symbols, chunk_size)
        assert max(producer.code_lengths) == MAX_CODE_LENGTH
        payload = HuffmanCoder.assemble(producer)
        np.testing.assert_array_equal(_decode_reference(payload), symbols)
        np.testing.assert_array_equal(_kernel_decode(payload, kernel), symbols)

    def test_kraft_incomplete_table(self, kernel):
        # the crafted codes "0" and "10" leave every window "11..." unused
        chunks = [list(self.FULL) for _ in range(20)] + [list(self.TAIL)]
        payload = _token_stream(chunks)
        expected = np.array(sum(chunks, []))
        np.testing.assert_array_equal(_decode_reference(payload), expected)
        np.testing.assert_array_equal(_kernel_decode(payload, kernel), expected)


@pytest.mark.parametrize("alphabet, k", [(16, 1), (51, 2)])
def test_walk_peak_is_bounded_by_its_arrays(alphabet, k):
    """One default decode's traced peak, phase by phase.

    The header parse builds the window tables, ``int64`` lengths and
    ``int32`` values (12 B per 16-bit window), which live through every
    phase.  The walk holds the bit windows (8 ``uint16`` per stream byte, built from
    ``uint32`` fields of 4 B per byte) plus the ``uint16`` window record.
    Once the windows are freed, the gather holds the record, the ``intp``
    copy ``take`` makes of it and the ``int32`` ranks; the widening holds
    those ranks, the ``int64`` output and one tile of gathered symbols.  With
    4-bit codes an ``int64`` record beside the windows would exceed every
    one of these phases.
    """
    rng = np.random.default_rng(5)
    symbols = rng.integers(0, alphabet, size=1 << 16) if k == 1 else \
        np.where(rng.random(1 << 16) < 0.9, 25, rng.integers(0, alphabet, 1 << 16))
    symbols[:2] = 0, alphabet - 1
    payload = HuffmanCoder(chunk_size=1024 // k).encode(symbols)
    head = HuffmanCoder._parse(payload, None)
    assert head.k == k
    width, steps = head.bit_offsets.size, int(head.tuple_counts[0])
    assert width >= huffman._MIN_VECTOR_CHUNKS
    n_bytes, n_tuples = len(payload) - head.bits_at, width * steps
    tile = width * min(steps, huffman._TRANSPOSE_STEPS)
    phases = {"windows": 20 * n_bytes,
              "walk": 16 * n_bytes + 2 * n_tuples,
              "gather": (2 + 8 + 4) * n_tuples,
              "widen": (4 + 8 * k) * n_tuples + (8 + 8 * k) * tile}
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
