"""Tests for the chunked canonical Huffman coder (HUF4 tuple streams)."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from huffman_reference import any_count, decode_reference, one_tuple_bomb
from repro.compressors.huffman import DEFAULT_CHUNK_TUPLES, MAX_CODE_LENGTH, HuffmanCoder

_HEADER = struct.Struct("<IIBQII")  # lo, W, k, count, tuples per chunk, chunks
_PREFIX_LEN = 8


def _parse_header(payload: bytes) -> dict:
    """The fields of a HUF4 payload, with the byte offset of each section."""
    lo, width, k, count, chunk, n_chunks = _HEADER.unpack_from(payload, _PREFIX_LEN)
    fields = {"lo": lo, "width": width, "k": k, "count": count, "chunk": chunk,
              "n_chunks": n_chunks, "bitmap_at": _PREFIX_LEN + _HEADER.size}
    bitmap = np.frombuffer(payload, dtype=np.uint8, count=-(-width ** k // 8),
                           offset=fields["bitmap_at"])
    used = int(np.unpackbits(bitmap).sum())
    fields["lengths_at"] = fields["bitmap_at"] + bitmap.size
    fields["chunks_at"] = fields["lengths_at"] + ((used + 1) // 2 if used > 1 else 0)
    fields["chunk_bits"] = np.frombuffer(payload, dtype="<u4", count=n_chunks,
                                         offset=fields["chunks_at"]).astype(np.int64)
    fields["bits_at"] = fields["chunks_at"] + 4 * n_chunks
    return fields


def _refresh_crc(payload: bytes) -> bytes:
    """Recompute the CRC field so structural checks behind it are reachable."""
    return payload[:4] + struct.pack("<I", zlib.crc32(payload[8:])) + payload[8:]


def _patched(payload: bytes, at: int, data: bytes) -> bytes:
    """``payload`` with ``data`` written at ``at`` and the CRC re-stamped."""
    return _refresh_crc(payload[:at] + data + payload[at + len(data):])


@pytest.fixture
def coder() -> HuffmanCoder:
    return HuffmanCoder()


class TestRoundtrip:
    def test_simple_sequence(self, coder):
        symbols = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3], dtype=np.int64)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols), any_count), symbols)

    def test_single_symbol_alphabet(self, coder):
        symbols = np.full(1000, 7, dtype=np.int64)
        decoded = coder.decode(coder.encode(symbols), any_count)
        np.testing.assert_array_equal(decoded, symbols)

    def test_two_symbols(self, coder):
        symbols = np.array([0, 1] * 50, dtype=np.int64)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols), any_count), symbols)

    def test_empty_input(self, coder):
        out = coder.decode(coder.encode(np.array([], dtype=np.int64)), any_count)
        assert out.size == 0

    def test_skewed_distribution(self, coder):
        rng = np.random.default_rng(0)
        symbols = rng.geometric(0.3, size=5000) - 1
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols), any_count), symbols)

    def test_uniform_large_alphabet(self, coder):
        rng = np.random.default_rng(1)
        symbols = rng.integers(0, 500, size=3000)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols), any_count), symbols)

    def test_quantization_like_stream(self, coder):
        # the typical SZ stream: one dominant central symbol, a spread around it
        rng = np.random.default_rng(2)
        symbols = np.clip(np.rint(rng.normal(1000, 3, size=20000)), 0, 2000).astype(np.int64)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols), any_count), symbols)

    def test_sparse_alphabet_with_gaps(self, coder):
        symbols = np.array([0, 1000, 0, 1000, 5, 0, 1000], dtype=np.int64)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols), any_count), symbols)

    def test_various_integer_dtypes(self, coder):
        for dtype in (np.int16, np.int32, np.uint16, np.int64):
            symbols = np.arange(50, dtype=dtype)
            np.testing.assert_array_equal(coder.decode(coder.encode(symbols), any_count), symbols.astype(np.int64))


class TestCompression:
    def test_skewed_data_compresses_well(self, coder):
        rng = np.random.default_rng(3)
        symbols = np.where(rng.random(50_000) < 0.95, 10, rng.integers(0, 20, 50_000))
        encoded = coder.encode(symbols)
        # ~0.5 bits/symbol entropy; int64 raw would be 400 KB
        assert len(encoded) < 50_000 * 2 / 8 + 1000

    def test_negative_symbols_rejected(self, coder):
        with pytest.raises(ValueError):
            coder.encode(np.array([1, -2, 3]))

    def test_code_lengths_bounded(self, coder):
        # extremely skewed frequencies would build very deep trees without clamping
        rng = np.random.default_rng(4)
        counts = (2 ** np.arange(24)).astype(np.int64)
        symbols = np.repeat(np.arange(24), np.minimum(counts, 5000))
        rng.shuffle(symbols)
        decoded = coder.decode(coder.encode(symbols), any_count)
        np.testing.assert_array_equal(np.sort(decoded), np.sort(symbols))

    def test_max_code_length_constant(self):
        assert 8 <= MAX_CODE_LENGTH <= 24


def _distributions() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    return {
        "quantizer-like": np.clip(np.rint(rng.normal(500, 3, size=30_000)),
                                  0, 1000).astype(np.int64),
        "uniform": rng.integers(0, 200, size=20_000),
        "single-symbol": np.full(20_000, 7, dtype=np.int64),
        "two-symbols": np.tile([0, 1], 10_000).astype(np.int64),
        "sparse-gaps": rng.choice([0, 5, 1000, 4097], size=20_000),
    }


class TestChunkedFormat:
    def test_header_records_consistent_chunk_index(self):
        # consecutive symbols of a period-37 ramp repeat as 37 distinct pairs
        symbols = np.arange(50_000, dtype=np.int64) % 37
        payload = HuffmanCoder(chunk_size=1024).encode(symbols)
        fields = _parse_header(payload)
        assert (fields["lo"], fields["width"], fields["k"], fields["count"],
                fields["chunk"]) == (0, 37, 2, 50_000, 1024)
        assert fields["n_chunks"] == -(-25_000 // 1024)
        bits = fields["chunk_bits"]
        assert np.all(bits[:-1] >= 1024) and np.all(bits[:-1] <= 1024 * MAX_CODE_LENGTH)
        assert len(payload) == fields["bits_at"] + (int(bits.sum()) + 7) // 8

    def test_small_streams_get_smaller_chunks(self):
        # a 64Ki-symbol stream must not end up as a single 64Ki chunk: the
        # encoder shrinks chunks so the decoder has parallelism to work with
        symbols = np.random.default_rng(7).integers(0, 100, 1 << 16)
        assert _parse_header(HuffmanCoder().encode(symbols))["n_chunks"] > 8

    def test_configured_chunk_size_is_a_cap(self):
        symbols = np.random.default_rng(8).integers(0, 100, 100_000)
        payload = HuffmanCoder(chunk_size=512).encode(symbols)
        assert _parse_header(payload)["chunk"] == 512

    @pytest.mark.parametrize("name", sorted(_distributions()))
    def test_decode_bit_identical_to_reference(self, name):
        symbols = _distributions()[name]
        coder = HuffmanCoder(chunk_size=1024)
        payload = coder.encode(symbols)
        reference = decode_reference(payload)
        np.testing.assert_array_equal(reference, symbols)
        np.testing.assert_array_equal(coder.decode(payload, any_count), reference)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 20])
    def test_every_chunk_size_decodes_to_the_reference(self, chunk):
        # the chunking is self-describing: a coder configured otherwise reads it
        codes = np.random.default_rng(0).integers(0, 80, size=1500).astype(np.int64)
        payload = HuffmanCoder(chunk_size=chunk).encode(codes)
        assert _parse_header(payload)["chunk"] <= chunk
        np.testing.assert_array_equal(decode_reference(payload), codes)
        np.testing.assert_array_equal(HuffmanCoder().decode(payload, any_count), codes)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCoder(chunk_size=0)
        with pytest.raises(ValueError, match="u32"):
            HuffmanCoder(chunk_size=1 << 28)  # 16 bits per tuple overflow a u32

    def test_default_chunk_constant_sane(self):
        assert 1024 <= DEFAULT_CHUNK_TUPLES <= (1 << 20)


@pytest.fixture
def chunked_payload() -> tuple[np.ndarray, bytes]:
    rng = np.random.default_rng(5)
    symbols = np.clip(np.rint(rng.normal(40, 4, size=4000)), 0, 80).astype(np.int64)
    return symbols, HuffmanCoder(chunk_size=256).encode(symbols)


class TestCorruption:
    """Any corrupted or truncated payload must raise ValueError — never
    struct.error / IndexError, and never silently return wrong symbols."""

    def test_truncation_at_every_boundary_raises(self, chunked_payload):
        _, payload = chunked_payload
        coder = HuffmanCoder()
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                coder.decode(payload[:cut], any_count)

    def test_bitflip_fuzz_every_byte(self, chunked_payload):
        symbols, payload = chunked_payload
        coder = HuffmanCoder()
        for i in range(len(payload)):
            mutated = bytearray(payload)
            mutated[i] ^= 1 << (i % 8)
            try:
                decoded = coder.decode(bytes(mutated), any_count)
            except ValueError:
                continue
            np.testing.assert_array_equal(decoded, symbols)

    def test_bad_magic_rejected(self, coder, chunked_payload):
        _, payload = chunked_payload
        with pytest.raises(ValueError, match="magic"):
            coder.decode(b"XXXX" + payload[4:], any_count)

    def test_crc_mismatch_rejected(self, coder, chunked_payload):
        _, payload = chunked_payload
        mutated = bytearray(payload)
        mutated[-1] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            coder.decode(bytes(mutated), any_count)

    def test_unused_window_detected(self, coder):
        # a complete 1-bit code over random bits, with its table rewritten
        # to lengths 1 and 2: every window starting "11" is now unused and
        # must not silently decode or stall the cursor
        payload = coder.encode(np.random.default_rng(9).integers(0, 2, 20_000))
        fields = _parse_header(payload)
        assert fields["k"] == 1
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            coder.decode(_patched(payload, fields["lengths_at"], b"\x01"), any_count)

    def test_chunk_boundary_mismatch_detected(self, chunked_payload):
        # move one bit from the second chunk's length to the first's: both
        # chunks now fail the decode-to-boundary check
        _, payload = chunked_payload
        fields = _parse_header(payload)
        bits = fields["chunk_bits"].copy()
        bits[0] += 1
        bits[1] -= 1
        mutated = _patched(payload, fields["chunks_at"], bits.astype("<u4").tobytes())
        with pytest.raises(ValueError, match="boundary"):
            HuffmanCoder().decode(mutated, any_count)

    def test_trailing_bits_detected(self):
        # declare 8 extra bits in the last chunk (and ship the extra byte):
        # it no longer decodes to its recorded end
        symbols = np.random.default_rng(10).integers(0, 100, 20_000)
        payload = HuffmanCoder(chunk_size=1024).encode(symbols)
        fields = _parse_header(payload)
        bits = fields["chunk_bits"].copy()
        bits[-1] += 8
        mutated = _patched(payload + b"\x00", fields["chunks_at"],
                           bits.astype("<u4").tobytes())
        with pytest.raises(ValueError, match="boundary"):
            HuffmanCoder().decode(mutated, any_count)

    def test_overstated_symbol_count_rejected(self, chunked_payload):
        _, payload = chunked_payload
        mutated = _patched(payload, _PREFIX_LEN + 9, struct.pack("<Q", 2 ** 40))
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            HuffmanCoder().decode(mutated, any_count)

    def test_kraft_violating_length_table_rejected(self, coder):
        # every used tuple one bit long: more codes than one bit can hold
        payload = coder.encode(np.random.default_rng(11).integers(0, 3, 300))
        fields = _parse_header(payload)
        size = fields["chunks_at"] - fields["lengths_at"]
        assert size >= 2
        with pytest.raises(ValueError, match="Kraft"):
            coder.decode(_patched(payload, fields["lengths_at"], bytes(size)), any_count)


class TestHuf4Rules:
    """Each HUF4 rule rejects a stream, with a message that names it.

    Every mutation re-stamps the CRC, so the structural check itself fires.
    """

    @staticmethod
    def _assert_rejected(payload: bytes, match: str) -> None:
        with pytest.raises(ValueError, match=match):
            HuffmanCoder().decode(payload, any_count)

    @pytest.fixture
    def tuples(self) -> "tuple[np.ndarray, bytes]":
        # W = 3, so the rule allows k = 1 and k = 7; 2001 symbols pad the last
        # 7-tuple with 6 copies of lo
        rng = np.random.default_rng(12)
        symbols = 4 + np.where(rng.random(2001) < 0.9, 1, rng.integers(0, 3, 2001))
        symbols[:2] = 4, 6
        payload = HuffmanCoder(chunk_size=32).encode(symbols)
        assert _parse_header(payload)["k"] == 7
        return symbols, payload

    @pytest.mark.parametrize("k", [2, 3, 6, 8, 0, 255])
    def test_k_outside_the_rule(self, tuples, k):
        _, payload = tuples
        self._assert_rejected(_patched(payload, _PREFIX_LEN + 8, bytes([k])),
                              "tuple rule")

    def test_k_of_one_past_the_tuple_alphabet(self):
        symbols = np.random.default_rng(13).integers(0, 5000, 3000)
        payload = HuffmanCoder().encode(symbols)
        assert _parse_header(payload)["k"] == 1
        self._assert_rejected(_patched(payload, _PREFIX_LEN + 8, b"\x02"), "tuple rule")

    def test_bitmap_bit_past_the_tuple_alphabet(self, tuples):
        _, payload = tuples
        fields = _parse_header(payload)
        last = fields["lengths_at"] - 1  # 3**7 = 2187 bits: 5 pad bits in the last byte
        mutated = _patched(payload, last, bytes([payload[last] | 1]))
        self._assert_rejected(mutated, "marks tuple 2191 of 2187")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_chunk_bit_length_out_of_range(self, tuples, delta):
        _, payload = tuples
        fields = _parse_header(payload)
        bits = fields["chunk_bits"].copy()
        bits[0] = 32 - 1 if delta < 0 else 32 * MAX_CODE_LENGTH + 1
        mutated = _patched(payload, fields["chunks_at"], bits.astype("<u4").tobytes())
        self._assert_rejected(mutated, "chunk bit lengths fall outside 1 to 16")

    def test_one_tuple_stream_carries_no_bits(self):
        payload = HuffmanCoder().encode(np.full(500, 3))
        fields = _parse_header(payload)
        assert fields["n_chunks"] == 1 and len(payload) == fields["bits_at"]
        mutated = _patched(payload + b"\x00", fields["chunks_at"], struct.pack("<I", 8))
        self._assert_rejected(mutated, "chunk bit lengths fall outside 0 to 0")

    def test_pad_other_than_lo(self, tuples):
        # 2002 symbols fill the last 7-tuple; declaring 2001 turns the last
        # symbol, which is not lo, into pad
        rng = np.random.default_rng(14)
        symbols = 4 + np.where(rng.random(2002) < 0.9, 1, rng.integers(0, 3, 2002))
        symbols[:2] = 4, 6
        symbols[-1] = 5
        payload = HuffmanCoder(chunk_size=32).encode(symbols)
        assert _parse_header(payload)["k"] == 7
        np.testing.assert_array_equal(HuffmanCoder().decode(payload, any_count), symbols)
        mutated = _patched(payload, _PREFIX_LEN + 9, struct.pack("<Q", 2001))
        self._assert_rejected(mutated, "padded with the smallest symbol")

    def test_length_table_pad_nibble(self):
        # five used singles pack their code lengths into three bytes; the
        # last byte's low nibble is pad and must be zero
        symbols = np.random.default_rng(15).choice([0, 100, 200, 300, 4000], 3000)
        payload = HuffmanCoder().encode(symbols)
        fields = _parse_header(payload)
        assert fields["k"] == 1 and fields["chunks_at"] - fields["lengths_at"] == 3
        last = fields["chunks_at"] - 1
        assert payload[last] & 0x0F == 0
        self._assert_rejected(_patched(payload, last, bytes([payload[last] | 0x01])),
                              "pad nibble is not zero")

    def test_trailing_bytes(self, tuples):
        _, payload = tuples
        self._assert_rejected(_refresh_crc(payload + b"\x00"), "holds .* bytes but")

    def test_padded_tuples_round_trip(self, tuples):
        symbols, payload = tuples
        np.testing.assert_array_equal(HuffmanCoder().decode(payload, any_count), symbols)
        np.testing.assert_array_equal(decode_reference(payload), symbols)

    def test_empty_stream_fields_are_fixed(self):
        payload = HuffmanCoder().encode(np.zeros(0, dtype=np.int64))
        assert len(payload) == _PREFIX_LEN + _HEADER.size
        self._assert_rejected(_patched(payload, _PREFIX_LEN, struct.pack("<I", 1)),
                              "empty stream")

    #: byte offset (past the magic and CRC) and layout of each fixed field
    _FIELDS = {"k": (8, "<B"), "count": (9, "<Q"), "chunk": (17, "<I"),
               "n_chunks": (21, "<I")}

    @pytest.mark.parametrize("n_codes, field, value, message", [
        # 700 symbols of W = 24 code as singles, 11 chunks of 64; "bits1"
        # forges chunk 1's bit length
        pytest.param(700, "chunk", 0, "cannot cover", id="zero-chunk-size"),
        pytest.param(700, "chunk", 128, "cannot cover", id="chunk-count"),
        pytest.param(700, "count", 640, "cannot cover", id="stream-length"),
        pytest.param(700, "k", 3, "tuple rule", id="tuple-size"),
        # fewer bits than tuples: every code is at least one bit long
        pytest.param(700, "bits1", 63, "chunk bit lengths", id="short-span"),
        pytest.param(700, "bits1", 64 * MAX_CODE_LENGTH + 1, "chunk bit lengths",
                     id="long-span"),
        pytest.param(700, "count", 0, "empty stream", id="empty-with-bits"),
        pytest.param(0, "n_chunks", 1, "empty stream", id="empty-with-chunk"),
    ])
    def test_forged_index_field(self, n_codes, field, value, message):
        codes = np.random.default_rng(6).integers(0, 24, size=n_codes).astype(np.int64)
        if n_codes:
            codes[:2] = 0, 23
        payload = HuffmanCoder(chunk_size=64).encode(codes)
        if n_codes:
            fields = _parse_header(payload)
            assert (fields["k"], fields["n_chunks"]) == (1, 11)
        if field == "bits1":
            at, layout = _parse_header(payload)["chunks_at"] + 4, "<I"
        else:
            at, layout = self._FIELDS[field]
            at += _PREFIX_LEN
        self._assert_rejected(_patched(payload, at, struct.pack(layout, value)), message)


def _at_most_a_million(count: int) -> None:
    if count > 10 ** 6:
        raise ValueError(f"{count} symbols declared, at most 1000000 expected")


class TestStandaloneDecodeBoundsCount:
    """Outside a container only the caller can bound a one-tuple stream's
    count, so decode requires a ``check_count``.  The bomb is a 66-byte
    stream declaring 2**34 symbols (128 GiB of decoded codes)."""

    BOMB = one_tuple_bomb(1 << 34)

    def test_count_check_is_required(self):
        with pytest.raises(TypeError):
            HuffmanCoder().decode(self.BOMB)

    def test_declared_count_rejected_small(self):
        assert len(self.BOMB) < 100
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="17179869184 symbols declared"):
                HuffmanCoder().decode(self.BOMB, _at_most_a_million)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
