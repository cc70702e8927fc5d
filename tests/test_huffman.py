"""Tests for the chunked canonical Huffman coder (bitstream version 3)."""

import struct
import zlib

import numpy as np
import pytest

from repro.compressors.huffman import (
    DEFAULT_CHUNK_SYMBOLS,
    MAX_CODE_LENGTH,
    HuffmanCoder,
    _decode_reference,
)

_HEADER = struct.Struct("<IQII")
_PREFIX_LEN = 8


def _parse_header(payload: bytes):
    """(alphabet, count, chunk_size, n_chunks, index array) of a v3 payload."""
    alphabet, count, chunk_size, n_chunks = _HEADER.unpack_from(payload, _PREFIX_LEN)
    index = np.frombuffer(payload, dtype="<u8", count=2 * n_chunks,
                          offset=_PREFIX_LEN + _HEADER.size + alphabet).reshape(n_chunks, 2)
    return alphabet, count, chunk_size, n_chunks, index


def _refresh_crc(payload: bytes) -> bytes:
    """Recompute the CRC field so structural checks behind it are reachable."""
    return payload[:4] + struct.pack("<I", zlib.crc32(payload[8:])) + payload[8:]


@pytest.fixture
def coder() -> HuffmanCoder:
    return HuffmanCoder()


class TestRoundtrip:
    def test_simple_sequence(self, coder):
        symbols = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3], dtype=np.int64)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols)), symbols)

    def test_single_symbol_alphabet(self, coder):
        symbols = np.full(1000, 7, dtype=np.int64)
        decoded = coder.decode(coder.encode(symbols))
        np.testing.assert_array_equal(decoded, symbols)

    def test_two_symbols(self, coder):
        symbols = np.array([0, 1] * 50, dtype=np.int64)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols)), symbols)

    def test_empty_input(self, coder):
        out = coder.decode(coder.encode(np.array([], dtype=np.int64)))
        assert out.size == 0

    def test_skewed_distribution(self, coder):
        rng = np.random.default_rng(0)
        symbols = rng.geometric(0.3, size=5000) - 1
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols)), symbols)

    def test_uniform_large_alphabet(self, coder):
        rng = np.random.default_rng(1)
        symbols = rng.integers(0, 500, size=3000)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols)), symbols)

    def test_quantization_like_stream(self, coder):
        # the typical SZ stream: one dominant central symbol, a spread around it
        rng = np.random.default_rng(2)
        symbols = np.clip(np.rint(rng.normal(1000, 3, size=20000)), 0, 2000).astype(np.int64)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols)), symbols)

    def test_sparse_alphabet_with_gaps(self, coder):
        symbols = np.array([0, 1000, 0, 1000, 5, 0, 1000], dtype=np.int64)
        np.testing.assert_array_equal(coder.decode(coder.encode(symbols)), symbols)

    def test_various_integer_dtypes(self, coder):
        for dtype in (np.int16, np.int32, np.uint16, np.int64):
            symbols = np.arange(50, dtype=dtype)
            np.testing.assert_array_equal(coder.decode(coder.encode(symbols)), symbols.astype(np.int64))


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
        decoded = coder.decode(coder.encode(symbols))
        np.testing.assert_array_equal(np.sort(decoded), np.sort(symbols))

    def test_decode_with_table_alias(self, coder):
        symbols = np.array([1, 2, 3, 1, 2, 1], dtype=np.int64)
        payload = coder.encode(symbols)
        np.testing.assert_array_equal(coder.decode_with_table(payload), symbols)

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
        symbols = np.arange(50_000, dtype=np.int64) % 37
        payload = HuffmanCoder(chunk_size=1024).encode(symbols)
        alphabet, count, chunk_size, n_chunks, index = _parse_header(payload)
        assert (alphabet, count, chunk_size) == (37, 50_000, 1024)
        assert n_chunks == -(-50_000 // 1024)
        offsets, counts = index[:, 0].astype(np.int64), index[:, 1].astype(np.int64)
        assert offsets[0] == 0
        assert np.all(np.diff(offsets) > 0)
        assert counts.sum() == 50_000
        assert np.all(counts[:-1] == 1024)

    def test_small_streams_get_smaller_chunks(self):
        # a 64Ki-symbol stream must not end up as a single 64Ki chunk: the
        # encoder shrinks chunks so the decoder has parallelism to work with
        payload = HuffmanCoder().encode(np.zeros(1 << 16, dtype=np.int64))
        *_, n_chunks, _ = _parse_header(payload)
        assert n_chunks > 8

    def test_configured_chunk_size_is_a_cap(self):
        payload = HuffmanCoder(chunk_size=512).encode(np.zeros(100_000, dtype=np.int64))
        _, _, chunk_size, _, _ = _parse_header(payload)
        assert chunk_size == 512

    @pytest.mark.parametrize("name", sorted(_distributions()))
    def test_parallel_decode_bit_identical_to_reference(self, name):
        symbols = _distributions()[name]
        coder = HuffmanCoder(chunk_size=1024)
        payload = coder.encode(symbols)
        reference = _decode_reference(payload)
        np.testing.assert_array_equal(reference, symbols)
        for workers in (1, 4):
            np.testing.assert_array_equal(coder.decode(payload, max_workers=workers),
                                          reference)

    def test_instance_worker_default_used(self):
        symbols = np.arange(30_000, dtype=np.int64) % 11
        sequential = HuffmanCoder(chunk_size=1024, max_workers=1)
        threaded = HuffmanCoder(chunk_size=1024, max_workers=4)
        payload = sequential.encode(symbols)
        assert payload == threaded.encode(symbols)  # encoding is worker-independent
        np.testing.assert_array_equal(threaded.decode(payload), symbols)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCoder(chunk_size=0)
        with pytest.raises(ValueError):
            HuffmanCoder(max_workers=0)

    def test_default_chunk_constant_sane(self):
        assert 1024 <= DEFAULT_CHUNK_SYMBOLS <= (1 << 20)


@pytest.fixture
def chunked_payload() -> tuple[np.ndarray, bytes]:
    rng = np.random.default_rng(5)
    symbols = np.clip(np.rint(rng.normal(40, 4, size=4000)), 0, 80).astype(np.int64)
    return symbols, HuffmanCoder(chunk_size=256).encode(symbols)


class TestCorruption:
    """Any corrupted or truncated payload must raise ValueError — never
    struct.error / IndexError, and never silently return wrong symbols."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_truncation_at_every_boundary_raises(self, workers, chunked_payload):
        _, payload = chunked_payload
        coder = HuffmanCoder()
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                coder.decode(payload[:cut], max_workers=workers)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_bitflip_fuzz_every_byte(self, workers, chunked_payload):
        symbols, payload = chunked_payload
        coder = HuffmanCoder()
        for i in range(len(payload)):
            mutated = bytearray(payload)
            mutated[i] ^= 1 << (i % 8)
            try:
                decoded = coder.decode(bytes(mutated), max_workers=workers)
            except ValueError:
                continue
            np.testing.assert_array_equal(decoded, symbols)

    def test_bad_magic_rejected(self, coder, chunked_payload):
        _, payload = chunked_payload
        with pytest.raises(ValueError, match="magic"):
            coder.decode(b"XXXX" + payload[4:])

    def test_crc_mismatch_rejected(self, coder, chunked_payload):
        _, payload = chunked_payload
        mutated = bytearray(payload)
        mutated[-1] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            coder.decode(bytes(mutated))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_unused_window_detected(self, workers, coder):
        # single-symbol alphabet: the upper half of the window table is unused
        # (length 0); forcing a set bit into the stream must not silently
        # decode to symbol 0 with the cursor never advancing
        payload = bytearray(coder.encode(np.full(20_000, 3, dtype=np.int64)))
        payload[-4] |= 0x80
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            coder.decode(bytes(_refresh_crc(bytes(payload))), max_workers=workers)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_chunk_boundary_mismatch_detected(self, workers, chunked_payload):
        # shift the second chunk's recorded bit offset by one: both its chunk
        # and its predecessor now fail the decode-to-boundary check
        _, payload = chunked_payload
        alphabet, *_ = _parse_header(payload)
        entry = _PREFIX_LEN + _HEADER.size + alphabet + 16
        (offset,) = struct.unpack_from("<Q", payload, entry)
        mutated = bytearray(payload)
        mutated[entry:entry + 8] = struct.pack("<Q", offset + 1)
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            HuffmanCoder().decode(_refresh_crc(bytes(mutated)), max_workers=workers)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_trailing_bits_detected(self, workers):
        # declare 8 extra bits (and ship the extra byte): the final chunk no
        # longer ends exactly at total_bits, which the old `pos > total_bits`
        # check would have missed
        symbols = np.full(20_000, 3, dtype=np.int64)
        payload = HuffmanCoder(chunk_size=1024).encode(symbols)
        alphabet, _, _, n_chunks, _ = _parse_header(payload)
        at = _PREFIX_LEN + _HEADER.size + alphabet + 16 * n_chunks
        (total_bits,) = struct.unpack_from("<Q", payload, at)
        mutated = payload[:at] + struct.pack("<Q", total_bits + 8) + \
            payload[at + 8:] + b"\x00"
        with pytest.raises(ValueError, match="boundary"):
            HuffmanCoder().decode(_refresh_crc(mutated), max_workers=workers)

    def test_overstated_symbol_count_rejected(self, chunked_payload):
        _, payload = chunked_payload
        mutated = bytearray(payload)
        mutated[_PREFIX_LEN + 4:_PREFIX_LEN + 12] = struct.pack("<Q", 2 ** 40)
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            HuffmanCoder().decode(_refresh_crc(bytes(mutated)))

    def test_kraft_violating_length_table_rejected(self, coder):
        # three one-bit codes cannot coexist; the table build must refuse
        symbols = np.array([0, 1, 2] * 100, dtype=np.int64)
        payload = bytearray(coder.encode(symbols))
        lengths_at = _PREFIX_LEN + _HEADER.size
        payload[lengths_at:lengths_at + 3] = bytes([1, 1, 1])
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            coder.decode(_refresh_crc(bytes(payload)))
