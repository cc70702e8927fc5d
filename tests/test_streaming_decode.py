"""Streaming zero-copy decode path: bit-identity with the batch decoders.

Covers every layer of the incremental pipeline — the ``ChunkBandConsumer``
over HUF3 streams, the lossless ``decompressor()`` API, the SZ2/SZ3
``SZStreamDecoder``, and the FedSZ container ``StreamingStateDecoder`` — under
one invariant: a stream fed in arbitrary pieces decodes bit-identically to the
batch path, and corrupt or truncated input raises :class:`ValueError` exactly
when the batch path would.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.huffman import MAX_CODE_LENGTH, HuffmanCoder
from repro.compressors.lossless import available_lossless, get_lossless
from repro.compressors.sz2 import SZ2Compressor
from repro.compressors.sz3 import SZ3Compressor
from repro.core.config import FedSZConfig
from repro.core.pipeline import FedSZCompressor
from repro.fl.codec import FedSZUpdateCodec, RawUpdateCodec
from repro.utils.bitstream import StreamBuffer
from repro.utils.serialization import pack_bytes_dict, unpack_bytes_dict


def _feed_pieces(consumer, blob: bytes, piece: int) -> None:
    for start in range(0, len(blob), piece):
        consumer.feed(blob[start : start + piece])


def _small_state(seed: int = 5) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": rng.normal(0, 1, (8, 3, 3, 3)).astype(np.float32),
        "conv.bias": rng.normal(0, 1, 8).astype(np.float32),
        "fc.weight": rng.normal(0, 0.3, (10, 72)).astype(np.float32),
        "empty": np.zeros(0, dtype=np.float32),
    }


_HUF3_HEADER = struct.Struct("<IQII")  # alphabet, count, chunk_size, n_chunks
_HUF3_PREFIX = 8                       # magic + crc32


def _huf3_fields(blob: bytes) -> dict:
    """The editable fields of a HUF3 stream (see FORMATS.md)."""
    alphabet, count, chunk_size, n_chunks = _HUF3_HEADER.unpack_from(blob, _HUF3_PREFIX)
    at = _HUF3_PREFIX + _HUF3_HEADER.size
    lengths = blob[at:at + alphabet]
    at += alphabet
    index = np.frombuffer(blob, dtype="<u8", count=2 * n_chunks,
                          offset=at).reshape(n_chunks, 2).astype(np.int64)
    at += 16 * n_chunks
    (total_bits,) = struct.unpack_from("<Q", blob, at)
    return {"magic": blob[:4], "count": count, "chunk_size": chunk_size,
            "lengths": lengths, "index": index, "total_bits": total_bits,
            "bits": blob[at + 8:]}


def _huf3_pack(fields: dict) -> bytes:
    """Serialize ``fields`` back to a HUF3 stream with a valid CRC."""
    body = _HUF3_HEADER.pack(len(fields["lengths"]), fields["count"],
                             fields["chunk_size"], len(fields["index"])) \
        + fields["lengths"] + fields["index"].astype("<u8").tobytes() \
        + struct.pack("<Q", fields["total_bits"]) + fields["bits"]
    return fields["magic"] + struct.pack("<I", zlib.crc32(body)) + body


class TestStreamBuffer:
    def test_feed_view_and_has(self):
        buf = StreamBuffer()
        assert buf.feed(b"abc") == 3
        buf.feed(b"defg")
        assert buf.available == 7
        assert bytes(buf.view()) == b"abcdefg"
        assert bytes(buf.view(2, 5)) == b"cde"
        assert buf.has(4, offset=3) and not buf.has(5, offset=3)

    def test_expect_pins_length(self):
        buf = StreamBuffer()
        buf.expect(4)
        buf.feed(b"abc")
        assert not buf.complete
        buf.feed(b"d")
        assert buf.complete
        with pytest.raises(ValueError):
            buf.feed(b"e")


class TestChunkBandConsumer:
    @pytest.mark.parametrize("piece", [1, 7, 64, 1 << 20])
    def test_piecewise_equivalence(self, piece):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 80, size=1500).astype(np.int64)
        coder = HuffmanCoder(chunk_size=128)
        blob = coder.encode(codes)
        expected = coder.decode(blob)
        consumer = coder.stream_consumer()
        _feed_pieces(consumer, blob, piece)
        got = consumer.finish()
        assert np.array_equal(got, expected) and got.dtype == expected.dtype

    def test_required_prefix_decodes_chunk(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 9, size=1024).astype(np.int64)
        coder = HuffmanCoder(chunk_size=64)
        blob = coder.encode(codes)
        probe = coder.stream_consumer()
        probe.feed(blob)
        assert probe.header_ready and probe.chunks_total == 16
        for chunk in (0, 3, probe.chunks_total - 1):
            prefix = probe.required_prefix(chunk)
            assert prefix <= len(blob)
            consumer = coder.stream_consumer()
            consumer.feed(blob[:prefix])
            # the documented contract: that prefix suffices for chunks 0..k
            assert consumer.chunks_decoded >= chunk + 1

    def test_truncation_at_every_byte_raises(self):
        codes = np.arange(60, dtype=np.int64)
        coder = HuffmanCoder(chunk_size=16)
        blob = coder.encode(codes)
        for cut in range(len(blob)):
            consumer = coder.stream_consumer()
            consumer.feed(blob[:cut])
            with pytest.raises(ValueError):
                consumer.finish()

    def test_bitflip_parity_with_batch(self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 24, size=700).astype(np.int64)
        coder = HuffmanCoder(chunk_size=64)
        blob = bytearray(coder.encode(codes))
        for pos in range(0, len(blob), 11):
            corrupt = bytes(blob[:pos]) + bytes([blob[pos] ^ 0x40]) + bytes(blob[pos + 1:])
            try:
                expected = coder.decode(corrupt)
            except ValueError:
                expected = None
            consumer = coder.stream_consumer()
            try:
                consumer.feed(corrupt)
                got = consumer.finish()
            except ValueError:
                got = None
            if expected is None or got is None:
                assert expected is None and got is None, f"parity broke at byte {pos}"
            else:
                assert np.array_equal(got, expected)

    def test_crc_failure_surfaces_as_valueerror(self):
        codes = np.arange(200, dtype=np.int64) % 17
        coder = HuffmanCoder(chunk_size=32)
        blob = bytearray(coder.encode(codes))
        blob[-1] ^= 0x01  # flip a bit inside the packed chunk bits
        consumer = coder.stream_consumer()
        split = len(blob) // 2
        with pytest.raises(ValueError):
            consumer.feed(bytes(blob[:split]))
            consumer.feed(bytes(blob[split:]))
            consumer.finish()

    def test_band_split_across_two_packets(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 10, size=2048).astype(np.int64)
        coder = HuffmanCoder(chunk_size=128)
        blob = coder.encode(codes)
        probe = coder.stream_consumer()
        probe.feed(blob)
        # cut strictly inside chunk 1's byte range: after its chunk starts,
        # before its required prefix completes
        lo, hi = probe.required_prefix(0), probe.required_prefix(1)
        assert hi - lo >= 2, "need a multi-byte second chunk for this test"
        cut = (lo + hi) // 2
        consumer = coder.stream_consumer()
        consumer.feed(blob[:cut])
        decoded_mid = consumer.chunks_decoded
        consumer.feed(blob[cut:])
        assert np.array_equal(consumer.finish(), coder.decode(blob))
        assert decoded_mid >= 1  # chunk 0 decoded while chunk 1 was split

    @pytest.mark.parametrize("n_codes, edit, message", [
        # a (row, column) key forges one chunk-index cell, a name one field;
        # 700 symbols at 64 per chunk make 11 chunks
        pytest.param(700, {"chunk_size": 0}, "cannot cover", id="zero-chunk-size"),
        pytest.param(700, {"chunk_size": 128}, "cannot cover", id="chunk-count"),
        pytest.param(700, {"count": 699}, "symbol counts disagree", id="stream-length"),
        pytest.param(700, {(0, 1): 65}, "symbol counts disagree", id="symbol-count"),
        pytest.param(700, {(0, 0): 1}, "bit offsets", id="first-offset"),
        # fewer bits than symbols: every code is at least one bit long
        pytest.param(700, {(1, 0): 63}, "bit offsets", id="short-span"),
        pytest.param(700, {(1, 0): 64 * MAX_CODE_LENGTH + 1}, "bit offsets",
                     id="long-span"),
        pytest.param(0, {"total_bits": 8, "bits": b"\x00"}, "empty stream",
                     id="empty-with-bits"),
        pytest.param(0, {"index": np.zeros((1, 2), dtype=np.int64)}, "empty stream",
                     id="empty-with-chunk"),
    ])
    def test_index_rule_parity_with_batch(self, n_codes, edit, message):
        # one forged chunk-index field per case, CRC re-stamped: the batch
        # header parse and the streaming consumer share one geometry check,
        # so both must reject the stream with the same message
        codes = np.random.default_rng(6).integers(0, 24, size=n_codes).astype(np.int64)
        coder = HuffmanCoder(chunk_size=64)
        fields = _huf3_fields(coder.encode(codes))
        for key, value in edit.items():
            if isinstance(key, tuple):
                fields["index"][key] = value
            else:
                fields[key] = value
        blob = _huf3_pack(fields)
        with pytest.raises(ValueError, match=message) as batch:
            coder.decode(blob)
        consumer = coder.stream_consumer()
        with pytest.raises(ValueError) as stream:
            consumer.feed(blob)
            consumer.finish()
        assert str(stream.value) == str(batch.value)


class TestLosslessStreaming:
    @pytest.mark.parametrize("name", available_lossless())
    def test_piecewise_equivalence(self, name):
        codec = get_lossless(name)
        rng = np.random.default_rng(6)
        plain = rng.integers(0, 8, size=20000).astype(np.uint8).tobytes()
        blob = codec.compress(plain)
        for piece in (1, 13, 4096):
            dec = codec.decompressor()
            out = bytearray()
            for start in range(0, len(blob), piece):
                out += dec.feed(blob[start : start + piece])
            out += dec.finish()
            assert bytes(out) == codec.decompress(blob)

    @pytest.mark.parametrize("name", available_lossless())
    def test_corruption_parity(self, name):
        codec = get_lossless(name)
        plain = bytes(range(256)) * 40
        blob = bytearray(codec.compress(plain))
        cases = [bytes(blob[:len(blob) // 2])]  # truncation
        for pos in range(0, len(blob), max(1, len(blob) // 8)):
            cases.append(bytes(blob[:pos]) + bytes([blob[pos] ^ 0x10])
                         + bytes(blob[pos + 1:]))
        for corrupt in cases:
            try:
                expected = codec.decompress(corrupt)
            except Exception:
                # the batch lossless layer surfaces raw library errors; the
                # lossy layer normalizes them — the streaming decompressor
                # must already raise ValueError here
                expected = None
            dec = codec.decompressor()
            try:
                out = bytearray(dec.feed(corrupt))
                out += dec.finish()
                got = bytes(out)
            except ValueError:
                got = None
            assert (expected is None) == (got is None)
            if expected is not None:
                assert got == expected


@pytest.mark.parametrize("cls", [SZ2Compressor, SZ3Compressor])
class TestSZStreamDecoder:
    def _payload(self, cls, n=3000, seed=8, **kwargs):
        compressor = cls(error_bound=1e-2, **kwargs)
        rng = np.random.default_rng(seed)
        data = np.cumsum(rng.normal(0, 0.1, n)).astype(np.float64)
        return compressor, data, compressor.compress(data)

    @pytest.mark.parametrize("piece", [1, 37, 1 << 20])
    def test_piecewise_equivalence(self, cls, piece):
        compressor, _, payload = self._payload(cls)
        expected = compressor.decompress(payload)
        decoder = compressor.stream_decoder()
        _feed_pieces(decoder, payload, piece)
        got = decoder.finish()
        assert np.array_equal(got, expected) and got.dtype == expected.dtype
        assert decoder.bytes_received == len(payload)

    def test_empty_array_roundtrip(self, cls):
        compressor = cls(error_bound=1e-2)
        payload = compressor.compress(np.zeros(0, dtype=np.float32))
        decoder = compressor.stream_decoder()
        decoder.feed(payload)
        assert decoder.finish().size == 0

    def test_truncation_at_every_byte_raises(self, cls):
        compressor, _, payload = self._payload(cls, n=200)
        for cut in range(len(payload)):
            decoder = compressor.stream_decoder()
            with pytest.raises(ValueError):
                decoder.feed(payload[:cut])
                decoder.finish()

    def test_bitflip_parity_with_batch(self, cls):
        compressor, _, payload = self._payload(cls, n=400)
        blob = bytearray(payload)
        for pos in range(0, len(blob), 17):
            corrupt = bytes(blob[:pos]) + bytes([blob[pos] ^ 0x20]) + bytes(blob[pos + 1:])
            try:
                expected = compressor.decompress(corrupt)
            except ValueError:
                expected = None
            decoder = compressor.stream_decoder()
            try:
                decoder.feed(corrupt)
                got = decoder.finish()
            except ValueError:
                got = None
            if expected is None or got is None:
                assert expected is None and got is None, f"parity broke at byte {pos}"
            else:
                assert np.array_equal(got, expected)

    def test_chained_lossless_backend(self, cls):
        compressor, _, payload = self._payload(cls, lossless_backend="bzip2")
        decoder = compressor.stream_decoder()
        _feed_pieces(decoder, payload, 101)
        assert np.array_equal(decoder.finish(), compressor.decompress(payload))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), piece=st.integers(1, 512))
    def test_property_piecewise_equivalence(self, cls, seed, piece):
        compressor, _, payload = self._payload(cls, n=600, seed=seed)
        decoder = compressor.stream_decoder()
        _feed_pieces(decoder, payload, piece)
        assert np.array_equal(decoder.finish(), compressor.decompress(payload))


def _huffman_bomb(count: int) -> bytes:
    """A HUF3 header and chunk index declaring ``count`` symbols, no bits.

    The fixed fields, code table and index are self-consistent, so a decoder
    that trusted them would size its output (8 B per symbol) before any code
    bit arrived.
    """
    chunk = 1 << 31
    n_chunks = -(-count // chunk)
    index = b"".join(struct.pack("<QQ", k * chunk, min(chunk, count - k * chunk))
                     for k in range(n_chunks))
    body = (struct.pack("<IQII", 1, count, chunk, n_chunks) + b"\x01" + index
            + struct.pack("<Q", count))
    return b"HUF3" + struct.pack("<I", zlib.crc32(body)) + body


class TestContainerBoundsHuffmanCount:
    """A body may only embed the Huffman stream its container implies.

    The payloads declare 10 float32 elements and wrap a HUF3 header that
    declares 3 * 2**31 symbols (48 GiB of decoded codes).  Batch decode
    rejects them; the streaming decoder must too, before it allocates.
    """

    HEADER = struct.pack("<BBQd", 0, 1, 10, 0.01)  # float32, shape (10,), bound

    def _assert_rejected_small(self, compressor, body: bytes, match: str) -> None:
        payload = self.HEADER + zlib.compress(body)
        with pytest.raises(ValueError):
            compressor.decompress(payload)
        decoder = compressor.stream_decoder()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=match):
                decoder.feed(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sz2_symbol_count_pinned_by_geometry(self):
        bomb = _huffman_bomb(3 << 31)
        body = (struct.pack("<IQIQB", 8, 2, 32768, 10, 0)  # hybrid predictor
                + struct.pack("<Q", 1) + b"\x00"         # selectors: 2 mean blocks
                + struct.pack("<Q", 2) + bytes(8)        # one coefficient each
                + struct.pack("<Q", len(bomb) + (3 << 28)) + bomb)
        self._assert_rejected_small(SZ2Compressor(), body,
                                    "6442450944 codes for 2 blocks of 8")

    def test_sz2_zero_predictor_symbol_count_pinned_by_geometry(self):
        bomb = _huffman_bomb(3 << 31)
        body = (struct.pack("<IQIQB", 8, 2, 32768, 10, 1)  # zero predictor
                + struct.pack("<Q", len(bomb) + (3 << 28)) + bomb)
        self._assert_rejected_small(SZ2Compressor(), body,
                                    "6442450944 codes for 2 blocks of 8")

    def test_sz2_predictor_checked_before_huffman_bytes(self):
        body = struct.pack("<IQIQB", 8, 2, 32768, 10, 7) + _huffman_bomb(3 << 31)
        self._assert_rejected_small(SZ2Compressor(), body, "unknown predictor 7")

    def test_sz2_geometry_checked_before_huffman_bytes(self):
        body = struct.pack("<IQIQ", 8, 1 << 40, 32768, 10) + _huffman_bomb(3 << 31)
        self._assert_rejected_small(SZ2Compressor(), body,
                                    "1099511627776 blocks of 8 cannot hold 10")

    def test_sz3_symbol_count_pinned_by_length(self):
        bomb = _huffman_bomb(3 << 31)
        # 10 values keep 2 anchors (stride 8), so 8 codes are implied
        body = (struct.pack("<QIB", 10, 32768, 0) + struct.pack("<Q", 2) + bytes(8)
                + struct.pack("<Q", len(bomb) + (3 << 28)) + bomb)
        self._assert_rejected_small(SZ3Compressor(), body,
                                    "6442450944 codes for 8 interpolated elements")

    def test_sz3_length_checked_before_huffman_bytes(self):
        body = struct.pack("<QIB", 3 << 31, 32768, 0) + _huffman_bomb(3 << 31)
        self._assert_rejected_small(SZ3Compressor(), body,
                                    "length 6442450944 does not match the header's 10")


class TestPipelineStreaming:
    def test_state_decoder_matches_batch_with_report(self):
        compressor = FedSZCompressor(FedSZConfig())
        state = _small_state()
        payload = compressor.compress_state_dict(state)
        expected, ref_report = compressor.decompress_with_report(payload)
        decoder = compressor.stream_decoder()
        _feed_pieces(decoder, payload, 257)
        got, report = decoder.finish()
        assert list(got) == list(expected)
        for key in expected:
            assert np.array_equal(got[key], expected[key])
            assert got[key].dtype == expected[key].dtype
        assert report.compressed_bytes == ref_report.compressed_bytes
        assert report.original_bytes == ref_report.original_bytes
        assert decoder.plan is not None
        assert decoder.bytes_received == len(payload)

    def test_decompress_stream_yields_every_tensor(self):
        compressor = FedSZCompressor(FedSZConfig())
        state = _small_state()
        payload = compressor.compress_state_dict(state)
        chunks = [payload[i : i + 512] for i in range(0, len(payload), 512)]
        names = [name for name, _ in compressor.decompress_stream(chunks)]
        assert sorted(names) == sorted(state)

    def test_manifest_must_come_first(self):
        compressor = FedSZCompressor(FedSZConfig())
        payload = compressor.compress_state_dict(_small_state())
        entries = unpack_bytes_dict(payload)
        reordered = {k: entries[k] for k in list(entries)[::-1]}
        shuffled = pack_bytes_dict(reordered)
        # the batch decoder is order-insensitive; streaming requires
        # manifest-first and must say so
        batch = compressor.decompress_state_dict(shuffled)
        assert list(batch)
        decoder = compressor.stream_decoder()
        with pytest.raises(ValueError, match="__manifest__"):
            decoder.feed(shuffled)
            decoder.finish()

    def test_truncation_raises(self):
        compressor = FedSZCompressor(FedSZConfig())
        payload = compressor.compress_state_dict(_small_state())
        for cut in range(0, len(payload), 7):
            decoder = compressor.stream_decoder()
            with pytest.raises(ValueError):
                decoder.feed(payload[:cut])
                decoder.finish()

    def test_trailing_bytes_tolerated_like_batch(self):
        compressor = FedSZCompressor(FedSZConfig())
        state = _small_state()
        payload = compressor.compress_state_dict(state) + b"trailing-junk"
        expected = compressor.decompress_state_dict(payload)
        decoder = compressor.stream_decoder()
        decoder.feed(payload)
        got, _ = decoder.finish()
        for key in expected:
            assert np.array_equal(got[key], expected[key])

    @pytest.mark.parametrize("codec_factory", [RawUpdateCodec,
                                               lambda: FedSZUpdateCodec(FedSZConfig())])
    def test_update_codec_stream_decoder(self, codec_factory):
        codec = codec_factory()
        state = _small_state()
        payload = codec.encode(state)
        expected = codec.decode(payload)
        decoder = codec.stream_decoder()
        _feed_pieces(decoder, payload, 333)
        got, _report = decoder.finish()
        assert list(got) == list(expected)
        for key in expected:
            assert np.array_equal(got[key], expected[key])
        assert decoder.decode_seconds >= 0.0
