"""Streaming zero-copy decode path: bit-identity with the batch decoders.

Covers every layer of the incremental pipeline — the ``ChunkBandConsumer``
over HUF4 streams, the lossless ``decompressor()`` API, the SZ2/SZ3
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

from huffman_reference import any_count
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


_HUF4_HEADER = struct.Struct("<IIBQII")  # lo, W, k, count, tuples per chunk, chunks
_HUF4_PREFIX = 8                         # magic + crc32


def _huf4_fields(blob: bytes) -> dict:
    """The editable fields of a HUF4 stream (see FORMATS.md)."""
    lo, width, k, count, chunk, n_chunks = _HUF4_HEADER.unpack_from(blob, _HUF4_PREFIX)
    at = _HUF4_PREFIX + _HUF4_HEADER.size
    map_len = -(-width ** k // 8)
    used = int(np.unpackbits(np.frombuffer(blob, np.uint8, map_len, at)).sum())
    table_len = map_len + ((used + 1) // 2 if used > 1 else 0)
    table = blob[at:at + table_len]
    at += table_len
    bits = np.frombuffer(blob, dtype="<u4", count=n_chunks, offset=at).astype(np.int64)
    return {"magic": blob[:4], "lo": lo, "width": width, "k": k, "count": count,
            "chunk": chunk, "n_chunks": n_chunks, "table": table, "bits": bits,
            "code": blob[at + 4 * n_chunks:]}


def _huf4_pack(fields: dict) -> bytes:
    """Serialize ``fields`` back to a HUF4 stream with a valid CRC."""
    body = _HUF4_HEADER.pack(fields["lo"], fields["width"], fields["k"], fields["count"],
                             fields["chunk"], fields["n_chunks"]) \
        + fields["table"] + fields["bits"].astype("<u4").tobytes() + fields["code"]
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
        expected = coder.decode(blob, any_count)
        consumer = coder.stream_consumer(any_count)
        _feed_pieces(consumer, blob, piece)
        got = consumer.finish()
        assert np.array_equal(got, expected) and got.dtype == expected.dtype

    def test_required_prefix_decodes_chunk(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 9, size=1024).astype(np.int64)
        coder = HuffmanCoder(chunk_size=64)
        blob = coder.encode(codes)
        probe = coder.stream_consumer(any_count)
        probe.feed(blob)
        assert probe.header_ready and probe.chunks_total == 16
        for chunk in (0, 3, probe.chunks_total - 1):
            prefix = probe.required_prefix(chunk)
            assert prefix <= len(blob)
            consumer = coder.stream_consumer(any_count)
            consumer.feed(blob[:prefix])
            # the documented contract: that prefix suffices for chunks 0..k
            assert consumer.chunks_decoded >= chunk + 1

    def test_truncation_at_every_byte_raises(self):
        codes = np.arange(60, dtype=np.int64)
        coder = HuffmanCoder(chunk_size=16)
        blob = coder.encode(codes)
        for cut in range(len(blob)):
            consumer = coder.stream_consumer(any_count)
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
                expected = coder.decode(corrupt, any_count)
            except ValueError:
                expected = None
            consumer = coder.stream_consumer(any_count)
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
        consumer = coder.stream_consumer(any_count)
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
        probe = coder.stream_consumer(any_count)
        probe.feed(blob)
        # cut strictly inside chunk 1's byte range: after its chunk starts,
        # before its required prefix completes
        lo, hi = probe.required_prefix(0), probe.required_prefix(1)
        assert hi - lo >= 2, "need a multi-byte second chunk for this test"
        cut = (lo + hi) // 2
        consumer = coder.stream_consumer(any_count)
        consumer.feed(blob[:cut])
        decoded_mid = consumer.chunks_decoded
        consumer.feed(blob[cut:])
        assert np.array_equal(consumer.finish(), coder.decode(blob, any_count))
        assert decoded_mid >= 1  # chunk 0 decoded while chunk 1 was split

    @pytest.mark.parametrize("n_codes, edit, message", [
        # a ("bits", c) key forges chunk c's bit length, a name one field;
        # 700 symbols of W = 24 code as singles, 11 chunks of 64
        pytest.param(700, {"chunk": 0}, "cannot cover", id="zero-chunk-size"),
        pytest.param(700, {"chunk": 128}, "cannot cover", id="chunk-count"),
        pytest.param(700, {"count": 640}, "cannot cover", id="stream-length"),
        pytest.param(700, {"k": 3}, "tuple rule", id="tuple-size"),
        # fewer bits than tuples: every code is at least one bit long
        pytest.param(700, {("bits", 1): 63}, "chunk bit lengths", id="short-span"),
        pytest.param(700, {("bits", 1): 64 * MAX_CODE_LENGTH + 1}, "chunk bit lengths",
                     id="long-span"),
        pytest.param(700, {"count": 0}, "empty stream", id="empty-with-bits"),
        pytest.param(0, {"n_chunks": 1, "bits": np.zeros(1, dtype=np.int64)},
                     "empty stream", id="empty-with-chunk"),
    ])
    def test_index_rule_parity_with_batch(self, n_codes, edit, message):
        # one forged header field per case, CRC re-stamped: the batch and the
        # streaming decoder share one header parser, so both must reject the
        # stream with the same message
        codes = np.random.default_rng(6).integers(0, 24, size=n_codes).astype(np.int64)
        if n_codes:
            codes[:2] = 0, 23
        coder = HuffmanCoder(chunk_size=64)
        blob = coder.encode(codes)
        fields = _huf4_fields(blob)
        assert n_codes == 0 or (fields["k"], fields["n_chunks"]) == (1, 11)
        for key, value in edit.items():
            if isinstance(key, tuple):
                fields["bits"][key[1]] = value
            else:
                fields[key] = value
        blob = _huf4_pack(fields)
        with pytest.raises(ValueError, match=message) as batch:
            coder.decode(blob, any_count)
        consumer = coder.stream_consumer(any_count)
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

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), piece=st.integers(1, 512))
    def test_property_piecewise_equivalence(self, cls, seed, piece):
        compressor, _, payload = self._payload(cls, n=600, seed=seed)
        decoder = compressor.stream_decoder()
        _feed_pieces(decoder, payload, piece)
        assert np.array_equal(decoder.finish(), compressor.decompress(payload))


def _huffman_bomb(count: int) -> bytes:
    """A one-tuple HUF4 stream declaring ``count`` symbols, no code bits.

    Its fields are self-consistent (a one-tuple code spends zero bits, so
    the chunk lengths are all 0), so a decoder that trusted them would size
    its output (8 B per symbol) from a 50-byte stream.
    """
    chunk = 1 << 31
    n_chunks = -(-count // chunk)
    body = (struct.pack("<IIBQII", 0, 1, 1, count, chunk, n_chunks) + b"\x80"
            + bytes(4 * n_chunks))
    return b"HUF4" + struct.pack("<I", zlib.crc32(body)) + body


class TestContainerBoundsHuffmanCount:
    """A body may only embed the Huffman stream its container implies.

    The payloads declare 10 float32 elements and embed a HUF4 stream that
    declares 3 * 2**31 symbols (48 GiB of decoded codes).  The batch and the
    streaming decoder must both reject them before they allocate.
    """

    HEADER = struct.pack("<BBQd", 0, 1, 10, 0.01)  # float32, shape (10,), bound

    def _assert_rejected_small(self, compressor, body: bytes, match: str) -> None:
        payload = self.HEADER + body
        for decode in (compressor.decompress, _stream_decode(compressor)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=match):
                    decode(payload)
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


def _at_most_a_million(count: int) -> None:
    if count > 10 ** 6:
        raise ValueError(f"{count} symbols declared, at most 1000000 expected")


class TestStandaloneDecodeBoundsCount:
    """Outside a container only the caller can bound a one-tuple stream's
    count, so both decode surfaces require a ``check_count``.  The bomb is a
    66-byte stream declaring 2**34 symbols (128 GiB of decoded codes)."""

    BOMB = _huffman_bomb(1 << 34)

    def test_count_check_is_required(self):
        with pytest.raises(TypeError):
            HuffmanCoder().decode(self.BOMB)
        with pytest.raises(TypeError):
            HuffmanCoder().stream_consumer()

    @pytest.mark.parametrize("path", ["batch", "stream"])
    def test_declared_count_rejected_small(self, path):
        def decode(payload: bytes) -> np.ndarray:
            if path == "batch":
                return HuffmanCoder().decode(payload, _at_most_a_million)
            consumer = HuffmanCoder().stream_consumer(_at_most_a_million)
            consumer.feed(payload)
            return consumer.finish()
        assert len(self.BOMB) < 100
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="17179869184 symbols declared"):
                decode(self.BOMB)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _stream_decode(compressor):
    """Decode a whole payload through ``compressor.stream_decoder()``."""
    def decode(payload: bytes) -> np.ndarray:
        decoder = compressor.stream_decoder()
        decoder.feed(payload)
        return decoder.finish()
    return decode


@pytest.fixture(scope="module")
def deflated_zeros() -> bytes:
    """zlib level 1 of 300 MiB of zeros, deflated in 1 MiB pieces (~1.3 MB)."""
    deflate = zlib.compressobj(1)
    piece = bytes(1 << 20)
    return b"".join([*(deflate.compress(piece) for _ in range(300)), deflate.flush()])


@pytest.mark.parametrize("cls", [SZ2Compressor, SZ3Compressor])
@pytest.mark.parametrize("path", ["batch", "stream"])
def test_deflate_bomb_body_rejected_small(cls, path, deflated_zeros):
    """A 10-element float32 header over 300 MiB of deflated zeros.

    Such a body used to be inflated whole before any field was read (a
    603 MiB traced peak); SZ bodies carry no lossless pass now, so its bytes
    are read as the body's own fields and fail the geometry checks at once.
    """
    compressor = cls(error_bound=1e-2)
    payload = TestContainerBoundsHuffmanCount.HEADER + deflated_zeros
    decode = compressor.decompress if path == "batch" else _stream_decode(compressor)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            decode(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("path", ["codec", "batch", "stream"])
def test_lossless_bomb_rejected_small(path, deflated_zeros):
    """A blosclz body declaring 40 bytes over 300 MiB of deflated zeros.

    blosclz is the default ``lossless_codec``, so every FedSZ container's
    ``__lossless__`` entry goes through it.  The codec used to inflate the
    whole body before comparing its length with the header's (a ~603 MiB
    traced peak); the declared length now caps the inflate.
    """
    bomb = struct.pack("<BQ", 4, 40) + deflated_zeros
    compressor = FedSZCompressor(FedSZConfig())
    entries = unpack_bytes_dict(compressor.compress_state_dict(_small_state()))
    entries["__lossless__"] = bomb
    container = pack_bytes_dict(entries)
    decode = {"codec": lambda: get_lossless("blosclz").decompress(bomb),
              "batch": lambda: compressor.decompress_state_dict(container),
              "stream": lambda: _stream_decode(compressor)(container)}[path]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="blosclz payload corrupt"):
            decode()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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
