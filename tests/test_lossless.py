"""Tests for the lossless codecs."""

import numpy as np
import pytest

from repro.compressors.lossless import (
    BloscLZCodec,
    Bzip2Codec,
    GzipCodec,
    LosslessCodec,
    LzmaCodec,
    ShuffleRLECodec,
    ZlibCodec,
    ZstdLikeCodec,
    available_lossless,
    get_lossless,
)

ALL_CODECS = [BloscLZCodec, ShuffleRLECodec, ZlibCodec, GzipCodec, Bzip2Codec,
              LzmaCodec, ZstdLikeCodec, LosslessCodec]
# every codec but identity frames its payload, so it can tell a corrupt one
FRAMED = [name for name in available_lossless() if name != "identity"]
# the stdlib containers also checksum their bodies
CHECKSUMMED = ["bzip2", "gzip", "xz", "zlib", "zstd"]


@pytest.mark.parametrize("codec_cls", ALL_CODECS)
class TestRoundtripAllCodecs:
    def test_bytes_roundtrip(self, codec_cls):
        codec = codec_cls()
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=10_000, dtype=np.uint8).tobytes()
        assert codec.decompress(codec.compress(data)) == data

    def test_empty_roundtrip(self, codec_cls):
        codec = codec_cls()
        assert codec.decompress(codec.compress(b"")) == b""

    def test_float_array_roundtrip(self, codec_cls):
        # the bytes of a float32 tensor, the pipeline's lossless partition
        codec = codec_cls()
        arr = np.random.default_rng(1).normal(0, 0.05, size=(37, 11)).astype(np.float32)
        out = codec.decompress(codec.compress(arr.tobytes()))
        np.testing.assert_array_equal(np.frombuffer(out, np.float32).reshape(37, 11), arr)

    def test_odd_length_bytes(self, codec_cls):
        codec = codec_cls()
        data = b"\x01\x02\x03\x04\x05\x06\x07"  # not a multiple of 4
        assert codec.decompress(codec.compress(data)) == data


class TestCompressionBehaviour:
    def test_blosclz_beats_raw_on_float_weights(self):
        weights = np.random.default_rng(0).normal(0, 0.05, 50_000).astype(np.float32)
        compressed = BloscLZCodec().compress(weights.tobytes())
        assert len(compressed) < weights.nbytes

    def test_shuffle_rle_compresses_repetitive_floats(self):
        data = np.full(10_000, 1.25, dtype=np.float32).tobytes()
        codec = ShuffleRLECodec()
        compressed = codec.compress(data)
        assert len(compressed) < len(data) / 10
        assert codec.decompress(compressed) == data

    def test_lzma_best_ratio_on_structured_data(self):
        data = (b"federated learning " * 2000)
        sizes = {
            "xz": len(LzmaCodec().compress(data)),
            "blosclz": len(BloscLZCodec().compress(data)),
        }
        assert sizes["xz"] <= sizes["blosclz"]

    def test_zstd_like_faster_levels_than_gzip(self):
        # structural check on configuration rather than timing (timing is flaky in CI)
        assert ZstdLikeCodec().level < GzipCodec().level

    @pytest.mark.parametrize("byte", [1, 8])
    def test_blosclz_length_corruption_detected(self, byte):
        codec = BloscLZCodec()
        payload = bytearray(codec.compress(b"0123456789abcdef"))
        payload[byte] ^= 0xFF  # corrupt the recorded length (byte 8: >= 2**63)
        with pytest.raises(ValueError, match="length mismatch"):
            codec.decompress(bytes(payload))


class TestCorruptPayloads:
    """``decompress`` reads its payload exactly: a truncated, trailing or
    garbled payload raises ``ValueError``, never the backend's own exception
    (``struct.error``, ``zlib.error``, ``OSError``, ``LZMAError``)."""

    PLAIN = bytes(range(256)) * 40

    @pytest.mark.parametrize("name", FRAMED)
    def test_every_truncation_raises_valueerror(self, name):
        codec = get_lossless(name)
        blob = codec.compress(self.PLAIN)
        for cut in range(len(blob)):
            with pytest.raises(ValueError, match=f"{name} payload corrupt"):
                codec.decompress(blob[:cut])

    @pytest.mark.parametrize("name", FRAMED)
    def test_trailing_bytes_raise_valueerror(self, name):
        codec = get_lossless(name)
        blob = codec.compress(self.PLAIN)
        for junk in (b"\0", b"\0\0", b"junk"):
            with pytest.raises(ValueError, match=f"{name} payload corrupt"):
                codec.decompress(blob + junk)

    @pytest.mark.parametrize("name", FRAMED)
    @pytest.mark.parametrize("payload", [b"", b"12345", b"\xff" * 64],
                             ids=["empty", "short", "ones"])
    def test_garbage_raises_valueerror(self, name, payload):
        with pytest.raises(ValueError, match=f"{name} payload corrupt"):
            get_lossless(name).decompress(payload)

    @pytest.mark.parametrize("name", available_lossless())
    def test_bit_flips_raise_valueerror_or_decode(self, name):
        codec = get_lossless(name)
        blob = codec.compress(self.PLAIN)
        for pos in range(0, len(blob), max(1, len(blob) // 64)):
            for bit in (0x01, 0x10, 0x80):
                corrupt = bytearray(blob)
                corrupt[pos] ^= bit
                try:
                    out = codec.decompress(bytes(corrupt))
                except ValueError:
                    continue
                assert isinstance(out, bytes)
                if name in CHECKSUMMED:
                    # a flip the checksum cannot see sits in a field the
                    # plaintext does not depend on (gzip's mtime, say)
                    assert out == self.PLAIN, (pos, bit)


class TestRegistry:
    def test_available_contains_paper_codecs(self):
        names = available_lossless()
        for expected in ("blosclz", "zlib", "gzip", "zstd", "xz"):
            assert expected in names

    def test_get_lossless_instantiates(self):
        codec = get_lossless("blosclz")
        assert isinstance(codec, BloscLZCodec)

    def test_get_lossless_kwargs(self):
        codec = get_lossless("zlib", level=1)
        assert codec.level == 1

    def test_unknown_codec_raises(self):
        with pytest.raises(ValueError, match="unknown lossless codec"):
            get_lossless("snappy")

    def test_codec_names_unique(self):
        names = [get_lossless(name).name for name in available_lossless()]
        assert len(names) == len(set(names))
