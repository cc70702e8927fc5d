"""SZ2's tiled codec body held to the whole-array oracle, and its decoder's
exact-geometry rule.

* Batch ``compress`` and the concatenated ``stream_encoder().chunks`` must
  produce the oracle's payload (``sz2_reference.py``) byte for byte, and
  ``decompress`` / ``stream_decoder()`` its reconstruction bit for bit:
  lengths on both sides of a block and of a tile, multi-tile tensors with a
  ragged tail, float32 and float64, ABS and REL bounds, constant arrays, and
  NaN, +-inf and near-float64-max values that take the quantizer's outlier
  and reconstruction-overflow escapes.
* The quantizer writes one tile's codes or reconstruction into a caller's
  slice, the latter in a narrower dtype, exactly as the whole-array call and
  a cast afterwards would.
* Every body field that sizes the tiled decoder is checked against the
  container's element count, and the body must be consumed exactly; each
  violation raises ``ValueError`` on the batch and the streaming decoder.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sz2_reference import reference_compress, reference_reconstruct
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.sz2 import _TILE_BLOCKS, SZ2Compressor

_TILE = _TILE_BLOCKS * 128  # values per tile at the default block size


def _data(length: int, dtype, kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full(length, rng.normal(), dtype=dtype)
    if kind == "walk":
        return np.cumsum(rng.normal(0.0, 0.01, length)).astype(dtype)
    data = rng.normal(0.0, 0.05, length)
    if kind == "specials":
        # NaN and +-inf escape as outliers; values near the float64 maximum
        # overflow the float32 coefficients and, under a huge ABS bound, the
        # reconstruction `prediction + 2 * bound * q`
        picks = rng.random(length)
        data[picks < 0.02] = np.nan
        data[(picks >= 0.02) & (picks < 0.03)] = np.inf
        data[(picks >= 0.03) & (picks < 0.04)] = -np.inf
        huge = (picks >= 0.04) & (picks < 0.2)
        data[huge] = rng.uniform(1.6e308, 1.79e308, int(huge.sum()))
    with np.errstate(over="ignore"):  # near-max values become inf in float32
        return data.astype(dtype)


def _bits(array: np.ndarray) -> bytes:
    return array.dtype.str.encode() + repr(array.shape).encode() + array.tobytes()


@settings(max_examples=40, deadline=None)
@given(length=st.one_of(st.integers(1, 3 * _TILE),
                        st.sampled_from([1, 127, 128, 129, _TILE - 1, _TILE + 1,
                                         2 * _TILE + 77])),
       block_size=st.sampled_from([2, 7, 128]),
       dtype=st.sampled_from([np.float32, np.float64]),
       kind=st.sampled_from(["noise", "walk", "constant", "specials"]),
       bound=st.sampled_from(["rel", "abs", "abs-huge"]),
       seed=st.integers(0, 2**32 - 1))
@example(length=1, block_size=128, dtype=np.float32, kind="noise", bound="rel", seed=0)
@example(length=127, block_size=128, dtype=np.float64, kind="walk", bound="abs", seed=1)
@example(length=129, block_size=128, dtype=np.float32, kind="constant", bound="rel", seed=2)
@example(length=_TILE - 1, block_size=128, dtype=np.float64, kind="specials",
         bound="abs", seed=3)
@example(length=_TILE + 1, block_size=128, dtype=np.float32, kind="walk", bound="rel", seed=4)
@example(length=2 * _TILE + 77, block_size=128, dtype=np.float64, kind="specials",
         bound="abs-huge", seed=5)
@example(length=3 * _TILE_BLOCKS * 7 + 3, block_size=7, dtype=np.float64,
         kind="constant", bound="abs", seed=6)
def test_tiled_body_matches_whole_array_oracle(length, block_size, dtype, kind, bound, seed):
    if kind == "specials" and bound == "rel":
        bound = "abs"  # a REL bound over NaN/inf data is itself non-finite
    if bound == "rel":
        comp = SZ2Compressor(1e-2, mode="rel", block_size=block_size)
    else:
        comp = SZ2Compressor(1e307 if bound == "abs-huge" else 1e-3, mode="abs",
                             block_size=block_size)
    data = _data(length, dtype, kind, seed)

    payload = reference_compress(comp, data)
    assert comp.compress(data) == payload
    assert b"".join(comp.stream_encoder().chunks(data)) == payload

    want = _bits(reference_reconstruct(comp, payload))
    assert _bits(comp.decompress(payload)) == want
    decoder = comp.stream_decoder()
    for start in range(0, len(payload), 4099):
        decoder.feed(payload[start : start + 4099])
    assert _bits(decoder.finish()) == want


class TestQuantizerSlices:
    def _case(self):
        rng = np.random.default_rng(9)
        data = rng.normal(0.0, 1.0, 3000)
        data[::97] = np.nan
        predictions = data + rng.normal(0.0, 0.5, 3000)
        return LinearQuantizer(radius=64), data, predictions

    def test_quantize_writes_a_code_slice(self):
        quantizer, data, predictions = self._case()
        whole = quantizer.quantize(data, predictions, 1e-2)
        codes = np.full(5000, -7, dtype=np.int64)
        for lo in range(0, 3000, 1024):
            hi = min(lo + 1024, 3000)
            part = quantizer.quantize(data[lo:hi], predictions[lo:hi], 1e-2,
                                      codes=codes[1000 + lo : 1000 + hi])
            assert np.shares_memory(part.codes, codes)
        assert np.array_equal(codes[1000:4000], whole.codes)
        assert np.all(codes[:1000] == -7) and np.all(codes[4000:] == -7)

    @pytest.mark.parametrize("codes", [np.empty(3000, np.int32), np.empty(2999, np.int64)])
    def test_quantize_rejects_a_mismatched_code_slice(self, codes):
        quantizer, data, predictions = self._case()
        with pytest.raises(ValueError, match="codes"):
            quantizer.quantize(data, predictions, 1e-2, codes=codes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dequantize_writes_an_output_slice(self, dtype):
        quantizer, data, predictions = self._case()
        quant = quantizer.quantize(data, predictions, 1e-2)
        want = quantizer.dequantize(quant.codes, quant.outliers, predictions, 1e-2)
        out = np.zeros(4000, dtype=dtype)
        got = quantizer.dequantize(quant.codes, quant.outliers, predictions, 1e-2,
                                   out=out[500:3500])
        assert np.shares_memory(got, out)
        assert _bits(out[500:3500]) == _bits(want.astype(dtype))
        assert not np.any(out[:500]) and not np.any(out[3500:])

    def test_dequantize_rejects_a_mismatched_output(self):
        quantizer, data, predictions = self._case()
        quant = quantizer.quantize(data, predictions, 1e-2)
        with pytest.raises(ValueError, match="out"):
            quantizer.dequantize(quant.codes, quant.outliers, predictions, 1e-2,
                                 out=np.empty(2999))


# ----------------------------------------------------------------------
# exact body geometry on decode
def _split(body: bytes) -> dict:
    """The plaintext body's fields, with every count implied by its bytes."""
    block_size, n_blocks, radius = struct.unpack_from("<IQI", body, 0)
    (original_len,) = struct.unpack_from("<Q", body, 16)
    offset, fields = 24, {}
    for name, itemsize in (("selectors", 1), ("coefficients", 4), ("huffman", 1),
                           ("outliers", 8)):
        (size,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        fields[name] = body[offset : offset + itemsize * size]
        offset += itemsize * size
    assert offset == len(body)
    return dict(fields, block_size=block_size, n_blocks=n_blocks, radius=radius,
                original_len=original_len)


def _join(fields: dict) -> bytes:
    body = struct.pack("<IQIQ", fields["block_size"], fields["n_blocks"],
                       fields["radius"], fields["original_len"])
    for name, itemsize in (("selectors", 1), ("coefficients", 4), ("huffman", 1),
                           ("outliers", 8)):
        body += struct.pack("<Q", len(fields[name]) // itemsize) + fields[name]
    return body


class TestExactGeometry:
    comp = SZ2Compressor(1e-3, mode="abs", block_size=8)

    def _payload(self, length: int = 1000):
        """A valid payload with regression and mean blocks and an outlier."""
        rng = np.random.default_rng(3)
        data = np.cumsum(rng.normal(0.0, 0.01, length)).astype(np.float32)
        data[: length // 2] = rng.normal(0.0, 0.05, length // 2)
        data[7] = np.inf
        payload = self.comp.compress(data)
        _, _, _, _, offset = self.comp._parse_container_header(payload)
        return payload[:offset], zlib.decompress(payload[offset:])

    def _assert_rejected(self, header: bytes, body: bytes, match: str) -> None:
        payload = header + zlib.compress(body)
        with pytest.raises(ValueError, match=match):
            self.comp.decompress(payload)
        for piece in (len(payload), 5):
            decoder = self.comp.stream_decoder()
            with pytest.raises(ValueError, match=match):
                for start in range(0, len(payload), piece):
                    decoder.feed(payload[start : start + piece])
                decoder.finish()

    def _rebuilt(self, **changes) -> tuple[bytes, bytes]:
        header, body = self._payload()
        fields = _split(body)
        assert _join(fields) == body
        fields.update(changes)
        return header, _join(fields)

    def test_valid_payload_fields_round_trip(self):
        header, body = self._payload()
        fields = _split(body)
        regression = int(np.unpackbits(np.frombuffer(fields["selectors"], np.uint8)).sum())
        assert 0 < regression < fields["n_blocks"]
        assert len(fields["outliers"]) > 0
        assert self.comp.decompress(header + zlib.compress(body)).shape == (1000,)

    def test_no_blocks_for_nonempty_tensor(self):
        # the probe: a 1000-element header over a zlib'd, zero-padded 300 KB
        # body used to decode to 1000 zeros
        header, _ = self._payload()
        self._assert_rejected(header, bytes(300_000), "block size 0")
        escape = struct.pack("<IQI", 8, 0, 32768)
        self._assert_rejected(header, escape, "0 blocks of 8 cannot hold 1000")
        self._assert_rejected(header, escape + bytes(300_000), "0 blocks of 8")

    def test_empty_tensor_escape_is_exact(self):
        payload = self.comp.compress(np.zeros(0, np.float32))
        assert self.comp.decompress(payload).shape == (0,)
        header, body = payload[:18], zlib.decompress(payload[18:])
        assert len(body) == 16
        self._assert_rejected(header, body + b"\0", "1 bytes after the last field")

    def test_block_size_below_two(self):
        header, body = self._rebuilt(block_size=1, n_blocks=1000)
        self._assert_rejected(header, body, "block size 1 < 2")

    def test_block_count_must_cover_count(self):
        header, body = self._rebuilt(n_blocks=126)
        self._assert_rejected(header, body, "126 blocks of 8 cannot hold 1000")

    def test_original_length_matches_count(self):
        header, body = self._rebuilt(original_len=999)
        self._assert_rejected(header, body, "length 999 does not match")

    def test_selector_bytes_match_block_count(self):
        header, body = self._payload()
        fields = _split(body)
        header, body = self._rebuilt(selectors=fields["selectors"] + b"\0")
        self._assert_rejected(header, body, "17 selector bytes for 125 blocks")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_coefficient_count_matches_selectors(self, delta):
        header, body = self._payload()
        coefficients = _split(body)["coefficients"]
        changed = coefficients[:-4] if delta < 0 else coefficients + bytes(4)
        header, body = self._rebuilt(coefficients=changed)
        self._assert_rejected(header, body, "coefficients for 125 blocks")

    def test_code_count_matches_geometry(self):
        header, body = self._payload()
        fields = _split(body)
        codes = self.comp.huffman.decode(fields["huffman"])
        header, body = self._rebuilt(huffman=self.comp.huffman.encode(codes[:-1]))
        self._assert_rejected(header, body, "999 codes for 125 blocks of 8")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_outlier_count_matches_escape_codes(self, delta):
        header, body = self._payload()
        outliers = _split(body)["outliers"]
        changed = outliers[:-8] if delta < 0 else outliers + bytes(8)
        header, body = self._rebuilt(outliers=changed)
        self._assert_rejected(header, body, "outlier")

    def test_trailing_bytes_rejected(self):
        # the probe: trailing plaintext used to be accepted by both
        # decompress and stream_decoder()
        header, body = self._payload()
        self._assert_rejected(header, body + b"\0", "1 bytes after the last field")
        self._assert_rejected(header, body + bytes(64), "64 bytes after the last field")
