"""SZ2's tiled codec body held to the whole-array oracle, and its decoder's
exact-geometry rule.

* ``compress`` must produce the oracle's payload (``sz2_reference.py``)
  byte for byte, and ``decompress`` its reconstruction bit for bit, in
  each predictor mode forced on every input and in the mode the encoder
  picks: lengths on both sides of a block and of a tile, multi-tile tensors
  with a ragged tail, float32 and float64, ABS and REL bounds, constant
  arrays, and NaN, +-inf and near-float64-max values that take the
  quantizer's outlier and reconstruction-overflow escapes.
* The quantizer writes one tile's codes or reconstruction into a caller's
  slice, the latter in a narrower dtype, exactly as the whole-array call and
  a cast afterwards would.
* Every body field that sizes the tiled decoder is checked against the
  container's element count, the predictor field must name a known mode,
  and the body must be consumed exactly; each violation raises
  ``ValueError`` in both modes, on the codec's decoder and through a FedSZ
  container.
"""

from __future__ import annotations

import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from container_reference import container_decoder
from huffman_reference import any_count
from sz2_reference import HYBRID, ZERO, reference_compress, reference_reconstruct
from repro.compressors import sz2
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.sz2 import _TILE_BLOCKS, SZ2Compressor

_TILE = _TILE_BLOCKS * 128  # values per tile at the default block size

#: ``_ZERO_MARGIN_BITS`` values that force each mode: zero never beats the
#: hybrid by an infinite margin, and always by a negative infinite one.
_FORCING_MARGIN = {HYBRID: math.inf, ZERO: -math.inf}


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
    # every input through both kernels: the hybrid's float32-coefficient
    # overflow and escapes as well as the zero mode's, whichever it picks
    for predictor, margin in _FORCING_MARGIN.items():
        with mock.patch.object(sz2, "_ZERO_MARGIN_BITS", margin):
            assert _assert_matches_oracle(comp, data) == predictor
    _assert_matches_oracle(comp, data)


def _predictor(comp: SZ2Compressor, payload: bytes) -> "int | None":
    """The predictor field of an SZ2 payload (``None`` for an empty tensor)."""
    _, _, _, _, offset = comp._parse_container_header(payload)
    body = payload[offset:]
    return body[24] if len(body) > 24 else None


def _assert_matches_oracle(comp: SZ2Compressor, data: np.ndarray) -> "int | None":
    """Hold encode and decode to the oracle's bytes and values for the
    predictor the encoder picks; return that predictor."""
    payload = comp.compress(data)
    predictor = _predictor(comp, payload)
    assert payload == reference_compress(comp, data, predictor)
    assert _bits(comp.decompress(payload)) == _bits(reference_reconstruct(comp, payload))
    return predictor


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", [1000, _TILE - 1, 2 * _TILE + 77])
@pytest.mark.parametrize("kind, predictor", [("walk", HYBRID), ("noise", ZERO)])
def test_each_predictor_matches_the_oracle(kind, predictor, length, dtype):
    # a random walk is smooth enough for the block fits to pay; Gaussian
    # noise is not, so its blocks are quantized against zero
    comp = SZ2Compressor(1e-2, mode="rel")
    assert _assert_matches_oracle(comp, _data(length, dtype, kind, seed=length)) == predictor


class TestEncoderPeak:
    def test_compress_peaks_under_four_times_the_tensor(self):
        # trained-like weights: the zero predictor, pairs of codes per tuple.
        # The encoder reads the float32 tensor as it is and writes int32
        # codes; with a float64 copy and int64 codes it peaked at 7.0x.
        rng = np.random.default_rng(3)
        data = (rng.normal(0.0, 0.05, 1 << 21)
                * np.abs(rng.normal(size=1 << 21)) ** 1.5).astype(np.float32)
        comp = SZ2Compressor(1e-2)
        comp.compress(data[:1 << 16])   # stock the free lists first
        tracemalloc.start()
        try:
            comp.compress(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * data.nbytes

    def test_one_symbol_stream_peaks_under_twice_the_tensor(self):
        # a smooth walk under REL 1e-2: every code is radius + 1, one used
        # symbol and no code bits; building 8 B of tuple index per code just
        # to count one histogram bin peaked at 3.0x
        rng = np.random.default_rng(5)
        data = np.cumsum(rng.normal(0.0, 0.01, 1 << 21)).astype(np.float32)
        comp = SZ2Compressor(1e-2)
        comp.compress(data[:1 << 16])
        tracemalloc.start()
        try:
            comp.compress(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * data.nbytes


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
        codes = np.full(5000, -7, dtype=np.int32)
        for lo in range(0, 3000, 1024):
            hi = min(lo + 1024, 3000)
            part = quantizer.quantize(data[lo:hi], predictions[lo:hi], 1e-2,
                                      codes=codes[1000 + lo : 1000 + hi])
            assert np.shares_memory(part.codes, codes)
        assert np.array_equal(codes[1000:4000], whole.codes)
        assert np.all(codes[:1000] == -7) and np.all(codes[4000:] == -7)

    @pytest.mark.parametrize("codes", [np.empty(3000, np.int64), np.empty(2999, np.int32)])
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
_SIDE_FIELDS = (("selectors", 1), ("coefficients", 4))
_CODE_FIELDS = (("huffman", 1), ("outliers", 8))


def _split(body: bytes) -> dict:
    """The plaintext body's fields, with every count implied by its bytes."""
    block_size, n_blocks, radius, original_len, predictor = struct.unpack_from("<IQIQB", body, 0)
    offset, fields = 25, {}
    for name, itemsize in (_SIDE_FIELDS if predictor == HYBRID else ()) + _CODE_FIELDS:
        (size,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        fields[name] = body[offset : offset + itemsize * size]
        offset += itemsize * size
    assert offset == len(body)
    return dict(fields, block_size=block_size, n_blocks=n_blocks, radius=radius,
                original_len=original_len, predictor=predictor)


def _join(fields: dict) -> bytes:
    """Inverse of :func:`_split`; side fields are written when present."""
    body = struct.pack("<IQIQB", fields["block_size"], fields["n_blocks"], fields["radius"],
                       fields["original_len"], fields["predictor"])
    for name, itemsize in _SIDE_FIELDS + _CODE_FIELDS:
        if name in fields:
            body += struct.pack("<Q", len(fields[name]) // itemsize) + fields[name]
    return body


@pytest.fixture(params=[HYBRID, ZERO], ids=["hybrid", "zero"])
def predictor(request) -> int:
    return request.param


class TestExactGeometry:
    comp = SZ2Compressor(1e-3, mode="abs", block_size=8)

    def _payload(self, predictor: int = HYBRID, length: int = 1000):
        """A valid payload of ``predictor``'s mode with an outlier; the
        hybrid one (a steep ramp after a constant run) has regression and
        mean blocks."""
        rng = np.random.default_rng(3)
        if predictor == HYBRID:
            data = np.linspace(0.0, 100.0, length).astype(np.float32)
            data[: length // 4] = 3.0
        else:
            data = rng.normal(0.0, 0.05, length).astype(np.float32)
        data[7] = np.inf
        payload = self.comp.compress(data)
        _, _, _, _, offset = self.comp._parse_container_header(payload)
        header, body = payload[:offset], payload[offset:]
        assert _split(body)["predictor"] == predictor
        return header, body

    def _decode(self, payload: bytes) -> np.ndarray:
        return self.comp.decompress(payload)

    def _assert_rejected(self, header: bytes, body: bytes, match: str) -> None:
        with pytest.raises(ValueError, match=match):
            self._decode(header + body)

    def _rebuilt(self, mode: int = HYBRID, **changes) -> tuple[bytes, bytes]:
        """A payload of ``mode`` with ``changes`` applied to its body fields."""
        header, body = self._payload(mode)
        fields = _split(body)
        assert _join(fields) == body
        fields.update(changes)
        return header, _join(fields)

    def test_valid_payload_fields_round_trip(self, predictor):
        header, body = self._payload(predictor)
        fields = _split(body)
        if predictor == HYBRID:
            regression = int(np.unpackbits(np.frombuffer(fields["selectors"], np.uint8)).sum())
            assert 0 < regression < fields["n_blocks"]
        else:
            assert "selectors" not in fields and "coefficients" not in fields
        assert len(fields["outliers"]) > 0
        assert self._decode(header + body).shape == (1000,)

    def test_no_blocks_for_nonempty_tensor(self):
        # the probe: a 1000-element header over a zero-padded 300 KB body
        # used to decode to 1000 zeros
        header, _ = self._payload()
        self._assert_rejected(header, bytes(300_000), "block size 0")
        escape = struct.pack("<IQI", 8, 0, 32768)
        self._assert_rejected(header, escape, "0 blocks of 8 cannot hold 1000")
        self._assert_rejected(header, escape + bytes(300_000), "0 blocks of 8")

    def test_empty_tensor_escape_is_exact(self):
        payload = self.comp.compress(np.zeros(0, np.float32))
        assert self.comp.decompress(payload).shape == (0,)
        header, body = payload[:18], payload[18:]
        assert len(body) == 16
        self._assert_rejected(header, body + b"\0", "1 bytes after the last field")

    def test_block_size_below_two(self, predictor):
        header, body = self._rebuilt(predictor, block_size=1, n_blocks=1000)
        self._assert_rejected(header, body, "block size 1 < 2")

    def test_block_count_must_cover_count(self, predictor):
        header, body = self._rebuilt(predictor, n_blocks=126)
        self._assert_rejected(header, body, "126 blocks of 8 cannot hold 1000")

    def test_original_length_matches_count(self, predictor):
        header, body = self._rebuilt(predictor, original_len=999)
        self._assert_rejected(header, body, "length 999 does not match")

    # 2 is the reference grid (tests/test_sz2_reference_grid.py)
    @pytest.mark.parametrize("value", [3, 255])
    def test_unknown_predictor_rejected(self, predictor, value):
        header, body = self._rebuilt(predictor, predictor=value)
        self._assert_rejected(header, body, f"unknown predictor {value}")

    def test_zero_body_carries_no_side_fields(self):
        # a zero-mode body with a hybrid's selector and coefficient fields
        # spliced in, and the hybrid fields of a real body under a zero
        # field: the selector count is read as the Huffman length
        fields = _split(self._payload(HYBRID)[1])
        side = {"selectors": fields["selectors"], "coefficients": fields["coefficients"]}
        header, body = self._rebuilt(ZERO, **side)
        self._assert_rejected(header, body, "corrupt Huffman stream")
        header, body = self._rebuilt(HYBRID, predictor=ZERO)
        self._assert_rejected(header, body, "corrupt Huffman stream")

    def test_hybrid_body_needs_its_side_fields(self):
        header, body = self._rebuilt(ZERO, predictor=HYBRID)
        self._assert_rejected(header, body, "selector bytes for 125 blocks")

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

    def test_code_count_matches_geometry(self, predictor):
        header, body = self._payload(predictor)
        fields = _split(body)
        codes = self.comp.huffman.decode(fields["huffman"], any_count)
        header, body = self._rebuilt(predictor, huffman=self.comp.huffman.encode(codes[:-1]))
        self._assert_rejected(header, body, "999 codes for 125 blocks of 8")

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_outlier_count_matches_escape_codes(self, predictor, delta):
        header, body = self._payload(predictor)
        outliers = _split(body)["outliers"]
        changed = outliers[:-8] if delta < 0 else outliers + bytes(8)
        header, body = self._rebuilt(predictor, outliers=changed)
        self._assert_rejected(header, body, "outlier")

    def test_trailing_bytes_rejected(self, predictor):
        # the probe: trailing plaintext used to be accepted
        header, body = self._payload(predictor)
        self._assert_rejected(header, body + b"\0", "1 bytes after the last field")
        self._assert_rejected(header, body + bytes(64), "64 bytes after the last field")


class TestExactGeometryInContainer(TestExactGeometry):
    """The same rules through a FedSZ container, whose SZ2 decoder has the
    default configuration (relative bound, default block size): the body's
    own fields size the decode, and each rejection reaches the caller."""

    # a container keeps an empty tensor in its lossless partition
    test_empty_tensor_escape_is_exact = None

    def _decode(self, payload: bytes) -> np.ndarray:
        return container_decoder("sz2", payload)()
