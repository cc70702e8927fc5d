"""SZ2's reference grid: a tensor's zero-grid indices coded against those of
a reference array that the decoder holds too.

* The oracle: on random tensors with zero-grid outliers, NaN and +-inf,
  non-finite and out-of-radius reference values, values whose index delta
  leaves the radius, and ragged last blocks, in one tile and in several,
  the body is the whole-array oracle's byte for byte
  (``sz2_reference.py``), and its reconstruction is the zero grid's bit for
  bit.
* No reference, or one of another dtype or element count, leaves the plain
  body; SZ3, SZx and ZFP ignore a reference.
* The decode contract: a reference-grid body with no reference, or with one
  of another element count or dtype, raises ``ValueError`` before the body
  sizes anything, on the codec and through a FedSZ container.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from container_reference import container_decoder
from sz2_reference import REFERENCE, ZERO, reference_compress, reference_reconstruct
from repro.compressors import get_lossy
from repro.compressors.sz2 import _TILE_BLOCKS, SZ2Compressor

_RADIUS = 64
_BOUND = 1e-3  # ABS: the zero grid covers |x| <= 2 * _BOUND * _RADIUS = 0.128


def _bits(array: np.ndarray) -> bytes:
    return array.dtype.str.encode() + repr(array.shape).encode() + array.tobytes()


def _predictor(comp: SZ2Compressor, payload: bytes) -> "int | None":
    _, _, _, _, offset = comp._parse_container_header(payload)
    body = payload[offset:]
    return body[24] if len(body) > 24 else None


def _case(length: int, dtype, seed: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(data, reference)``: data a small step from its reference, with
    every escape the reference grid has to keep."""
    rng = np.random.default_rng(seed)
    reference = rng.normal(0.0, 0.04, length)
    data = reference + rng.normal(0.0, 0.002, length)
    picks = rng.random(length)
    # the ragged last block repeats the final value: keep it a plain one, so
    # that the padding does not multiply an escape
    picks[-1] = 1.0
    # |q(x) - q(ref)| past the radius while both indices stay inside it
    jump = picks < 0.03
    sign = np.where(rng.random(length) < 0.5, -1.0, 1.0)[jump]
    reference[jump], data[jump] = 0.1 * sign, -0.1 * sign
    # zero-grid outliers of the data: non-finite and past the radius
    data[(picks >= 0.03) & (picks < 0.04)] = np.nan
    data[(picks >= 0.04) & (picks < 0.05)] = np.inf
    data[(picks >= 0.05) & (picks < 0.06)] = -np.inf
    data[(picks >= 0.06) & (picks < 0.07)] = 5.0
    # reference values that take index 0: non-finite and past the radius
    reference[(picks >= 0.07) & (picks < 0.08)] = np.nan
    reference[(picks >= 0.08) & (picks < 0.09)] = -np.inf
    reference[(picks >= 0.09) & (picks < 0.10)] = 1e3
    return data.astype(dtype), reference.astype(dtype)


_TILE = _TILE_BLOCKS * 128


@settings(max_examples=25, deadline=None)
@given(length=st.one_of(st.integers(1, 3 * _TILE),
                        st.sampled_from([1, 127, 129, 1000, _TILE - 1, _TILE + 1,
                                         2 * _TILE + 77])),
       block_size=st.sampled_from([7, 128]),
       dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
@example(length=1000, block_size=128, dtype=np.float32, seed=0)
@example(length=_TILE - 1, block_size=128, dtype=np.float64, seed=1)
@example(length=_TILE + 1, block_size=128, dtype=np.float32, seed=2)
@example(length=2 * _TILE + 77, block_size=128, dtype=np.float64, seed=3)
@example(length=3 * _TILE_BLOCKS * 7 + 3, block_size=7, dtype=np.float32, seed=4)
def test_reference_grid_matches_oracle_and_zero_grid(length, block_size, dtype, seed):
    comp = SZ2Compressor(_BOUND, mode="abs", block_size=block_size,
                         quantizer_radius=_RADIUS)
    data, reference = _case(length, dtype, seed)
    payload = comp.compress(data, reference)
    if length >= 500:  # a handful of values may price the zero grid cheaper
        assert _predictor(comp, payload) == REFERENCE
    predictor = _predictor(comp, payload)
    assert payload == reference_compress(comp, data, predictor, reference)
    recon = comp.decompress(payload, reference)
    assert _bits(recon) == _bits(reference_reconstruct(comp, payload, reference))
    zero_grid = reference_reconstruct(comp, reference_compress(comp, data, ZERO))
    assert _bits(recon) == _bits(zero_grid)


@pytest.mark.parametrize("length", [1000, 2 * _TILE + 77])
@pytest.mark.parametrize("last, last_reference", [
    (-0.1, 0.1),        # the index delta leaves the radius
    (np.nan, 0.0),      # a verbatim outlier
    (0.01, np.inf),     # a non-finite reference value
    (0.01, 1e3),        # a reference value past the radius
])
def test_padded_tail_repeats_the_final_values(length, last, last_reference):
    # the ragged last block is padded with the data's and the reference's
    # final values, escapes included, on both sides
    comp = SZ2Compressor(_BOUND, mode="abs", quantizer_radius=_RADIUS)
    data, reference = _case(length, np.float64, seed=length)
    data[-1], reference[-1] = last, last_reference
    payload = reference_compress(comp, data, REFERENCE, reference)
    zero_grid = reference_reconstruct(comp, reference_compress(comp, data, ZERO))
    assert _bits(comp.decompress(payload, reference)) == _bits(zero_grid)
    coded = comp.compress(data, reference)
    assert coded == reference_compress(comp, data, _predictor(comp, coded), reference)


@pytest.mark.parametrize("length", [1000, 2 * _TILE + 77])
def test_trained_like_tensor_takes_the_reference_grid(length):
    # a REL bound over a state near its broadcast, as a federated client
    # ships it: most index deltas are 0, so the body shrinks several-fold
    rng = np.random.default_rng(length)
    reference = rng.normal(0.0, 0.05, length).astype(np.float32)
    data = (reference + rng.normal(0.0, 0.0002, length)).astype(np.float32)
    comp = SZ2Compressor(1e-2)
    plain, coded = comp.compress(data), comp.compress(data, reference)
    assert _predictor(comp, plain) == ZERO and _predictor(comp, coded) == REFERENCE
    assert len(coded) < len(plain) / 3
    assert _bits(comp.decompress(coded, reference)) == _bits(comp.decompress(plain))


@pytest.mark.parametrize("reference", [
    None,
    np.zeros(999, np.float32),                 # another element count
    np.zeros(1000, np.float64),                # another dtype
], ids=["none", "count", "dtype"])
def test_unusable_reference_leaves_the_plain_body(reference):
    data, _ = _case(1000, np.float32, seed=5)
    comp = SZ2Compressor(_BOUND, mode="abs", quantizer_radius=_RADIUS)
    assert comp.compress(data, reference) == comp.compress(data)


@pytest.mark.parametrize("codec", ["sz3", "szx", "zfp"])
def test_other_codecs_ignore_the_reference(codec):
    data, reference = _case(5000, np.float32, seed=6)
    comp = get_lossy(codec, error_bound=_BOUND, mode="abs")
    finite = np.nan_to_num(data, nan=0.0, posinf=1.0, neginf=-1.0)
    payload = comp.compress(finite, reference)
    assert payload == comp.compress(finite)
    assert _bits(comp.decompress(payload, reference)) == _bits(comp.decompress(payload))


# ----------------------------------------------------------------------
# decode contract
class TestReferenceDecodeContract:
    comp = SZ2Compressor(_BOUND, mode="abs", block_size=8, quantizer_radius=_RADIUS)

    def _payload(self):
        data, reference = _case(1000, np.float32, seed=7)
        payload = self.comp.compress(data, reference)
        assert _predictor(self.comp, payload) == REFERENCE
        return payload, reference

    def _decode(self, payload: bytes, reference):
        return self.comp.decompress(payload, reference)

    def test_round_trips_with_its_reference(self):
        payload, reference = self._payload()
        assert self._decode(payload, reference).shape == (1000,)

    def test_missing_reference_rejected(self):
        payload, _ = self._payload()
        with pytest.raises(ValueError, match="no reference was supplied"):
            self._decode(payload, None)

    @pytest.mark.parametrize("change", ["count", "dtype"])
    def test_mismatched_reference_rejected(self, change):
        payload, reference = self._payload()
        wrong = reference[:-1] if change == "count" else reference.astype(np.float64)
        with pytest.raises(ValueError, match="supplied reference holds"):
            self._decode(payload, wrong)

    def test_a_reference_does_not_change_plain_bodies(self):
        data, reference = _case(1000, np.float32, seed=8)
        payload = self.comp.compress(data)
        assert _predictor(self.comp, payload) != REFERENCE
        assert _bits(self._decode(payload, reference[:5])) == \
            _bits(self._decode(payload, None))


class TestReferenceDecodeContractInContainer(TestReferenceDecodeContract):
    """The same rules through a FedSZ container, whose reference state maps
    the tensor's name to the reference."""

    def _decode(self, payload: bytes, reference):
        return container_decoder("sz2", payload, reference)()


def test_reference_checked_before_the_huffman_stream():
    # a reference-grid body whose Huffman field is garbage: the missing
    # reference is reported, not the stream
    header = struct.pack("<BBQd", 0, 1, 10, 0.01)
    body = struct.pack("<IQIQB", 8, 2, 32768, 10, REFERENCE) + struct.pack("<Q", 5) + b"junk!"
    with pytest.raises(ValueError, match="no reference was supplied"):
        SZ2Compressor().decompress(header + body)
    with pytest.raises(ValueError, match="supplied reference holds 9"):
        SZ2Compressor().decompress(header + body, np.zeros(9, np.float32))
