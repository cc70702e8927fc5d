"""Tests for the error-bounded linear quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantizer_reference import quantize_reference
from repro.compressors.quantizer import LinearQuantizer


class TestQuantize:
    def test_error_bound_respected(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, 5000)
        predictions = data + rng.normal(0, 0.1, 5000)
        bound = 0.01
        q = LinearQuantizer().quantize(data, predictions, bound)
        assert np.max(np.abs(q.reconstructed - data)) <= bound + 1e-12

    def test_perfect_prediction_gives_central_code(self):
        data = np.ones(10)
        quantizer = LinearQuantizer(radius=4)
        q = quantizer.quantize(data, data.copy(), 0.1)
        np.testing.assert_array_equal(q.codes, np.full(10, 5))  # radius + 1
        assert q.outliers.size == 0

    def test_outliers_flagged_and_exact(self):
        quantizer = LinearQuantizer(radius=2)
        data = np.array([0.0, 100.0, 0.0])
        predictions = np.zeros(3)
        q = quantizer.quantize(data, predictions, 0.01)
        assert q.codes[1] == 0
        assert q.outliers.size == 1
        np.testing.assert_allclose(q.reconstructed, data)

    def test_dequantize_matches_reconstruction(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0, 0.05, 1000)
        predictions = np.zeros(1000)
        quantizer = LinearQuantizer(radius=64)
        q = quantizer.quantize(data, predictions, 1e-3)
        recon = quantizer.dequantize(q.codes, q.outliers, predictions, 1e-3)
        np.testing.assert_allclose(recon, q.reconstructed)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LinearQuantizer().quantize(np.zeros(3), np.zeros(4), 0.1)

    def test_nonpositive_bound_raises(self):
        with pytest.raises(ValueError):
            LinearQuantizer().quantize(np.zeros(3), np.zeros(3), 0.0)

    def test_invalid_radius_raises(self):
        with pytest.raises(ValueError):
            LinearQuantizer(radius=0)

    def test_dequantize_missing_outliers_raises(self):
        quantizer = LinearQuantizer(radius=1)
        codes = np.array([0, 0])
        with pytest.raises(ValueError):
            quantizer.dequantize(codes, np.array([1.0]), np.zeros(2), 0.1)


class TestNoPrediction:
    """``predictions=None`` is a zero prediction without its passes."""

    @staticmethod
    def _data(dtype=np.float64) -> np.ndarray:
        rng = np.random.default_rng(11)
        data = rng.normal(0.0, 0.05, 4000) * np.abs(rng.normal(size=4000)) ** 1.5
        data[::97] = np.nan
        data[5::211] = np.inf
        data[7::211] = -np.inf
        data[9::53] = -0.0
        data[11::59] = 3.0                              # beyond the radius
        data[13::61] = rng.uniform(1.6e308, 1.79e308)   # overflows q * 2 * bound
        return data.astype(dtype)

    @pytest.mark.parametrize("bound", [1e-3, 0.5, 1e307])
    @pytest.mark.parametrize("radius", [64, 32768])
    def test_codes_and_outliers_equal_explicit_zeros(self, bound, radius):
        quantizer = LinearQuantizer(radius)
        data = self._data()
        want = quantizer.quantize(data, np.zeros(data.size), bound)
        got = quantizer.quantize(data, None, bound)
        assert got.codes.tobytes() == want.codes.tobytes()
        assert got.outliers.tobytes() == want.outliers.tobytes()
        # the reconstructions differ at most in the sign of a zero
        assert np.array_equal(got.reconstructed, want.reconstructed, equal_nan=True)

    def test_writes_a_code_slice(self):
        quantizer = LinearQuantizer(64)
        data = self._data()
        codes = np.full(5000, -7, dtype=np.int32)
        got = quantizer.quantize(data, None, 1e-3, codes=codes[500:4500])
        assert np.shares_memory(got.codes, codes)
        assert codes[500:4500].tobytes() == \
            quantizer.quantize(data, np.zeros(data.size), 1e-3).codes.tobytes()
        assert np.all(codes[:500] == -7) and np.all(codes[4500:] == -7)

    @pytest.mark.parametrize("out_dtype", [None, np.float32, np.float64])
    @pytest.mark.parametrize("bound", [1e-3, 0.5, 1e307])
    def test_dequantized_values_equal_explicit_zeros(self, bound, out_dtype):
        quantizer = LinearQuantizer(64)
        quant = quantizer.quantize(self._data(), None, bound)
        zeros = np.zeros(quant.codes.size)
        if out_dtype is None:
            want = quantizer.dequantize(quant.codes, quant.outliers, zeros, bound)
            got = quantizer.dequantize(quant.codes, quant.outliers, None, bound)
        else:
            want = quantizer.dequantize(quant.codes, quant.outliers, zeros, bound,
                                        out=np.empty(zeros.size, out_dtype))
            got = quantizer.dequantize(quant.codes, quant.outliers, None, bound,
                                       out=np.empty(zeros.size, out_dtype))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestOutlierPacking:
    def test_pack_unpack_roundtrip(self):
        values = np.array([1.5, -2.25, 1e-30])
        payload = LinearQuantizer.pack_outliers(values)
        out, offset = LinearQuantizer.unpack_outliers(payload)
        np.testing.assert_array_equal(out, values)
        assert offset == len(payload)

    def test_pack_empty(self):
        payload = LinearQuantizer.pack_outliers(np.array([]))
        out, offset = LinearQuantizer.unpack_outliers(payload)
        assert out.size == 0
        assert offset == 8

    def test_unpack_with_offset(self):
        values = np.array([3.0, 4.0])
        payload = b"PREFIX" + LinearQuantizer.pack_outliers(values)
        out, _ = LinearQuantizer.unpack_outliers(payload, offset=6)
        np.testing.assert_array_equal(out, values)


class TestQuantizerScratchRewrite:
    """The out=/where= rewrite of LinearQuantizer.quantize is bit-identical
    to the naive expression-per-temporary reference, including on the
    overflow/NaN/inf escape paths."""

    @staticmethod
    def _reference(data, predictions, abs_bound, radius):
        data = np.asarray(data, dtype=np.float64)
        predictions = np.asarray(predictions, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            residual = data - predictions
            q_float = np.rint(residual / (2.0 * abs_bound))
            predictable = np.isfinite(q_float) & (np.abs(q_float) <= radius)
            q = np.where(predictable, q_float, 0.0).astype(np.int64)
            candidate = predictions + 2.0 * abs_bound * q
            predictable &= np.isfinite(candidate)
            q = np.where(predictable, q, 0)
            reconstructed = np.where(predictable, candidate, data)
        codes = np.where(predictable, q + radius + 1, 0)
        outliers = data[~predictable].astype(np.float64)
        return codes, outliers, reconstructed

    @pytest.mark.parametrize("case", [
        "normal", "huge_ratio", "nonfinite", "reconstruction_overflow",
        "tiny_bound",
    ])
    def test_bit_identical_to_reference(self, case):
        rng = np.random.default_rng(17)
        data = rng.normal(0, 1, 4096)
        predictions = data + rng.normal(0, 0.01, 4096)
        bound = 1e-3
        if case == "huge_ratio":
            data[::7] = 1e300
            bound = 1e-12
        elif case == "nonfinite":
            data[::5] = np.nan
            data[1::5] = np.inf
            predictions[2::5] = -np.inf
        elif case == "reconstruction_overflow":
            data[::3] = 1.75e308
            predictions[::3] = 1.6e308
            bound = 1e307
        elif case == "tiny_bound":
            bound = 5e-324
        quantizer = LinearQuantizer(radius=255)
        result = quantizer.quantize(data, predictions, bound)
        codes, outliers, recon = self._reference(data, predictions, bound, 255)
        assert np.array_equal(result.codes, codes)
        assert np.array_equal(result.outliers, outliers, equal_nan=True)
        assert np.array_equal(result.reconstructed, recon, equal_nan=True)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000),
           exponent=st.integers(-10, -1))
    def test_property_bit_identical(self, seed, exponent):
        rng = np.random.default_rng(seed)
        data = rng.normal(0, 1, 500)
        predictions = data + rng.normal(0, 10.0 ** exponent, 500)
        quantizer = LinearQuantizer(radius=32768)
        result = quantizer.quantize(data, predictions, 1e-2)
        codes, outliers, recon = self._reference(data, predictions, 1e-2, 32768)
        assert np.array_equal(result.codes, codes)
        assert np.array_equal(result.outliers, outliers)
        assert np.array_equal(result.reconstructed, recon)


#: values at the edges of float32 and float64: signed zeros, subnormals of
#: both formats, huge values, NaN and infinities
_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
                      1e-45, -1e-40, 3.4e38, -3.4e38, 1.6e308, -1.79e308, 1e300])


@st.composite
def _oracle_case(draw):
    """Data (float32 or float64), predictions (or ``None``), bound, radius."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1e-2, 1.0, 1e35, 1e300]))
    share = draw(st.sampled_from([0.0, 0.05, 0.5]))
    data = rng.normal(0.0, scale, n)
    specials = rng.random(n) < share
    data[specials] = rng.choice(_SPECIALS, int(specials.sum()))
    with np.errstate(over="ignore"):
        data = data.astype(dtype)
    predictions = None
    kind = draw(st.sampled_from(["none", "near", "far", "special"]))
    if kind != "none":
        with np.errstate(over="ignore", invalid="ignore"):
            predictions = data.astype(np.float64) + rng.normal(0.0, scale, n) * \
                (1e-3 if kind == "near" else 10.0)
        if kind == "special":
            picks = rng.random(n) < 0.2
            predictions[picks] = rng.choice(_SPECIALS, int(picks.sum()))
    # the last three make 2 * bound * radius overflow for a radius of 32768,
    # 64 and 1 respectively
    bound = draw(st.sampled_from([5e-324, 1e-12, 1e-3, 0.5, 1e30, 1e304, 1e306, 1e308]))
    radius = draw(st.sampled_from([1, 4, 64, 32768]))
    return data, predictions, bound, radius


class TestLeanEncoderOracle:
    """The ``int32`` encoder equals the float64/int64 one it replaced
    (``tests/quantizer_reference.py``) bit for bit: codes, outliers and the
    reconstruction, which may only turn a ``-0.0`` into ``+0.0``."""

    @staticmethod
    def _assert_matches(got, data, predictions, bound, radius):
        codes, outliers, reconstructed = quantize_reference(radius, data, predictions, bound)
        assert got.codes.dtype == np.int32
        assert np.array_equal(got.codes.astype(np.int64), codes)
        assert got.outliers.dtype == np.float64
        assert got.outliers.tobytes() == outliers.tobytes()   # NaN payloads too
        recon = got.reconstructed
        same = recon.view(np.int64) == reconstructed.view(np.int64)
        assert np.all(same | ((recon == 0) & (reconstructed == 0)))

    @settings(max_examples=300, deadline=None)
    @given(case=_oracle_case())
    def test_equals_the_reference_quantizer(self, case):
        data, predictions, bound, radius = case
        got = LinearQuantizer(radius).quantize(data, predictions, bound)
        self._assert_matches(got, data, predictions, bound, radius)

    @settings(max_examples=40, deadline=None)
    @given(case=_oracle_case())
    def test_code_slices_equal_the_reference_quantizer(self, case):
        data, predictions, bound, radius = case
        codes = np.full(data.size + 20, -7, dtype=np.int32)
        middle = codes[10:-10]
        got = LinearQuantizer(radius).quantize(data, predictions, bound, codes=middle)
        assert got.codes is middle
        assert np.all(codes[:10] == -7) and np.all(codes[-10:] == -7)
        self._assert_matches(got, data, predictions, bound, radius)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_screen_shortcuts_keep_every_escape(self, dtype):
        # one value of each escape next to values that take no shortcut
        quantizer = LinearQuantizer(64)
        data = np.array([0.01, np.nan, np.inf, -np.inf, 0.3, -0.0], dtype=dtype)
        got = quantizer.quantize(data, None, 1e-3)
        self._assert_matches(got, data, None, 1e-3, 64)
        assert np.count_nonzero(got.codes == 0) == 4
        # |q| inside the radius everywhere, but 2 * bound * radius overflows
        got = quantizer.quantize(data[[0, 4, 5]], None, 1e307)
        self._assert_matches(got, data[[0, 4, 5]], None, 1e307, 64)
        # q inside the radius, but the prediction pushes the sum past the maximum
        big = np.array([1.75e308, 1.7e308, 1.0])
        got = quantizer.quantize(big, np.array([1.6e308, 1.7e308, 1.0]), 1e307)
        self._assert_matches(got, big, np.array([1.6e308, 1.7e308, 1.0]), 1e307, 64)
        assert got.codes.tolist()[0] == 0 and got.outliers.tolist() == [1.75e308]

    def test_reconstruction_is_built_on_first_read(self):
        quantizer = LinearQuantizer(64)
        got = quantizer.quantize(np.array([0.01, -0.02]), None, 1e-3)
        assert "reconstructed" not in vars(got)
        first = got.reconstructed
        assert got.reconstructed is first

    def test_radius_past_int32_codes_is_refused(self):
        with pytest.raises(ValueError, match="int32"):
            LinearQuantizer(2 ** 30).quantize(np.zeros(3), None, 1.0)
