"""Tests for the error-bounded linear quantizer."""

import numpy as np
import pytest

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
        codes = np.full(5000, -7, dtype=np.int64)
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
