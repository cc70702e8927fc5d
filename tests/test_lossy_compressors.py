"""Cross-cutting tests applied to all four error-bounded lossy compressors."""

import numpy as np
import pytest

from repro.compressors import (
    ErrorBound,
    ErrorBoundMode,
    SZ2Compressor,
    SZ3Compressor,
    SZxCompressor,
    ZFPCompressor,
    available_lossy,
    get_lossy,
    roundtrip,
)

#: compressors that give a hard per-element guarantee (ZFP fixed-precision does not)
BOUNDED = [SZ2Compressor, SZ3Compressor, SZxCompressor]
ALL = BOUNDED + [ZFPCompressor]


def _rel_abs_bound(data: np.ndarray, rel: float) -> float:
    return rel * float(np.max(data) - np.min(data))


@pytest.mark.parametrize("cls", ALL)
class TestRoundtripShapes:
    def test_preserves_shape_and_dtype(self, cls, weight_like):
        comp = cls(error_bound=1e-2)
        data = weight_like[:4096].reshape(64, 64)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == data.shape
        assert recon.dtype == data.dtype

    def test_float64_input(self, cls, rng):
        data = rng.normal(0, 1, 2000).astype(np.float64)
        comp = cls(error_bound=1e-3)
        recon = comp.decompress(comp.compress(data))
        assert recon.dtype == np.float64
        assert recon.shape == data.shape

    def test_empty_array(self, cls):
        comp = cls(error_bound=1e-2)
        recon = comp.decompress(comp.compress(np.zeros(0, dtype=np.float32)))
        assert recon.size == 0

    def test_single_element(self, cls):
        comp = cls(error_bound=1e-2)
        data = np.array([0.123], dtype=np.float32)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == (1,)
        assert abs(float(recon[0]) - 0.123) < 0.05

    def test_constant_array(self, cls):
        comp = cls(error_bound=1e-2)
        data = np.full(1000, 0.5, dtype=np.float32)
        recon = comp.decompress(comp.compress(data))
        np.testing.assert_allclose(recon, data, atol=1e-3)

    def test_small_odd_lengths(self, cls, rng):
        for n in (1, 2, 3, 5, 7, 13, 129, 255):
            data = rng.normal(0, 0.05, n).astype(np.float32)
            comp = cls(error_bound=1e-2)
            recon = comp.decompress(comp.compress(data))
            assert recon.shape == data.shape


@pytest.mark.parametrize("cls", BOUNDED)
@pytest.mark.parametrize("rel_bound", [1e-1, 1e-2, 1e-3, 1e-4])
class TestErrorBoundGuarantee:
    def test_relative_bound_respected_on_weights(self, cls, rel_bound, weight_like):
        comp = cls(error_bound=rel_bound, mode=ErrorBoundMode.REL)
        recon = comp.decompress(comp.compress(weight_like))
        abs_bound = _rel_abs_bound(weight_like, rel_bound)
        max_err = np.max(np.abs(recon.astype(np.float64) - weight_like.astype(np.float64)))
        assert max_err <= abs_bound * (1 + 1e-6) + 1e-9

    def test_relative_bound_respected_on_smooth_data(self, cls, rel_bound, smooth_signal):
        comp = cls(error_bound=rel_bound, mode=ErrorBoundMode.REL)
        recon = comp.decompress(comp.compress(smooth_signal))
        abs_bound = _rel_abs_bound(smooth_signal, rel_bound)
        max_err = np.max(np.abs(recon.astype(np.float64) - smooth_signal.astype(np.float64)))
        assert max_err <= abs_bound * (1 + 1e-6) + 1e-9


@pytest.mark.parametrize("cls", BOUNDED)
class TestAbsoluteMode:
    def test_absolute_bound_respected(self, cls, rng):
        data = rng.normal(0, 10, 5000)
        comp = cls(error_bound=0.05, mode=ErrorBoundMode.ABS)
        recon = comp.decompress(comp.compress(data))
        assert np.max(np.abs(recon - data)) <= 0.05 * (1 + 1e-6) + 1e-9

    def test_tighter_bound_larger_payload(self, cls, weight_like):
        loose = cls(error_bound=1e-1).compress(weight_like)
        tight = cls(error_bound=1e-4).compress(weight_like)
        assert len(tight) > len(loose)


@pytest.mark.parametrize("cls", ALL)
class TestCompressionEffectiveness:
    def test_compresses_weight_data_at_1e2(self, cls, weight_like):
        comp = cls(error_bound=1e-2)
        payload = comp.compress(weight_like)
        assert len(payload) < weight_like.nbytes  # ratio > 1

    def test_smooth_data_compresses_better_than_random(self, cls, smooth_signal, rng):
        noise = rng.normal(0, 1, smooth_signal.size).astype(np.float32)
        comp = cls(error_bound=1e-3)
        smooth_payload = comp.compress(smooth_signal)
        noise_payload = comp.compress(noise)
        smooth_ratio = smooth_signal.nbytes / len(smooth_payload)
        noise_ratio = noise.nbytes / len(noise_payload)
        assert smooth_ratio >= noise_ratio * 0.9


class TestPaperQualitativeFindings:
    """Reproduce the relative ranking the paper reports in Table I."""

    def test_sz2_ratio_beats_zfp_on_weights(self, weight_like):
        _, sz2 = roundtrip(SZ2Compressor(error_bound=1e-2), weight_like)
        _, zfp = roundtrip(ZFPCompressor(error_bound=1e-2), weight_like)
        assert sz2.ratio > zfp.ratio

    def test_sz2_and_sz3_ratios_similar(self, weight_like):
        _, sz2 = roundtrip(SZ2Compressor(error_bound=1e-2), weight_like)
        _, sz3 = roundtrip(SZ3Compressor(error_bound=1e-2), weight_like)
        assert abs(sz2.ratio - sz3.ratio) / sz2.ratio < 0.5

    def test_szx_fastest_compressor(self, weight_like):
        _, szx = roundtrip(SZxCompressor(error_bound=1e-2), weight_like)
        _, sz2 = roundtrip(SZ2Compressor(error_bound=1e-2), weight_like)
        assert szx.compress_seconds < sz2.compress_seconds

    def test_ratio_grows_with_error_bound(self, weight_like):
        ratios = []
        for bound in (1e-4, 1e-3, 1e-2, 1e-1):
            _, stats = roundtrip(SZ2Compressor(error_bound=bound), weight_like)
            ratios.append(stats.ratio)
        assert ratios == sorted(ratios)


@pytest.mark.parametrize("cls", [SZ2Compressor, SZ3Compressor])
@pytest.mark.parametrize("chunk", [1, 7, 256, 1 << 20])
def test_entropy_chunk_changes_framing_not_values(cls, chunk):
    """``entropy_chunk`` caps the tuples per Huffman chunk: it changes the
    payload's framing, never the reconstruction, and the payload describes
    its own chunking, so a decoder configured otherwise reads it too."""
    data = np.cumsum(np.random.default_rng(7).normal(0, 0.01, 6000)).astype(np.float32)
    default = cls(error_bound=1e-2)
    want = default.decompress(default.compress(data)).view(np.uint32)
    chunked = cls(error_bound=1e-2, entropy_chunk=chunk)
    payload = chunked.compress(data)
    assert np.array_equal(chunked.decompress(payload).view(np.uint32), want)
    assert np.array_equal(default.decompress(payload).view(np.uint32), want)


class TestConfigurationAndRegistry:
    def test_available_lossy_names(self):
        assert set(available_lossy()) >= {"sz2", "sz3", "szx", "zfp"}

    @pytest.mark.parametrize("name", ["sz2", "sz3", "szx", "zfp"])
    def test_get_lossy_constructs(self, name):
        comp = get_lossy(name, error_bound=1e-3)
        assert comp.error_bound.value == 1e-3

    def test_get_lossy_unknown(self):
        with pytest.raises(ValueError, match="unknown lossy compressor"):
            get_lossy("fpzip")

    def test_error_bound_validation(self):
        with pytest.raises(ValueError):
            ErrorBound(0.0)
        with pytest.raises(ValueError):
            ErrorBound(-1e-3)

    def test_with_error_bound_returns_copy(self):
        comp = SZ2Compressor(error_bound=1e-2)
        tighter = comp.with_error_bound(1e-4)
        assert tighter.error_bound.value == 1e-4
        assert comp.error_bound.value == 1e-2
        assert isinstance(tighter, SZ2Compressor)

    def test_rel_mode_is_default(self):
        comp = SZ2Compressor(error_bound=1e-2)
        assert comp.error_bound.mode is ErrorBoundMode.REL

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            SZ2Compressor(block_size=1)
        with pytest.raises(ValueError):
            SZxCompressor(block_size=0)

    def test_zfp_precision_validation(self):
        with pytest.raises(ValueError):
            ZFPCompressor(precision=1)
        with pytest.raises(ValueError):
            ZFPCompressor(precision=40)

    def test_zfp_explicit_precision_roundtrip(self, weight_like):
        comp = ZFPCompressor(precision=16)
        recon = comp.decompress(comp.compress(weight_like))
        assert np.max(np.abs(recon - weight_like)) < 0.01


class TestRoundtripHelper:
    def test_stats_fields(self, weight_like):
        recon, stats = roundtrip(SZ2Compressor(error_bound=1e-2), weight_like)
        assert stats.original_bytes == weight_like.nbytes
        assert stats.compressed_bytes > 0
        assert stats.ratio > 1
        assert stats.compress_seconds > 0
        assert stats.decompress_seconds > 0
        assert stats.compress_throughput_mbps > 0
        assert stats.max_abs_error >= 0
        assert recon.shape == weight_like.shape
