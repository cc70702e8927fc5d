"""Error-bound guarantee matrix: every registered EBLC × mode × dtype.

Each registered error-bounded lossy compressor is driven in both ``abs`` and
``rel`` mode, on float32 and float64 data, against adversarial inputs —
constants, NaN-free extremes near the dtype's limits, denormals, and
spiky mixtures — and must keep ``max|x - x̂|`` within the resolved absolute
bound.  These inputs historically exposed three real bugs (int64 overflow in
the linear quantizer, a uint64 overflow in SZx's fixed-point stage, and SZ3's
float32 anchor storage), so the matrix is the regression fence for all of
them.

ZFP is included: in its derived-precision mode (the only mode this suite
constructs) it self-validates each block and escapes to verbatim storage, so
the bound is hard there too; only an explicitly requested precision opts out.
"""

import numpy as np
import pytest

from repro.compressors.base import ErrorBound, ErrorBoundMode
from repro.compressors.registry import available_lossy, get_lossy
from repro.core import FedSZCompressor, FedSZConfig
from repro.fl import FedSZUpdateCodec
from repro.fl.delta import DeltaUpdateCodec

DTYPES = [np.float32, np.float64]
MODES = [ErrorBoundMode.ABS, ErrorBoundMode.REL]
BOUNDS = [1e-2, 1e-4]


def _adversarial_inputs(dtype) -> dict[str, np.ndarray]:
    """NaN-free inputs at the nasty corners of the dtype's value space."""
    is_f32 = np.dtype(dtype) == np.float32
    denormal = 1e-40 if is_f32 else 5e-310
    extreme = 1e30 if is_f32 else 1e300
    rng = np.random.default_rng(7)
    spiky = rng.normal(0.0, 0.05, 400)
    spiky[rng.random(400) < 0.01] = extreme
    # near the very top of the dtype's finite range (for float64 this sits
    # past the 2**1023 threshold where a block-exponent scale overflows to
    # inf — the regression case for ZFP's NaN-reconstruction escape)
    near_max = 2e38 if is_f32 else 8e307
    return {
        "constant": np.full(513, 3.141592, dtype=dtype),
        "constant_zero": np.zeros(257, dtype=dtype),
        "single_value": np.array([-2.5], dtype=dtype),
        "ramp_extreme": np.linspace(-extreme, extreme, 511).astype(dtype),
        "near_dtype_max": np.linspace(0.5 * near_max, near_max, 129).astype(dtype),
        # constant at ~95% of the dtype's max: `(max + min) / 2` would
        # overflow to inf here (the historical SZx constant-block bug)
        "huge_constant": np.full(130, 3.2e38 if is_f32 else 1.7e308, dtype=dtype),
        "denormals": (rng.uniform(-1.0, 1.0, 300) * denormal).astype(dtype),
        "alternating_extremes": np.tile(np.array([extreme, -extreme], dtype=dtype), 128),
        "spiky": spiky.astype(dtype),
    }


@pytest.mark.parametrize("name", available_lossy())
@pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("bound", BOUNDS)
def test_bound_holds_on_adversarial_inputs(name, mode, dtype, bound):
    for label, data in _adversarial_inputs(dtype).items():
        comp = get_lossy(name, error_bound=bound, mode=mode)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == data.shape, f"{label}: shape changed"
        assert recon.dtype == data.dtype, f"{label}: dtype changed"
        abs_bound = comp.error_bound.absolute(data)
        err = float(np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))))
        # one float64 ULP of slack for the denormal regime, where every
        # arithmetic op rounds at the 5e-324 quantum
        assert err <= abs_bound * (1 + 1e-6) + 5e-324, (
            f"{name}/{mode.value}/{np.dtype(dtype).name}/{label}: "
            f"max error {err:.3e} exceeds bound {abs_bound:.3e}")
        assert np.all(np.isfinite(recon)), f"{label}: non-finite reconstruction"


@pytest.mark.parametrize("name", ["sz2", "sz3"])
def test_huge_bound_near_float64_max_stays_finite(name):
    """Regression: with a huge absolute bound, ``prediction + 2*bound*q`` can
    round past the float64 maximum even for tiny quotients; such positions
    must take the outlier escape instead of reconstructing as inf."""
    data = np.array([1.75e308, 1.60e308, 1.79e308, 1.71e308] * 40)
    comp = get_lossy(name, error_bound=1e307, mode=ErrorBoundMode.ABS)
    recon = comp.decompress(comp.compress(data))
    assert np.all(np.isfinite(recon))
    assert float(np.max(np.abs(recon - data))) <= 1e307 * (1 + 1e-6)


@pytest.mark.parametrize("name", available_lossy())
def test_bound_holds_on_empty_and_zero_d(name):
    comp = get_lossy(name, error_bound=1e-2, mode=ErrorBoundMode.ABS)
    empty = np.zeros(0, dtype=np.float32)
    recon = comp.decompress(comp.compress(empty))
    assert recon.shape == (0,)

    scalar = np.array(7.25, dtype=np.float32)
    recon = comp.decompress(comp.compress(scalar))
    assert recon.shape == ()
    assert abs(float(recon) - 7.25) <= 1e-2 * (1 + 1e-6)


class TestRangePastTheDtype:
    """A REL bound over a range the dtype cannot hold.

    ``max - min`` of float32 ``[3e38, -3e38, 1, 2]`` overflows to inf in
    float32; the range is then taken in float64, so every codec, the
    container and a delta ship round-trip the tensor within its bound
    (they used to write an infinite bound their decoders rejected).  A
    float64 range that overflows raises ``ValueError`` at encode, not at
    decode.
    """

    F32 = np.tile(np.array([3e38, -3e38, 1.0, 2.0], dtype=np.float32), 64)
    F64 = np.tile(np.array([1.7e308, -1.7e308, 1.0, 2.0]), 64)

    @staticmethod
    def _within_bound(got: np.ndarray, want: np.ndarray) -> None:
        bound = 1e-2 * (float(want.max()) - float(want.min()))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))) <= bound

    @pytest.mark.parametrize("name", available_lossy())
    def test_float32_codecs_round_trip(self, name):
        comp = get_lossy(name, error_bound=1e-2, mode=ErrorBoundMode.REL)
        self._within_bound(comp.decompress(comp.compress(self.F32)), self.F32)

    @pytest.mark.parametrize("name", [n for n in available_lossy() if n != "verbatim"])
    def test_float64_codecs_raise_at_encode(self, name):
        comp = get_lossy(name, error_bound=1e-2, mode=ErrorBoundMode.REL)
        with pytest.raises(ValueError, match="finite value range"):
            comp.compress(self.F64)

    def test_container(self):
        fedsz = FedSZCompressor(FedSZConfig(threshold=16))
        state = {"fc.weight": self.F32.reshape(16, 16)}
        self._within_bound(fedsz.decompress_state_dict(
            fedsz.compress_state_dict(state))["fc.weight"], state["fc.weight"])
        with pytest.raises(ValueError, match="finite value range"):
            fedsz.compress_state_dict({"fc.weight": self.F64.reshape(16, 16)})

    def test_delta_ship(self):
        codec = DeltaUpdateCodec(FedSZUpdateCodec(FedSZConfig(threshold=16)))
        for values in (self.F32, self.F64):
            reference = {"fc.weight": values.reshape(16, 16)}
            state = {"fc.weight": reference["fc.weight"] * values.dtype.type(0.999)}
            codec.arm(reference, 1, delta=True)
            if values.dtype == np.float32:
                self._within_bound(codec.decode(codec.encode(state))["fc.weight"],
                                   state["fc.weight"])
            else:
                with pytest.raises(ValueError, match="finite"):
                    codec.encode(state)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_bound_refused(self, value):
        # it would be written into a header the decoder rejects
        with pytest.raises(ValueError, match="positive and finite"):
            ErrorBound(value, ErrorBoundMode.ABS)
