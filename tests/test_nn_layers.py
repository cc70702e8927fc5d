"""Gradient and behaviour tests for the neural-network layers.

Analytic backward passes are verified against central-difference numerical
gradients on tiny tensors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from nn_reference import (Conv2d as ReferenceConv2d, MaxPool2d as ReferenceMaxPool2d,
                          ReLU as ReferenceReLU, held_arrays)

from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)
from repro.nn.module import Sequential


def numerical_grad_input(layer, x, grad_out, eps=1e-4):
    """Central-difference dL/dx where L = sum(forward(x) * grad_out)."""
    x = x.astype(np.float64)
    num = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        plus = float((layer.forward(x) * grad_out).sum())
        x[idx] = orig - eps
        minus = float((layer.forward(x) * grad_out).sum())
        x[idx] = orig
        num[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return num


def numerical_grad_param(layer, param, x, grad_out, eps=1e-4):
    """Central-difference dL/dparam for the same scalar loss."""
    num = np.zeros_like(param.data, dtype=np.float64)
    it = np.nditer(param.data, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = float(param.data[idx])
        param.data[idx] = orig + eps
        plus = float((layer.forward(x) * grad_out).sum())
        param.data[idx] = orig - eps
        minus = float((layer.forward(x) * grad_out).sum())
        param.data[idx] = orig
        num[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return num


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(6, 4, rng=rng)
        out = layer(rng.standard_normal((5, 6)))
        assert out.shape == (5, 4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        grad_out = rng.standard_normal((2, 3))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-5)

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        grad_out = rng.standard_normal((2, 3))
        layer.forward(x)
        layer.zero_grad()
        layer.backward(grad_out)
        numeric = numerical_grad_param(layer, layer.weight, x, grad_out)
        np.testing.assert_allclose(layer.weight.grad, numeric, rtol=1e-3, atol=1e-4)

    def test_bias_gradient(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        grad_out = rng.standard_normal((5, 3))
        layer.forward(x)
        layer.zero_grad()
        layer.backward(grad_out)
        np.testing.assert_allclose(layer.bias.grad, grad_out.sum(axis=0), rtol=1e-5)

    def test_no_bias_option(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1


class TestConv2d:
    def test_forward_shape_padding_stride(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = layer(rng.standard_normal((2, 3, 8, 8)))
        assert out.shape == (2, 8, 4, 4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.standard_normal((1, 2, 5, 5))
        grad_out = rng.standard_normal((1, 3, 5, 5))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Conv2d(2, 2, 3, padding=1, rng=rng)
        x = rng.standard_normal((1, 2, 4, 4))
        grad_out = rng.standard_normal((1, 2, 4, 4))
        layer.forward(x)
        layer.zero_grad()
        layer.backward(grad_out)
        numeric = numerical_grad_param(layer, layer.weight, x, grad_out)
        np.testing.assert_allclose(layer.weight.grad, numeric, rtol=1e-3, atol=1e-4)

    def test_depthwise_forward_shape(self, rng):
        layer = Conv2d(4, 4, 3, padding=1, groups=4, rng=rng)
        out = layer(rng.standard_normal((2, 4, 6, 6)))
        assert out.shape == (2, 4, 6, 6)

    def test_depthwise_input_gradient(self, rng):
        layer = Conv2d(2, 2, 3, padding=1, groups=2, rng=rng)
        x = rng.standard_normal((1, 2, 4, 4))
        grad_out = rng.standard_normal((1, 2, 4, 4))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)

    def test_depthwise_matches_dense_when_single_channel(self, rng):
        dense = Conv2d(1, 1, 3, padding=1, rng=np.random.default_rng(0))
        depth = Conv2d(1, 1, 3, padding=1, groups=1, rng=np.random.default_rng(0))
        depth.weight.data = dense.weight.data.copy()
        depth.bias.data = dense.bias.data.copy()
        x = rng.standard_normal((2, 1, 5, 5))
        np.testing.assert_allclose(dense(x), depth(x), rtol=1e-5)

    def test_invalid_groups_raises(self):
        with pytest.raises(ValueError):
            Conv2d(4, 8, 3, groups=2)

    def test_stride_without_padding(self, rng):
        layer = Conv2d(1, 2, 3, stride=2, padding=0, rng=rng)
        out = layer(rng.standard_normal((1, 1, 7, 7)))
        assert out.shape == (1, 2, 3, 3)


class TestBatchNorm2d:
    def test_training_normalizes_batch(self, rng):
        layer = BatchNorm2d(3)
        x = rng.standard_normal((8, 3, 4, 4)) * 5 + 2
        out = layer(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self, rng):
        layer = BatchNorm2d(2, momentum=0.5)
        x = rng.standard_normal((16, 2, 3, 3)) + 4.0
        layer(x)
        assert np.all(layer._buffers["running_mean"] > 1.0)
        assert layer._buffers["num_batches_tracked"][0] == 1

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm2d(2)
        x = rng.standard_normal((8, 2, 4, 4))
        layer(x)
        layer.train(False)
        y1 = layer(x[:2])
        y2 = layer(x[:2])
        np.testing.assert_allclose(y1, y2)

    def test_input_gradient_matches_numerical(self, rng):
        layer = BatchNorm2d(2)
        x = rng.standard_normal((3, 2, 2, 2))
        grad_out = rng.standard_normal((3, 2, 2, 2))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out, eps=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)

    def test_state_dict_contains_buffers(self):
        layer = BatchNorm2d(4)
        state = layer.state_dict()
        assert {"weight", "bias", "running_mean", "running_var", "num_batches_tracked"} <= set(state)


class TestActivationsAndPooling:
    def test_relu_forward_backward(self, rng):
        layer = ReLU()
        x = np.array([[-1.0, 2.0, 0.0]])
        out = layer(x)
        np.testing.assert_array_equal(out, [[0.0, 2.0, 0.0]])
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 1.0, 0.0]])

    def test_relu6_clips(self):
        layer = ReLU6()
        x = np.array([[-1.0, 3.0, 10.0]])
        np.testing.assert_array_equal(layer(x), [[0.0, 3.0, 6.0]])
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad, [[0.0, 1.0, 0.0]])

    def test_maxpool_forward(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4
        assert grad[0, 0, 1, 1] == 1 and grad[0, 0, 0, 0] == 0

    def test_maxpool_ragged_input(self, rng):
        layer = MaxPool2d(2)
        x = rng.standard_normal((1, 1, 5, 5))
        out = layer(x)
        assert out.shape == (1, 1, 2, 2)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_avgpool_matches_mean(self, rng):
        layer = AvgPool2d(2)
        x = rng.standard_normal((2, 3, 4, 4))
        out = layer(x)
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean())

    def test_avgpool_gradient_numerical(self, rng):
        layer = AvgPool2d(2)
        x = rng.standard_normal((1, 1, 4, 4))
        grad_out = rng.standard_normal((1, 1, 2, 2))
        layer.forward(x)
        analytic = layer.backward(grad_out)
        numeric = numerical_grad_input(layer, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_global_avgpool(self, rng):
        layer = GlobalAvgPool2d()
        x = rng.standard_normal((2, 3, 5, 5))
        out = layer(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
        grad = layer.backward(np.ones((2, 3)))
        assert grad.shape == x.shape
        np.testing.assert_allclose(grad, 1.0 / 25)

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.standard_normal((4, 2, 3, 3))
        out = layer(x)
        assert out.shape == (4, 18)
        assert layer.backward(out).shape == x.shape


def _pool_windows(x, k):
    """(N, C, H // k, W // k, k * k) windows of ``x``, ragged border trimmed."""
    n, c, h, w = x.shape
    x = x[:, :, :h // k * k, :w // k * k]
    return x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h // k, w // k, k * k)


def _assert_same_bits(got, want, either_zero=None):
    """Bit-identical arrays, NaN compared as NaN; where ``either_zero`` is
    set, a zero of either sign matches a zero."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    uint = f"u{want.itemsize}"
    same = (got.view(uint) == want.view(uint)) | nan
    if either_zero is not None:
        same |= either_zero & (got == 0) & (want == 0)
    assert same.all()


_POOL_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]


@st.composite
def _pool_case(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k = draw(st.sampled_from([2, 3]))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(k, 3 * k + 2)), draw(st.integers(k, 3 * k + 2)))
    width = 8 * np.dtype(dtype).itemsize
    x = draw(hnp.arrays(dtype, shape, elements=st.one_of(
        st.sampled_from(_POOL_VALUES), st.floats(width=width))))
    if draw(st.booleans()):  # after a ReLU: all-zero windows tie
        x = np.where(x > 0, x, 0.0).astype(dtype)
    return x, k, draw(st.integers(0, 2**32 - 1))


class TestMaxPoolOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_pool_case())
    def test_pairwise_pool_matches_argmax_pool(self, case):
        """Outputs and routed gradients equal the argmax oracle's bit for bit.

        One exception: a window whose maximum is a zero it holds with both
        signs.  There the oracle's sign comes from numpy's ``max``
        reduction, whose tie rule differs between its scalar and SIMD loops
        (an AVX-512 host runs float64 k = 3 windows through the SIMD one),
        so either zero passes.  A ReLU writes +0.0 only, so no model pools
        such a window; the gradient routes to the first zero either way.
        """
        x, k, seed = case
        oracle = ReferenceMaxPool2d(k)
        want = oracle(x)
        windows = _pool_windows(x, k)
        zero = windows == 0
        mixed = (zero & np.signbit(windows)).any(-1) & (zero & ~np.signbit(windows)).any(-1)
        pool = MaxPool2d(k)
        _assert_same_bits(pool.eval()(x), want, mixed)
        _assert_same_bits(pool.train()(x), want, mixed)
        grad = np.random.default_rng(seed).standard_normal(want.shape)
        _assert_same_bits(pool.backward(grad), oracle.backward(grad))

    def test_training_record_is_one_byte_per_output(self, rng):
        pool = MaxPool2d(2)
        out = pool(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        assert pool._first.dtype == np.uint8 and pool._first.shape == out.shape


@st.composite
def _relu_case(draw):
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    x = draw(hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=4, max_side=4)))
    grad = draw(hnp.arrays(np.float64, x.shape))
    return x, grad, draw(st.booleans())


class TestReLUOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_relu_case())
    def test_select_matches_np_where(self, case):
        """Forward and backward equal the ``np.where`` oracle's bit for bit,
        NaN, infinities and both zeros included, on C-ordered and transposed
        inputs, with the output in the input's memory order."""
        x, grad, transposed = case
        if transposed:
            x, grad = x.T, grad.T
        relu, oracle = ReLU(), ReferenceReLU()
        got, want = relu(x), oracle(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.strides == np.empty_like(x).strides
        got, want = relu.backward(grad), oracle.backward(grad)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestConvOracle:
    #: AlexNet's four convolutions on 32x32 images:
    #: (in channels, out channels, kernel, padding, input size)
    ALEXNET_32 = [(3, 32, 5, 2, 32), (32, 64, 3, 1, 16), (64, 96, 3, 1, 8), (96, 64, 3, 1, 8)]

    @pytest.mark.parametrize("shape", ALEXNET_32, ids=lambda s: f"{s[0]}to{s[1]}k{s[2]}s{s[4]}")
    def test_gemm_products_match_the_einsum_products(self, shape):
        """At the round workload's batch of 32, the float32 forward and the
        input and weight gradients of a float64 upstream gradient keep the
        einsum convolution's bits: a BLAS kernel switch would show here."""
        c_in, c_out, k, padding, size = shape
        rng = np.random.default_rng(size + c_in)
        pair = [cls(c_in, c_out, k, padding=padding, rng=np.random.default_rng(0))
                for cls in (Conv2d, ReferenceConv2d)]
        bias = rng.standard_normal(c_out).astype(np.float32)
        for layer in pair:
            layer.bias.data = bias.copy()
        x = rng.standard_normal((32, c_in, size, size)).astype(np.float32)
        new, oracle = (layer(x) for layer in pair)
        assert new.dtype == oracle.dtype == np.float32 and new.tobytes() == oracle.tobytes()
        grad = rng.standard_normal(new.shape)
        new, oracle = (layer.backward(grad) for layer in pair)
        assert new.dtype == oracle.dtype == np.float64 and new.tobytes() == oracle.tobytes()
        for name in ("weight", "bias"):
            new, oracle = (getattr(layer, name).grad for layer in pair)
            assert new.tobytes() == oracle.tobytes(), name


class TestInferenceOnlyEval:
    LAYERS = {
        "linear": (lambda: Linear(4, 3, rng=np.random.default_rng(0)), (2, 4)),
        "conv": (lambda: Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)), (2, 2, 5, 5)),
        "depthwise": (lambda: Conv2d(2, 2, 3, padding=1, groups=2, rng=np.random.default_rng(0)),
                      (2, 2, 5, 5)),
        "batchnorm": (lambda: BatchNorm2d(2), (3, 2, 4, 4)),
        "relu": (ReLU, (2, 2, 4, 4)),
        "relu6": (ReLU6, (2, 2, 4, 4)),
        "maxpool": (lambda: MaxPool2d(2), (2, 2, 5, 5)),
    }

    @pytest.mark.parametrize("name", LAYERS)
    def test_eval_forward_keeps_nothing_and_backward_raises(self, name, rng):
        factory, shape = self.LAYERS[name]
        layer = factory()
        x = rng.standard_normal(shape)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(layer.eval()(x)))
        layer.train()
        layer(x)
        assert held_arrays(layer)
        out = layer.eval()(x)
        assert held_arrays(layer) == []
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(out))

    @pytest.mark.parametrize("name", LAYERS)
    def test_backward_releases_what_the_training_forward_cached(self, name, rng):
        factory, shape = self.LAYERS[name]
        layer = factory()
        out = layer(rng.standard_normal(shape))
        assert held_arrays(layer)
        layer.backward(np.ones_like(out))
        assert held_arrays(layer) == []
        with pytest.raises(RuntimeError):
            layer.backward(np.ones_like(out))


class TestDropout:
    def test_eval_mode_identity(self, rng):
        layer = Dropout(0.5, rng=rng)
        layer.train(False)
        x = rng.standard_normal((10, 10))
        np.testing.assert_array_equal(layer(x), x)

    def test_train_mode_zeroes_and_scales(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((1000,))
        out = layer(x)
        zero_fraction = float((out == 0).mean())
        assert 0.4 < zero_fraction < 0.6
        assert np.isclose(out[out != 0][0], 2.0)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(1))
        x = np.ones((100,))
        out = layer(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestSequentialChaining:
    def test_forward_backward_shapes(self, rng):
        net = Sequential(Conv2d(1, 2, 3, padding=1, rng=rng), ReLU(), MaxPool2d(2),
                         Flatten(), Linear(2 * 2 * 2, 3, rng=rng))
        x = rng.standard_normal((4, 1, 4, 4))
        out = net(x)
        assert out.shape == (4, 3)
        grad = net.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_sequential_gradient_numerical(self, rng):
        net = Sequential(Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        x = rng.standard_normal((2, 3))
        grad_out = rng.standard_normal((2, 2))
        net.forward(x)
        analytic = net.backward(grad_out)
        numeric = numerical_grad_input(net, x.copy(), grad_out)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-4)
