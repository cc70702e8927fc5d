"""Tests for the composite blocks and the im2col/col2im machinery."""

import numpy as np
import pytest

from repro.nn.blocks import Bottleneck, ConvBNReLU, InvertedResidual
from nn_reference import im2col as reference_im2col
from repro.nn.functional import col2im, conv_output_size, im2col, log_softmax, one_hot, softmax


def naive_conv2d(x, weight, bias, stride, padding):
    """Reference convolution implemented with explicit loops."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, f, h_out, w_out))
    for ni in range(n):
        for fi in range(f):
            for i in range(h_out):
                for j in range(w_out):
                    patch = x_pad[ni, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[ni, fi, i, j] = (patch * weight[fi]).sum() + bias[fi]
    return out


class TestFunctional:
    def test_conv_output_size(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 3, 2, 1) == 16
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_im2col_matches_naive_convolution(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 6, 6))
        weight = rng.standard_normal((4, 3, 3, 3))
        bias = rng.standard_normal(4)
        rows = im2col(x, (3, 3), stride, padding)
        h_out = conv_output_size(6, 3, stride, padding)
        assert rows.shape == (2 * h_out * h_out, 3 * 3 * 3) and rows.flags.c_contiguous
        out = (rows @ weight.reshape(4, -1).T).reshape(2, h_out, h_out, 4)
        out = out.transpose(0, 3, 1, 2) + bias[None, :, None, None]
        np.testing.assert_allclose(out, naive_conv2d(x, weight, bias, stride, padding), rtol=1e-10)

    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 3), 1, 1), ((3, 3), 2, 0), ((1, 1), 1, 0), ((5, 5), 2, 2),
        ((3, 1), 1, 1), ((2, 3), 2, 1)],
        ids=["3x3-s1-p1", "3x3-s2-p0", "1x1-s1-p0", "5x5-s2-p2", "3x1-s1-p1", "2x3-s2-p1"])
    def test_im2col_rows_are_the_reference_columns_transposed(self, rng, kernel,
                                                              stride, padding):
        # the rows hold the same windows, bit for bit, as the (N, C*k*k, L)
        # columns they replaced, one sample's L positions after another
        x = rng.standard_normal((2, 3, 7, 9)).astype(np.float32)
        rows = im2col(x, kernel, stride, padding)
        cols = reference_im2col(x, kernel, stride, padding)
        assert rows.dtype == x.dtype and rows.flags.c_contiguous
        np.testing.assert_array_equal(
            rows, cols.transpose(0, 2, 1).reshape(-1, cols.shape[1]))

    def test_col2im_adjoint_of_im2col(self, rng):
        # <im2col(x), y> == <x, col2im(y)> must hold for an operator and its
        # adjoint; col2im reads the rows' (N, C*k*k, L) transpose
        x = rng.standard_normal((2, 2, 5, 5))
        y = rng.standard_normal((2 * 25, 2 * 3 * 3))
        lhs = float((im2col(x, (3, 3), 1, 1) * y).sum())
        cols = y.reshape(2, 25, -1).transpose(0, 2, 1)
        rhs = float((x * col2im(cols, x.shape, (3, 3), 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.standard_normal((5, 7)) * 50)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_log_softmax_consistent_with_softmax(self, rng):
        logits = rng.standard_normal((3, 4))
        np.testing.assert_allclose(np.exp(log_softmax(logits)), softmax(logits), rtol=1e-10)

    def test_one_hot(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3, dtype=np.float32)[[0, 2, 1]])


class TestConvBNReLU:
    def test_forward_shape_and_nonnegative(self, rng):
        block = ConvBNReLU(3, 8, kernel_size=3, stride=2, rng=rng)
        out = block(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        assert out.shape == (2, 8, 4, 4)
        assert out.min() >= 0.0

    def test_relu6_variant_clipped(self, rng):
        block = ConvBNReLU(3, 4, kernel_size=1, relu6=True, rng=rng)
        out = block(rng.standard_normal((2, 3, 4, 4)).astype(np.float32) * 100)
        assert out.max() <= 6.0


class TestBottleneck:
    def test_identity_shortcut_shapes(self, rng):
        block = Bottleneck(16, 4, stride=1, rng=rng)  # out = 4*4 = 16 == in
        assert block.downsample is None
        x = rng.standard_normal((2, 16, 8, 8)).astype(np.float32)
        out = block(x)
        assert out.shape == x.shape
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_projection_shortcut_when_shapes_change(self, rng):
        block = Bottleneck(8, 8, stride=2, rng=rng)
        assert block.downsample is not None
        x = rng.standard_normal((2, 8, 8, 8)).astype(np.float32)
        out = block(x)
        assert out.shape == (2, 32, 4, 4)
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_backward_populates_all_branch_gradients(self, rng):
        block = Bottleneck(8, 4, stride=2, rng=rng)
        x = rng.standard_normal((2, 8, 8, 8)).astype(np.float32)
        out = block(x)
        block.zero_grad()
        block.backward(np.ones_like(out))
        grads = [float(np.abs(p.grad).sum()) for _, p in block.named_parameters()]
        assert sum(g > 0 for g in grads) >= len(grads) * 0.7

    def test_residual_gradient_sums_branches(self, rng):
        # For an identity-shortcut block the input gradient must include the
        # pass-through term: with a zeroed residual branch it equals grad_out
        # exactly (after the output ReLU mask).
        block = Bottleneck(8, 2, stride=1, rng=rng)
        for _, param in block.conv3.named_parameters():
            param.data[:] = 0.0
        x = np.abs(rng.standard_normal((1, 8, 4, 4))).astype(np.float32) + 0.1
        out = block(x)
        grad = block.backward(np.ones_like(out))
        np.testing.assert_allclose(grad, (out > 0).astype(float), atol=1e-6)


class TestInvertedResidual:
    def test_residual_used_only_when_shapes_match(self, rng):
        with_res = InvertedResidual(8, 8, stride=1, expand_ratio=2, rng=rng)
        without_res = InvertedResidual(8, 16, stride=1, expand_ratio=2, rng=rng)
        strided = InvertedResidual(8, 8, stride=2, expand_ratio=2, rng=rng)
        assert with_res.use_residual
        assert not without_res.use_residual
        assert not strided.use_residual

    def test_forward_backward_shapes(self, rng):
        block = InvertedResidual(8, 12, stride=2, expand_ratio=4, rng=rng)
        x = rng.standard_normal((2, 8, 8, 8)).astype(np.float32)
        out = block(x)
        assert out.shape == (2, 12, 4, 4)
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_expand_ratio_one_skips_expansion(self, rng):
        block = InvertedResidual(8, 8, stride=1, expand_ratio=1, rng=rng)
        # expansion disabled -> the block starts directly with the depthwise stage
        assert len(block.block) == 3

    def test_state_dict_contains_depthwise_and_bn(self, rng):
        block = InvertedResidual(4, 4, stride=1, expand_ratio=2, rng=rng)
        names = set(block.state_dict())
        assert any("running_mean" in n for n in names)
        assert any(n.endswith("weight") for n in names)
