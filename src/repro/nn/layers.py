"""Layer implementations with explicit forward/backward passes.

In training mode each layer caches whatever the backward pass needs during
``forward``, and ``backward`` releases it, so a finished training step
leaves no such array behind; in evaluation mode ``forward`` is inference
only: it keeps no such array and drops any a training forward left.  A
``backward`` with nothing cached (after an eval forward, before any forward,
or a second time) raises :class:`RuntimeError`; ``Dropout``, whose eval mode
is the identity, passes the gradient through instead.  ``backward``
accumulates parameter gradients and returns the gradient with respect to
the layer's input, except on a model's stem layer (the first ``Conv2d``, or
an MLP's first ``Linear``), which the model marks when it is built: nothing
reads the gradient with respect to the input image, so the stem skips it and
returns ``None``.  This mirrors PyTorch behaviour closely enough for the FL
experiments while staying dependency-free.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
]

_NO_TRAINING_FORWARD = "backward called without a training-mode forward"


def _kaiming_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He-uniform initialization used for conv and linear weights."""
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform((out_features, in_features), in_features, rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        self._x: np.ndarray | None = None
        self._stem = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x if self.training else None
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        self._last_output_shape = out.shape
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        x, self._x = self._x, None
        if x is None:
            raise RuntimeError(_NO_TRAINING_FORWARD)
        self.weight.add_grad(grad.T @ x)
        if self.bias is not None:
            self.bias.add_grad(grad.sum(axis=0))
        if self._stem:
            return None
        return grad @ self.weight.data


class Conv2d(Module):
    """2-D convolution supporting standard and depthwise (groups=in_channels) modes.

    The dense products are plain GEMMs: the forward runs ``(N*L, K) @ (K, F)``
    on the window rows, the weight gradient ``(K, N*L) @ (N*L, F)`` and the
    input gradient ``(N*L, F) @ (F, K)``, where ``K = C*k*k`` and ``L`` is the
    number of output positions.  Each is one 2-D GEMM over all ``N*L``
    windows with the reduction length ``np.einsum(..., optimize=True)`` ran
    for the same product (the einsum's GEMM, transposed), so every output
    sums the same terms; per-sample GEMMs would not, since a BLAS may pick
    other kernels for small shapes.  ``tests/nn_reference.py`` keeps the
    einsum products, and the oracle tests hold these bit for bit to them on
    the host that runs them.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if groups not in (1, in_channels):
            raise ValueError("Conv2d supports groups=1 or depthwise groups=in_channels")
        if groups == in_channels and out_channels % in_channels != 0:
            raise ValueError("depthwise conv requires out_channels to be a multiple of in_channels")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(_kaiming_uniform(
            (out_channels, in_channels // groups, kernel_size, kernel_size), fan_in, rng))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        self._rows: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._windows: np.ndarray | None = None
        self._stem = False

    # -- standard convolution (groups == 1) -----------------------------------
    def _forward_dense(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        k = self.kernel_size
        h_out = conv_output_size(h, k, self.stride, self.padding)
        w_out = conv_output_size(w, k, self.stride, self.padding)
        rows = im2col(x, (k, k), self.stride, self.padding)
        self._rows = rows if self.training else None
        w2d = self.weight.data.reshape(self.out_channels, -1)
        # one (N*L, K) @ (K, F) GEMM over every window; the output stays
        # channels-last in memory
        out = np.matmul(rows, w2d.T)
        if self.bias is not None:
            out += self.bias.data
        out = out.reshape(n, h_out, w_out, self.out_channels).transpose(0, 3, 1, 2)
        self._last_output_shape = out.shape
        return out

    def _backward_dense(self, grad: np.ndarray) -> np.ndarray | None:
        n = grad.shape[0]
        grad2d = grad.reshape(n, self.out_channels, -1)
        # (N*L, F), shared by both GEMMs
        grad_rows = grad2d.transpose(0, 2, 1).reshape(-1, self.out_channels)
        rows = self._rows
        # (K, N*L), cast to the GEMM's dtype in the pass that transposes it
        cols_t = rows.T.astype(np.result_type(rows, grad_rows), order="C")
        dw = np.matmul(cols_t, grad_rows)
        self.weight.add_grad(dw.T.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.add_grad(grad2d.sum(axis=(0, 2)))
        if self._stem:
            return None
        w2d = self.weight.data.reshape(self.out_channels, -1)
        dcols = np.matmul(grad_rows, w2d).reshape(n, grad2d.shape[2], -1).transpose(0, 2, 1)
        return col2im(dcols, self._x_shape, (self.kernel_size, self.kernel_size),
                      self.stride, self.padding)

    # -- depthwise convolution (groups == in_channels) --------------------------
    def _forward_depthwise(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        h_out = conv_output_size(h, k, self.stride, self.padding)
        w_out = conv_output_size(w, k, self.stride, self.padding)
        x_pad = np.pad(x, ((0, 0), (0, 0), (self.padding,) * 2, (self.padding,) * 2)) if self.padding else x
        windows = np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(2, 3))
        windows = windows[:, :, ::self.stride, ::self.stride]  # (N, C, H_out, W_out, k, k)
        self._windows = windows if self.training else None
        mult = self.out_channels // self.in_channels
        kernels = self.weight.data.reshape(c, mult, k, k)
        out = np.einsum("nchwij,cmij->ncmhw", windows, kernels, optimize=True)
        out = out.reshape(n, self.out_channels, h_out, w_out)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None, None]
        self._last_output_shape = out.shape
        return out

    def _backward_depthwise(self, grad: np.ndarray) -> np.ndarray | None:
        n, c, h, w = self._x_shape
        k = self.kernel_size
        mult = self.out_channels // self.in_channels
        grad5 = grad.reshape(n, c, mult, grad.shape[2], grad.shape[3])
        dw = np.einsum("nchwij,ncmhw->cmij", self._windows, grad5, optimize=True)
        self.weight.add_grad(dw.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.add_grad(grad.sum(axis=(0, 2, 3)))
        if self._stem:
            return None
        kernels = self.weight.data.reshape(c, mult, k, k)
        # dL/d window = grad * kernel, then scatter-add windows back to the image
        dwin = np.einsum("ncmhw,cmij->nchwij", grad5, kernels, optimize=True)
        h_out, w_out = grad.shape[2], grad.shape[3]
        # (N, C*k*k, L) held channels-last, the layout col2im folds fastest
        dcols = dwin.transpose(0, 2, 3, 1, 4, 5).reshape(n, h_out * w_out, c * k * k)
        return col2im(dcols.transpose(0, 2, 1), self._x_shape, (k, k), self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape if self.training else None
        if self.groups == 1:
            return self._forward_dense(x)
        return self._forward_depthwise(x)

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        if self._x_shape is None:
            raise RuntimeError(_NO_TRAINING_FORWARD)
        try:
            if self.groups == 1:
                return self._backward_dense(grad)
            return self._backward_depthwise(grad)
        finally:
            self._rows = self._windows = self._x_shape = None


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of (N, C, H, W) tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.zeros(1, dtype=np.float32))
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self._buffers["running_mean"] = ((1 - self.momentum) * self._buffers["running_mean"]
                                             + self.momentum * mean).astype(np.float32)
            self._buffers["running_var"] = ((1 - self.momentum) * self._buffers["running_var"]
                                            + self.momentum * var).astype(np.float32)
            self._buffers["num_batches_tracked"] += 1
        else:
            mean = self._buffers["running_mean"]
            var = self._buffers["running_var"]
        std = np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) / std[None, :, None, None]
        self._cache = (x_hat, std) if self.training else None
        return self.weight.data[None, :, None, None] * x_hat + self.bias.data[None, :, None, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(_NO_TRAINING_FORWARD)
        x_hat, std = self._cache
        self._cache = None
        self.weight.add_grad((grad * x_hat).sum(axis=(0, 2, 3)))
        self.bias.add_grad(grad.sum(axis=(0, 2, 3)))
        gamma = self.weight.data[None, :, None, None]
        dx_hat = grad * gamma
        n = grad.shape[0] * grad.shape[2] * grad.shape[3]
        sum_dxhat = dx_hat.sum(axis=(0, 2, 3), keepdims=True)
        sum_dxhat_xhat = (dx_hat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        dx = (dx_hat - sum_dxhat / n - x_hat * sum_dxhat_xhat / n) / std[None, :, None, None]
        return dx


def _where_or_zero(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.where(mask, x, 0.0)`` bit for bit, in ``x``'s memory order, for
    floating ``x``: an AND of ``x``'s bits with all-ones words where ``mask``
    is true, several times faster than ``np.where``'s select."""
    if x.dtype.kind != "f" or x.dtype.itemsize > 8:
        return np.where(mask, x, 0.0)
    out = np.empty_like(x, dtype=f"i{x.dtype.itemsize}")
    np.copyto(out, mask)
    np.negative(out, out=out)
    np.bitwise_and(out, x.view(out.dtype), out=out)
    return out.view(x.dtype)


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self.training else None
        return _where_or_zero(mask, x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError(_NO_TRAINING_FORWARD)
        return _where_or_zero(mask, grad)


class ReLU6(Module):
    """ReLU clipped at 6 (MobileNetV2's activation)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = (x > 0) & (x < 6.0) if self.training else None
        return np.clip(x, 0.0, 6.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError(_NO_TRAINING_FORWARD)
        return np.where(mask, grad, 0.0)


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride); a ragged border is trimmed.

    The output is a copy of the first of the ``k*k`` strided views of the
    input, in the input's memory order, folded with ``np.maximum`` over the
    others in window order (``i``-major, then ``j``).  In training mode
    ``forward`` also records per output the window position of the first
    maximum, in the narrowest unsigned dtype that holds ``k*k - 1`` (one byte
    for ``k <= 16``): a later view takes over only where it is strictly
    greater, and a window holding NaN points at its first NaN, as ``argmax``
    does.  ``backward`` routes each output gradient to that position and zero
    everywhere else, trimmed border included.
    """

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._first: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _views(self, x: np.ndarray) -> list[np.ndarray]:
        """The ``k*k`` strided views of ``x``, one per window position."""
        k = self.kernel_size
        h, w = x.shape[2] // k * k, x.shape[3] // k * k
        return [x[:, :, i:h:k, j:w:k] for i in range(k) for j in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        views = self._views(x)
        out = views[0].copy(order="K")  # in x's memory order, as every view reads
        if not self.training:
            self._first = None
            for view in views[1:]:
                np.maximum(out, view, out=out)
            return out
        first = np.zeros_like(out, dtype=np.min_scalar_type(len(views) - 1))
        for pos, view in enumerate(views[1:], 1):
            np.copyto(first, pos, where=view > out)
            np.maximum(out, view, out=out)
        if (out != out).any():
            # no comparison is true against NaN (the one value unequal to
            # itself): repoint each NaN window, last position first, so its
            # first NaN is written last
            for pos in range(len(views) - 1, -1, -1):
                np.copyto(first, pos, where=views[pos] != views[pos])
        self._first = first
        self._x_shape = x.shape
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        first, self._first = self._first, None
        if first is None:
            raise RuntimeError(_NO_TRAINING_FORWARD)
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        for pos, view in enumerate(self._views(dx)):
            np.copyto(view, grad, where=first == pos)
        return dx


class AvgPool2d(Module):
    """Non-overlapping average pooling (kernel == stride)."""

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._x_shape: tuple[int, ...] | None = None
        self._orig_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        self._orig_shape = x.shape
        n, c, h, w = x.shape
        if h % k or w % k:
            x = x[:, :, : (h // k) * k, : (w // k) * k]
            n, c, h, w = x.shape
        self._x_shape = (n, c, h, w)
        return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        n, c, h, w = self._x_shape
        expanded = np.repeat(np.repeat(grad, k, axis=2), k, axis=3) / (k * k)
        if self._orig_shape != self._x_shape:
            full = np.zeros(self._orig_shape, dtype=grad.dtype)
            full[:, :, :h, :w] = expanded
            return full
        return expanded


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, producing (N, C)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        return np.broadcast_to(grad[:, :, None, None], (n, c, h, w)) / (h * w)


class Flatten(Module):
    """Flatten (N, ...) to (N, features)."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._x_shape)


class Dropout(Module):
    """Inverted dropout (identity in eval mode)."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            return grad
        return grad * mask
