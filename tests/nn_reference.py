"""Oracles for the nn substrate's training and evaluation paths.

Each is the code a faster layer in :mod:`repro.nn.layers` replaced, kept
verbatim:

* :class:`MaxPool2d`, the argmax pooling: a transposed block copy, ``max``
  and ``argmax`` over each window, and a ``put_along_axis`` scatter in
  backward;
* :class:`Conv2d`, the dense convolution whose im2col products ran through
  ``np.einsum(..., optimize=True)``, with the channels-first
  :func:`col2im` it folded its input gradient with (its depthwise path is
  the layer's own);
* :class:`ReLU`, selecting with ``np.where``.

:func:`as_oracle` turns a model into the oracle its unchanged twin is held
to bit for bit: every such layer swapped for its oracle, and a stem layer
that returns dL/dx like every other layer.  :func:`held_arrays` lists the
arrays a module keeps beyond its parameters and buffers, which an
evaluation forward must leave empty.
"""

from __future__ import annotations

import numpy as np

from repro.nn import layers
from repro.nn.functional import conv_output_size, im2col
from repro.nn.module import Module, Sequential


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride)."""

    def __init__(self, kernel_size: int = 2) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None
        self._orig_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        self._orig_shape = x.shape
        n, c, h, w = x.shape
        if h % k or w % k:
            # trim a ragged border (same behaviour as floor-mode pooling)
            x = x[:, :, : (h // k) * k, : (w // k) * k]
            n, c, h, w = x.shape
        self._x_shape = (n, c, h, w)
        blocks = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
        blocks = blocks.reshape(n, c, h // k, w // k, k * k)
        self._argmax = blocks.argmax(axis=-1)
        return blocks.max(axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        n, c, h, w = self._x_shape
        out = np.zeros((n, c, h // k, w // k, k * k), dtype=grad.dtype)
        idx = self._argmax
        np.put_along_axis(out, idx[..., None], grad[..., None], axis=-1)
        out = out.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5)
        out = out.reshape(n, c, h, w)
        if self._orig_shape != self._x_shape:
            full = np.zeros(self._orig_shape, dtype=grad.dtype)
            full[:, :, :h, :w] = out
            return full
        return out


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int], kernel: tuple[int, int],
           stride: int, padding: int) -> np.ndarray:
    """Fold columns back into an image, summing overlapping contributions."""
    kh, kw = kernel
    n, c, h, w = x_shape
    h_out = conv_output_size(h, kh, stride, padding)
    w_out = conv_output_size(w, kw, stride, padding)
    h_pad, w_pad = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, h_pad, w_pad), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, h_out, w_out)
    for i in range(kh):
        i_end = i + stride * h_out
        for j in range(kw):
            j_end = j + stride * w_out
            x_padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if padding:
        return x_padded[:, :, padding:padding + h, padding:padding + w]
    return x_padded


class Conv2d(layers.Conv2d):
    """``Conv2d`` whose dense products are ``np.einsum(..., optimize=True)``."""

    def _forward_dense(self, x: np.ndarray) -> np.ndarray:
        n, _, h, w = x.shape
        k = self.kernel_size
        h_out = conv_output_size(h, k, self.stride, self.padding)
        w_out = conv_output_size(w, k, self.stride, self.padding)
        cols = im2col(x, (k, k), self.stride, self.padding)
        self._cols = cols if self.training else None
        w2d = self.weight.data.reshape(self.out_channels, -1)
        out = np.einsum("fk,nkl->nfl", w2d, cols, optimize=True)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        out = out.reshape(n, self.out_channels, h_out, w_out)
        self._last_output_shape = out.shape
        return out

    def _backward_dense(self, grad: np.ndarray) -> np.ndarray | None:
        n = grad.shape[0]
        grad2d = grad.reshape(n, self.out_channels, -1)
        w2d = self.weight.data.reshape(self.out_channels, -1)
        dw = np.einsum("nfl,nkl->fk", grad2d, self._cols, optimize=True)
        self.weight.add_grad(dw.reshape(self.weight.data.shape))
        if self.bias is not None:
            self.bias.add_grad(grad2d.sum(axis=(0, 2)))
        if self._stem:
            return None
        dcols = np.einsum("fk,nfl->nkl", w2d, grad2d, optimize=True)
        return col2im(dcols, self._x_shape, (self.kernel_size, self.kernel_size),
                      self.stride, self.padding)


class ReLU(layers.ReLU):
    """``ReLU`` selecting with ``np.where``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask if self.training else None
        return np.where(mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError("backward called without a training-mode forward")
        return np.where(mask, grad, 0.0)


def as_oracle(model: Module) -> Module:
    """Make ``model`` the oracle, in place: reference pooling, dense
    convolutions and ReLUs, and no stem mark."""
    for module in model.modules():
        if isinstance(module, Sequential):
            for idx, layer in enumerate(module.layers):
                if isinstance(layer, layers.MaxPool2d):
                    module.layers[idx] = module._modules[str(idx)] = MaxPool2d(layer.kernel_size)
        # same parameters and state, the replaced arithmetic
        if type(module) is layers.Conv2d and module.groups == 1:
            module.__class__ = Conv2d
        elif type(module) is layers.ReLU:
            module.__class__ = ReLU
        if getattr(module, "_stem", False):
            module._stem = False
    kinds = [type(m) for m in model.modules()]
    assert layers.MaxPool2d not in kinds and layers.ReLU not in kinds
    assert not any(type(m) is layers.Conv2d and m.groups == 1 for m in model.modules())
    return model


def held_arrays(module: Module) -> list[str]:
    """Names of the arrays ``module`` holds outside its parameters and buffers."""
    held = []
    for name, value in vars(module).items():
        if name in ("_parameters", "_buffers", "_modules"):
            continue
        values = value if isinstance(value, (tuple, list)) else (value,)
        if any(isinstance(v, np.ndarray) for v in values):
            held.append(name)
    return held
