"""Oracles for the nn substrate's training and evaluation paths.

:class:`MaxPool2d` is the argmax pooling the pairwise pooling in
:mod:`repro.nn.layers` replaced, kept verbatim: a transposed block copy,
``max`` and ``argmax`` over each window, and a ``put_along_axis`` scatter
in backward.  :func:`as_oracle` turns a model into the oracle its unchanged
twin is held to bit for bit: every max-pool swapped for this one, and a stem
layer that returns dL/dx like every other layer.  :func:`held_arrays` lists
the arrays a module keeps beyond its parameters and buffers, which an
evaluation forward must leave empty.
"""

from __future__ import annotations

import numpy as np

from repro.nn import layers
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


def as_oracle(model: Module) -> Module:
    """Make ``model`` the oracle, in place: reference pooling, and no stem mark."""
    for module in model.modules():
        if isinstance(module, Sequential):
            for idx, layer in enumerate(module.layers):
                if isinstance(layer, layers.MaxPool2d):
                    module.layers[idx] = module._modules[str(idx)] = MaxPool2d(layer.kernel_size)
        if getattr(module, "_stem", False):
            module._stem = False
    assert not any(isinstance(m, layers.MaxPool2d) for m in model.modules())
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
