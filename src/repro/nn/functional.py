"""Vectorized array operations backing the layer implementations.

The convolution layers use the classic im2col/col2im formulation so both the
forward and backward passes reduce to dense matrix products, which keeps the
CPU-only training loops inside NumPy's BLAS.
"""

from __future__ import annotations

import numpy as np

__all__ = ["im2col", "col2im", "conv_output_size", "softmax", "log_softmax", "one_hot"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(f"non-positive conv output size for input={size}, kernel={kernel}, "
                         f"stride={stride}, padding={padding}")
    return out


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into columns (N, C*kh*kw, L).

    ``L`` is the number of sliding-window positions ``H_out * W_out``.
    """
    kh, kw = kernel
    n, c, h, w = x.shape
    h_out = conv_output_size(h, kh, stride, padding)
    w_out = conv_output_size(w, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, H_out, W_out, kh, kw)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, h_out * w_out)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int], kernel: tuple[int, int],
           stride: int, padding: int) -> np.ndarray:
    """Fold columns (N, C*kh*kw, L) back into an (N, C, H, W) image.

    Every image position sums its overlapping contributions in kernel order
    (``i``-major, then ``j``).  The sum runs in a channels-last buffer, which
    reads columns held channels-last in memory (the ``(N*L, C*kh*kw)`` rows
    of a GEMM) a short stride apart; the result is C-contiguous.
    """
    kh, kw = kernel
    n, c, h, w = x_shape
    h_out = conv_output_size(h, kh, stride, padding)
    w_out = conv_output_size(w, kw, stride, padding)
    x_padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, h_out, w_out).transpose(0, 4, 5, 1, 2, 3)
    for i in range(kh):
        i_end = i + stride * h_out
        for j in range(kw):
            j_end = j + stride * w_out
            x_padded[:, i:i_end:stride, j:j_end:stride] += cols[..., i, j]
    x = x_padded[:, padding:padding + h, padding:padding + w]
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels into float32 rows."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    out = np.zeros((labels.size, num_classes), dtype=np.float32)
    out[np.arange(labels.size), labels] = 1.0
    return out
