"""Byte-identity oracle for the tiled SZ2 codec body.

:func:`reference_body_parts` and :func:`reference_reconstruct` are the
whole-array SZ2 front end and reconstruction the production
:class:`~repro.compressors.sz2.SZ2Compressor` used before it walked each
tensor in cache-sized tiles of blocks: pad the tensor to whole blocks, fit
both block predictors over every block at once, materialise both full
prediction arrays, pick per block, and quantize (or dequantize) the whole
tensor in one call.  They are memory-hungry but obviously right, so the
property tests hold the tiled kernels to their bytes and values bit for bit.
The three block-predictor helpers below live here only for that purpose.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.predictors import block_pad
from repro.compressors.quantizer import LinearQuantizer


def block_mean_predictor(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict every element of a block by the block mean.

    Returns ``(predictions, coefficients)`` where coefficients has shape
    ``(n_blocks, 1)`` holding the means.
    """
    means = blocks.mean(axis=1, keepdims=True)
    predictions = np.broadcast_to(means, blocks.shape)
    return predictions, means


def block_regression_predictor(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fit ``y = a + b * i`` per block (least squares on the element index).

    Returns ``(predictions, coefficients)`` with coefficients of shape
    ``(n_blocks, 2)`` storing ``(a, b)`` per block.
    """
    n_blocks, block_size = blocks.shape
    idx = np.arange(block_size, dtype=np.float64)
    idx_mean = idx.mean()
    idx_var = float(((idx - idx_mean) ** 2).sum())
    y_mean = blocks.mean(axis=1)
    if idx_var == 0.0:
        slope = np.zeros(n_blocks)
    else:
        slope = ((blocks - y_mean[:, None]) * (idx - idx_mean)[None, :]).sum(axis=1) / idx_var
    intercept = y_mean - slope * idx_mean
    predictions = intercept[:, None] + slope[:, None] * idx[None, :]
    coefficients = np.stack([intercept, slope], axis=1)
    return predictions, coefficients


def predictions_from_regression(coefficients: np.ndarray, block_size: int) -> np.ndarray:
    """Rebuild regression predictions from stored ``(a, b)`` coefficients."""
    idx = np.arange(block_size, dtype=np.float64)
    return coefficients[:, 0:1] + coefficients[:, 1:2] * idx[None, :]


def reference_body_parts(compressor, data: np.ndarray, abs_bound: float
                         ) -> "tuple[list[bytes], np.ndarray | None, list[bytes]]":
    """The ``(prefix, codes, suffix)`` split ``compressor._body_parts`` must return."""
    if data.size == 0:
        return [struct.pack("<IQI", compressor.block_size, 0, compressor.quantizer.radius)], None, []

    blocks, original_len = block_pad(data, compressor.block_size)
    n_blocks = blocks.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean_pred, mean_coef = block_mean_predictor(blocks)
        reg_pred, reg_coef = block_regression_predictor(blocks)
        mean_coef32 = mean_coef.astype(np.float32)
        reg_coef32 = reg_coef.astype(np.float32)
        mean_pred = np.broadcast_to(mean_coef32.astype(np.float64), blocks.shape)
        reg_pred = predictions_from_regression(reg_coef32.astype(np.float64), compressor.block_size)
        mean_sse = ((blocks - mean_pred) ** 2).sum(axis=1)
        reg_sse = ((blocks - reg_pred) ** 2).sum(axis=1)
        use_regression = reg_sse < mean_sse

    predictions = np.where(use_regression[:, None], reg_pred, mean_pred)
    quant = compressor.quantizer.quantize(blocks.ravel(), predictions.ravel(), abs_bound)

    coef_chunks = [reg_coef32[i] if use_regression[i] else mean_coef32[i]
                   for i in range(n_blocks)]
    coefficients = np.concatenate(coef_chunks).astype(np.float32)
    selector_bits = np.packbits(use_regression.astype(np.uint8))

    prefix = [struct.pack("<IQI", compressor.block_size, n_blocks, compressor.quantizer.radius),
              struct.pack("<Q", original_len),
              struct.pack("<Q", selector_bits.size) + selector_bits.tobytes(),
              struct.pack("<Q", coefficients.size) + coefficients.tobytes()]
    suffix = [LinearQuantizer.pack_outliers(quant.outliers)]
    return prefix, quant.codes, suffix


def reference_compress(compressor, data: np.ndarray) -> bytes:
    """The payload ``compressor.compress(data)`` must produce."""
    header, flat, abs_bound = compressor._encode_prelude(data)
    prefix, codes, suffix = reference_body_parts(compressor, flat, abs_bound)
    body = b"".join(prefix)
    if codes is not None:
        huff = compressor.huffman.encode(codes)
        body += struct.pack("<Q", len(huff)) + huff
    return header + compressor.lossless.compress(body + b"".join(suffix))


def reference_reconstruct(compressor, payload: bytes) -> np.ndarray:
    """The array ``compressor.decompress(payload)`` must return."""
    dtype, shape, count, abs_bound, offset = compressor._parse_container_header(payload)
    body = compressor.lossless.decompress(payload[offset:])
    block_size, n_blocks, radius = struct.unpack_from("<IQI", body, 0)
    offset = 16
    if n_blocks == 0:
        return np.zeros(count, dtype=np.float64).astype(dtype).reshape(shape)
    (original_len,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    (sel_len,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    selector_bits = np.frombuffer(body, dtype=np.uint8, count=sel_len, offset=offset)
    offset += sel_len
    use_regression = np.unpackbits(selector_bits)[:n_blocks].astype(bool)
    (coef_count,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    coefficients = np.frombuffer(body, dtype=np.float32, count=coef_count, offset=offset)
    offset += 4 * coef_count
    (huff_len,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    codes = compressor.huffman.decode(body[offset : offset + huff_len])
    offset += huff_len
    outliers, offset = LinearQuantizer.unpack_outliers(body, offset)

    predictions = np.empty((n_blocks, block_size), dtype=np.float64)
    coef_offsets = np.zeros(n_blocks, dtype=np.int64)
    sizes = np.where(use_regression, 2, 1)
    coef_offsets[1:] = np.cumsum(sizes)[:-1]
    mean_blocks = np.flatnonzero(~use_regression)
    if mean_blocks.size:
        means = coefficients[coef_offsets[mean_blocks]].astype(np.float64)
        predictions[mean_blocks] = means[:, None]
    reg_blocks = np.flatnonzero(use_regression)
    if reg_blocks.size:
        intercepts = coefficients[coef_offsets[reg_blocks]].astype(np.float64)
        slopes = coefficients[coef_offsets[reg_blocks] + 1].astype(np.float64)
        idx = np.arange(block_size, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            predictions[reg_blocks] = intercepts[:, None] + slopes[:, None] * idx[None, :]

    values = LinearQuantizer(radius).dequantize(codes, outliers, predictions.ravel(), abs_bound)
    with np.errstate(over="ignore"):
        return values[:original_len].astype(dtype).reshape(shape)
