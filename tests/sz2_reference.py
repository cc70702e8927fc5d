"""Byte-identity oracle for the tiled SZ2 codec body.

:func:`reference_body_parts` and :func:`reference_reconstruct` are the
whole-array SZ2 front end and reconstruction, in every predictor mode of the
body.  The hybrid is what the production
:class:`~repro.compressors.sz2.SZ2Compressor` ran before it walked each
tensor in cache-sized tiles of blocks: pad the tensor to whole blocks, fit
both block predictors over every block at once, materialise both full
prediction arrays, pick per block, and quantize (or dequantize) the whole
tensor in one call.  The zero mode quantizes the padded tensor against an
explicit zeros array, and the reference grid subtracts the padded
reference's zero-grid indices from those codes.  They are memory-hungry but obviously right, so the
property tests hold the tiled kernels to their bytes and values bit for bit.
The predictor choice is the encoder's own business: the oracle takes the
mode as an argument, and its hybrid bytes differ from the pre-v6 body only
by the predictor field.  The three block-predictor helpers below live here
only for this purpose.
"""

from __future__ import annotations

import struct

import numpy as np

from huffman_reference import any_count
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


HYBRID, ZERO, REFERENCE = 0, 1, 2  # the body's predictor field


def reference_grid_index(quantizer: LinearQuantizer, reference: np.ndarray,
                         block_size: int, abs_bound: float) -> np.ndarray:
    """The padded reference's zero-grid index per value, 0 where the zero
    grid would store the reference value verbatim."""
    blocks, _ = block_pad(reference, block_size)
    codes = quantizer.quantize(blocks.ravel(), np.zeros(blocks.size), abs_bound).codes
    return np.where(codes == 0, 0, codes - (quantizer.radius + 1))


def reference_body_parts(compressor, data: np.ndarray, abs_bound: float, predictor: int,
                         reference: "np.ndarray | None" = None
                         ) -> "tuple[list[bytes], np.ndarray | None, list[bytes]]":
    """The ``(prefix, codes, suffix)`` split ``compressor._body_parts`` must
    return when it picks ``predictor`` (ignored for an empty tensor);
    ``reference`` is the reference grid's array."""
    if data.size == 0:
        return [struct.pack("<IQI", compressor.block_size, 0, compressor.quantizer.radius)], None, []

    blocks, original_len = block_pad(data, compressor.block_size)
    n_blocks = blocks.shape[0]
    head = [struct.pack("<IQI", compressor.block_size, n_blocks, compressor.quantizer.radius),
            struct.pack("<QB", original_len, predictor)]
    if predictor == ZERO:
        quant = compressor.quantizer.quantize(blocks.ravel(), np.zeros(blocks.size), abs_bound)
        return head, quant.codes, [LinearQuantizer.pack_outliers(quant.outliers)]
    if predictor == REFERENCE:
        radius = compressor.quantizer.radius
        quant = compressor.quantizer.quantize(blocks.ravel(), np.zeros(blocks.size), abs_bound)
        d = quant.codes - (radius + 1) - reference_grid_index(
            compressor.quantizer, reference, compressor.block_size, abs_bound)
        escape = (quant.codes == 0) | (np.abs(d) > radius)
        codes = np.where(escape, 0, d + radius + 1)
        return head, codes, [LinearQuantizer.pack_outliers(quant.reconstructed[escape])]

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

    prefix = head + [struct.pack("<Q", selector_bits.size) + selector_bits.tobytes(),
                     struct.pack("<Q", coefficients.size) + coefficients.tobytes()]
    suffix = [LinearQuantizer.pack_outliers(quant.outliers)]
    return prefix, quant.codes, suffix


def reference_compress(compressor, data: np.ndarray, predictor: int,
                       reference: "np.ndarray | None" = None) -> bytes:
    """The payload ``compressor.compress(data, reference)`` must produce when
    it picks ``predictor``."""
    header, flat, abs_bound = compressor._encode_prelude(data)
    prefix, codes, suffix = reference_body_parts(compressor, flat, abs_bound, predictor,
                                                 reference)
    body = b"".join(prefix)
    if codes is not None:
        huff = compressor.huffman.encode(codes)
        body += struct.pack("<Q", len(huff)) + huff
    return header + body + b"".join(suffix)


def reference_reconstruct(compressor, payload: bytes,
                          reference: "np.ndarray | None" = None) -> np.ndarray:
    """The array ``compressor.decompress(payload, reference)`` must return."""
    dtype, shape, count, abs_bound, offset = compressor._parse_container_header(payload)
    body = payload[offset:]
    block_size, n_blocks, radius = struct.unpack_from("<IQI", body, 0)
    offset = 16
    if n_blocks == 0:
        return np.zeros(count, dtype=np.float64).astype(dtype).reshape(shape)
    original_len, predictor = struct.unpack_from("<QB", body, offset)
    offset += 9
    if predictor == HYBRID:
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
    codes = compressor.huffman.decode(body[offset : offset + huff_len], any_count)
    offset += huff_len
    outliers, offset = LinearQuantizer.unpack_outliers(body, offset)
    if predictor == REFERENCE:
        index = reference_grid_index(LinearQuantizer(radius), reference, block_size,
                                     abs_bound)
        codes = np.where(codes == 0, 0, codes + index)

    predictions = np.zeros((n_blocks, block_size), dtype=np.float64)
    if predictor == HYBRID:
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
