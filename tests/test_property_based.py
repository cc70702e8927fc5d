"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from huffman_reference import any_count
from repro.compressors import (
    BloscLZCodec,
    HuffmanCoder,
    SZ2Compressor,
    SZ3Compressor,
    SZxCompressor,
    ShuffleRLECodec,
)
from repro.compressors.quantizer import LinearQuantizer
from repro.fl import fedavg_aggregate
from repro.utils.serialization import (
    pack_arrays,
    pack_bytes_dict,
    unpack_arrays,
    unpack_bytes_dict,
)

# Reasonable float arrays: bounded magnitude, no NaN/inf, float32 like weights.
float_arrays = hnp.arrays(
    dtype=np.float32,
    shape=st.integers(min_value=1, max_value=600),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                       allow_infinity=False, width=32),
)


@settings(max_examples=40, deadline=None)
@given(data=float_arrays, rel_bound=st.sampled_from([1e-1, 1e-2, 1e-3]))
def test_sz2_error_bound_invariant(data, rel_bound):
    comp = SZ2Compressor(error_bound=rel_bound)
    recon = comp.decompress(comp.compress(data))
    abs_bound = rel_bound * float(data.max() - data.min())
    tolerance = max(abs_bound, 1e-6 * max(abs(float(data[0])), 1.0)) * (1 + 1e-6) + 1e-9
    assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= tolerance


@settings(max_examples=40, deadline=None)
@given(data=float_arrays, rel_bound=st.sampled_from([1e-1, 1e-2, 1e-3]))
def test_sz3_error_bound_invariant(data, rel_bound):
    comp = SZ3Compressor(error_bound=rel_bound)
    recon = comp.decompress(comp.compress(data))
    abs_bound = rel_bound * float(data.max() - data.min())
    tolerance = max(abs_bound, 1e-6 * max(abs(float(data[0])), 1.0)) * (1 + 1e-6) + 1e-9
    assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= tolerance


@settings(max_examples=40, deadline=None)
@given(data=float_arrays, rel_bound=st.sampled_from([1e-1, 1e-2]))
def test_szx_error_bound_invariant(data, rel_bound):
    comp = SZxCompressor(error_bound=rel_bound)
    recon = comp.decompress(comp.compress(data))
    abs_bound = rel_bound * float(data.max() - data.min())
    tolerance = max(abs_bound, 1e-6 * max(abs(float(data[0])), 1.0)) * (1 + 1e-6) + 1e-9
    assert np.max(np.abs(recon.astype(np.float64) - data.astype(np.float64))) <= tolerance


@settings(max_examples=50, deadline=None)
@given(symbols=hnp.arrays(dtype=np.int64, shape=st.integers(0, 2000),
                          elements=st.integers(min_value=0, max_value=5000)))
def test_huffman_roundtrip_identity(symbols):
    coder = HuffmanCoder()
    np.testing.assert_array_equal(coder.decode(coder.encode(symbols), any_count), symbols)


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=4096))
def test_blosclz_roundtrip_identity(data):
    codec = BloscLZCodec()
    assert codec.decompress(codec.compress(data)) == data


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=4096))
def test_shuffle_rle_roundtrip_identity(data):
    codec = ShuffleRLECodec()
    assert codec.decompress(codec.compress(data)) == data


@settings(max_examples=40, deadline=None)
@given(data=float_arrays, bound=st.floats(min_value=1e-6, max_value=1.0,
                                          allow_nan=False, allow_infinity=False))
def test_quantizer_reconstruction_within_bound(data, bound):
    data64 = data.astype(np.float64)
    predictions = np.zeros_like(data64)
    quantizer = LinearQuantizer(radius=1024)
    result = quantizer.quantize(data64, predictions, bound)
    assert np.max(np.abs(result.reconstructed - data64)) <= bound + 1e-12
    recon = quantizer.dequantize(result.codes, result.outliers, predictions, bound)
    np.testing.assert_allclose(recon, result.reconstructed)


@settings(max_examples=40, deadline=None)
@given(data=float_arrays, bound=st.sampled_from([1e-4, 1e-2, 1.0]),
       radius=st.sampled_from([4, 1024]))
def test_dequantize_bit_identical_to_naive_reference(data, bound, radius):
    # the scratch-buffer rewrite of dequantize must match the naive
    # expression-per-temporary form bit for bit, outlier escapes included
    # (a small radius with a tight bound forces plenty of code-0 escapes)
    data64 = data.astype(np.float64)
    predictions = np.roll(data64, 1)
    quantizer = LinearQuantizer(radius=radius)
    result = quantizer.quantize(data64, predictions, bound)
    got = quantizer.dequantize(result.codes, result.outliers, predictions, bound)
    q = result.codes.astype(np.int64) - (radius + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = predictions + 2.0 * bound * q.astype(np.float64)
    unpred = result.codes == 0
    expected[unpred] = result.outliers[: int(unpred.sum())]
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(got, result.reconstructed)


@settings(max_examples=50, deadline=None)
@given(entries=st.dictionaries(st.text(min_size=1, max_size=20), st.binary(max_size=200),
                               max_size=8))
def test_bytes_dict_roundtrip(entries):
    assert unpack_bytes_dict(pack_bytes_dict(entries)) == entries


@settings(max_examples=50, deadline=None)
@given(arrays=st.dictionaries(
    st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12),
    hnp.arrays(dtype=np.float32,
               shape=hnp.array_shapes(max_dims=3, max_side=6),
               elements=st.floats(-100, 100, allow_nan=False, width=32)),
    max_size=5))
def test_array_dict_roundtrip(arrays):
    out = unpack_arrays(pack_arrays(arrays))
    assert set(out) == set(arrays)
    for key in arrays:
        np.testing.assert_array_equal(out[key], np.asarray(arrays[key]))


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
    weights=st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=1, max_size=5),
)
def test_fedavg_average_within_convex_hull(values, weights):
    n = min(len(values), len(weights))
    values, weights = values[:n], weights[:n]
    states = [{"w": np.full(3, v, dtype=np.float32)} for v in values]
    out = fedavg_aggregate(states, weights=weights)
    assert out["w"].min() >= min(values) - 1e-5
    assert out["w"].max() <= max(values) + 1e-5


@settings(max_examples=30, deadline=None)
@given(data=float_arrays)
def test_compression_is_deterministic(data):
    comp = SZ2Compressor(error_bound=1e-2)
    assert comp.compress(data) == comp.compress(data)
