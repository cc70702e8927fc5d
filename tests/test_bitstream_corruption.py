"""Truncated/corrupted bitstreams must fail loudly with ``ValueError``.

Every deserializer in the update path — :func:`unpack_bytes_dict`,
:func:`unpack_arrays`, and :meth:`FedSZCompressor.decompress_state_dict` —
is fed inputs cut at *every* byte boundary plus targeted field corruptions,
and must raise :class:`ValueError` (never ``struct.error`` or ``IndexError``,
and never silently return short data).  Containers are read exactly: trailing
bytes and repeated keys are rejected.  Bodies that declare far more than
their container allows (a Huffman count past the lossy geometry, lossless
expansions past the declared length) must be rejected before they allocate.
Also covers the reserved-name protection: tensors named after the
bitstream's own keys are rejected at compression time.
"""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from container_reference import container_decoder
from huffman_reference import one_tuple_bomb
from repro.compressors.lossless import available_lossless, get_lossless
from repro.compressors.sz2 import SZ2Compressor
from repro.compressors.sz3 import SZ3Compressor
from repro.compressors.szx import SZxCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.core.config import FedSZConfig
from repro.core.pipeline import _FORMAT_VERSION, FedSZCompressor
from repro.utils.serialization import (
    pack_arrays,
    pack_bytes_dict,
    unpack_arrays,
    unpack_bytes_dict,
)


def _assert_valueerror_at_every_cut(payload: bytes, unpack) -> None:
    """Unpacking any strict prefix of ``payload`` must raise ``ValueError``."""
    for cut in range(len(payload)):
        with pytest.raises(ValueError):
            unpack(payload[:cut])


def _peak_of_rejection(decode, match: "str | None" = None) -> int:
    """The traced allocation peak of ``decode()``, which must raise ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            decode()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBytesDictTruncation:
    def test_every_boundary_raises_valueerror(self):
        payload = pack_bytes_dict({"alpha": b"\x01\x02\x03", "b": b"", "gamma": b"x" * 37})
        _assert_valueerror_at_every_cut(payload, unpack_bytes_dict)

    def test_oversized_value_length_rejected(self):
        # corrupt the u64 value-length of the single entry to claim 2**40 bytes
        payload = bytearray(pack_bytes_dict({"k": b"abc"}))
        length_offset = 4 + 4 + 4 + 1  # magic, count, key length, key "k"
        payload[length_offset : length_offset + 8] = struct.pack("<Q", 2 ** 40)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            unpack_bytes_dict(bytes(payload))

    def test_oversized_key_length_rejected(self):
        payload = bytearray(pack_bytes_dict({"k": b"abc"}))
        payload[8:12] = struct.pack("<I", 2 ** 31)
        with pytest.raises(ValueError, match="truncated or corrupt"):
            unpack_bytes_dict(bytes(payload))

    def test_overstated_entry_count_rejected(self):
        payload = bytearray(pack_bytes_dict({"k": b"abc"}))
        payload[4:8] = struct.pack("<I", 7)
        with pytest.raises(ValueError):
            unpack_bytes_dict(bytes(payload))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            unpack_bytes_dict(b"")

    def test_trailing_bytes_rejected(self):
        payload = pack_bytes_dict({"a": b"1", "b": b"22"})
        with pytest.raises(ValueError, match="1 bytes after the last entry"):
            unpack_bytes_dict(payload + b"\x00")

    def test_repeated_key_rejected(self):
        # pack_bytes_dict cannot write this: a dict holds each key once
        payload = b"FSZB" + struct.pack("<I", 2) + b"".join(
            struct.pack("<I", 1) + b"a" + struct.pack("<Q", 2) + value
            for value in (b"11", b"22"))
        with pytest.raises(ValueError, match="'a' appears twice"):
            unpack_bytes_dict(payload)


class TestArraysTruncation:
    def test_every_boundary_raises_valueerror(self):
        payload = pack_arrays({
            "weights": np.arange(11, dtype=np.float32),
            "scalar": np.float64(2.5),
            "empty": np.zeros((2, 0), np.int32),
        })
        _assert_valueerror_at_every_cut(payload, unpack_arrays)

    def test_corrupt_dtype_string_rejected(self):
        payload = pack_arrays({"a": np.arange(4, dtype=np.float32)})
        corrupted = payload.replace(b"<f4", b"!!4")
        with pytest.raises(ValueError):
            unpack_arrays(corrupted)

    def test_length_shape_mismatch_rejected(self):
        # shrink the declared payload length: shape (4,) of float32 needs 16 bytes
        payload = bytearray(pack_arrays({"a": np.arange(4, dtype=np.float32)}))
        length_offset = len(payload) - 16 - 8
        payload[length_offset : length_offset + 8] = struct.pack("<Q", 12)
        with pytest.raises(ValueError, match="corrupt array record"):
            unpack_arrays(bytes(payload))

    def test_absurd_ndim_rejected(self):
        out: list[bytes] = [b"FSZA", struct.pack("<I", 1)]
        out.append(struct.pack("<I", 1) + b"a")
        out.append(struct.pack("<I", 3) + b"<f4")
        out.append(struct.pack("<I", 2 ** 20))  # ndim far past NumPy's limit
        with pytest.raises(ValueError, match="ndim"):
            unpack_arrays(b"".join(out))

    def test_trailing_bytes_rejected(self):
        payload = pack_arrays({"a": np.arange(4, dtype=np.float32)})
        with pytest.raises(ValueError, match="4 bytes after the last entry"):
            unpack_arrays(payload + b"junk")

    def test_repeated_name_rejected(self):
        record = pack_arrays({"a": np.arange(4, dtype=np.float32)})[8:]
        payload = b"FSZA" + struct.pack("<I", 2) + record + record
        with pytest.raises(ValueError, match="'a' appears twice"):
            unpack_arrays(payload)


@pytest.fixture
def fedsz_and_stream():
    """A FedSZ compressor plus a small (few-hundred-byte) valid bitstream."""
    fedsz = FedSZCompressor(FedSZConfig(error_bound=1e-2, threshold=16))
    state = {
        "conv.weight": np.linspace(-1.0, 1.0, 64).astype(np.float32),
        "conv.bias": np.arange(4, dtype=np.float32),
        "bn.running_mean": np.zeros(4, dtype=np.float32),
    }
    return fedsz, fedsz.compress_state_dict(state)


class TestFedSZBitstreamCorruption:
    def test_every_boundary_raises_valueerror(self, fedsz_and_stream):
        fedsz, stream = fedsz_and_stream
        _assert_valueerror_at_every_cut(stream, fedsz.decompress_state_dict)

    def test_missing_manifest_rejected(self, fedsz_and_stream):
        fedsz, _ = fedsz_and_stream
        with pytest.raises(ValueError, match="manifest"):
            fedsz.decompress_state_dict(pack_bytes_dict({"__lossless__": b""}))

    def test_short_manifest_rejected(self, fedsz_and_stream):
        fedsz, _ = fedsz_and_stream
        stream = pack_bytes_dict({"__manifest__": b"\x01\x00"})
        with pytest.raises(ValueError, match="manifest"):
            fedsz.decompress_state_dict(stream)

    def test_wrong_version_rejected(self, fedsz_and_stream):
        fedsz, _ = fedsz_and_stream
        stream = pack_bytes_dict({"__manifest__": struct.pack("<IQ", 99, 0)})
        with pytest.raises(ValueError, match="version"):
            fedsz.decompress_state_dict(stream)

    def test_unexpected_entry_rejected(self, fedsz_and_stream):
        fedsz, _ = fedsz_and_stream
        # valid v4 manifest with an empty plan summary, plus an unknown entry
        manifest = struct.pack("<IQ", _FORMAT_VERSION, 1) + struct.pack("<I", 0)
        stream = pack_bytes_dict({"__manifest__": manifest, "rogue": b"payload"})
        with pytest.raises(ValueError, match="unexpected entry"):
            fedsz.decompress_state_dict(stream)

    def test_entry_count_mismatch_rejected(self, fedsz_and_stream):
        fedsz, stream = fedsz_and_stream
        entries = unpack_bytes_dict(stream)
        # rewrite only the declared tensor count, keeping the plan summary
        entries["__manifest__"] = struct.pack("<IQ", _FORMAT_VERSION, 99) + \
            entries["__manifest__"][struct.calcsize("<IQ"):]
        with pytest.raises(ValueError, match="declares 99"):
            fedsz.decompress_state_dict(pack_bytes_dict(entries))

    def test_manifest_without_plan_rejected(self, fedsz_and_stream):
        # a v3-shaped manifest (version + count only) is truncated in v4 terms
        fedsz, _ = fedsz_and_stream
        stream = pack_bytes_dict({"__manifest__": struct.pack("<IQ", _FORMAT_VERSION, 0)})
        with pytest.raises(ValueError, match="plan"):
            fedsz.decompress_state_dict(stream)

    def test_trailing_bytes_rejected(self, fedsz_and_stream):
        fedsz, stream = fedsz_and_stream
        with pytest.raises(ValueError, match="13 bytes after the last entry"):
            fedsz.decompress_state_dict(stream + b"trailing-junk")

    def test_entry_order_insensitive(self, fedsz_and_stream):
        # the reader finds the manifest by key, wherever it sits
        fedsz, stream = fedsz_and_stream
        entries = unpack_bytes_dict(stream)
        reordered = pack_bytes_dict({k: entries[k] for k in list(entries)[::-1]})
        expected = fedsz.decompress_state_dict(stream)
        got = fedsz.decompress_state_dict(reordered)
        assert list(got) == list(expected)
        for key in expected:
            np.testing.assert_array_equal(got[key], expected[key])

    def test_not_a_bitstream_rejected(self, fedsz_and_stream):
        fedsz, _ = fedsz_and_stream
        with pytest.raises(ValueError):
            fedsz.decompress_state_dict(b"this is not a fedsz bitstream")

    @pytest.mark.parametrize("entry", ["__lossless__", "lossy::conv.weight"])
    def test_inner_payload_corruption_raises_valueerror(self, fedsz_and_stream, entry):
        # keep the outer framing valid but truncate/garble the entry itself:
        # backend failures (zlib.error, struct.error, ...) must surface as
        # ValueError per the documented contract
        fedsz, stream = fedsz_and_stream
        entries = unpack_bytes_dict(stream)
        for corrupted in (entries[entry][: len(entries[entry]) // 2],
                          bytes(len(entries[entry])),
                          entries[entry][::-1]):
            mutated = dict(entries)
            mutated[entry] = corrupted
            with pytest.raises(ValueError):
                fedsz.decompress_state_dict(pack_bytes_dict(mutated))


@pytest.mark.parametrize("name", available_lossless())
def test_lossless_entry_read_exactly(name):
    # the __lossless__ entry is one whole payload of the configured codec:
    # a cut one and one with bytes after its stream (which the stdlib
    # one-shot decoders of bzip2, xz and zlib used to ignore) both raise,
    # with the codec's own message where the codec frames its payload
    fedsz = FedSZCompressor(FedSZConfig(error_bound=1e-2, threshold=16,
                                        lossless_codec=name))
    state = {"conv.weight": np.linspace(-1.0, 1.0, 64).astype(np.float32),
             "conv.bias": np.arange(4, dtype=np.float32),
             "bn.running_mean": np.zeros(4, dtype=np.float32)}
    entries = unpack_bytes_dict(fedsz.compress_state_dict(state))
    body = entries["__lossless__"]
    match = None if name == "identity" else f"{name} payload corrupt"
    for corrupted in (body[: len(body) // 2], body + b"\0\0junk"):
        with pytest.raises(ValueError, match=match):
            fedsz.decompress_state_dict(pack_bytes_dict(dict(entries, __lossless__=corrupted)))


class TestReservedTensorNames:
    @pytest.mark.parametrize("name", ["__manifest__", "__lossless__", "lossy::x",
                                      "lossy::conv.weight"])
    def test_reserved_names_rejected_at_compress_time(self, name):
        fedsz = FedSZCompressor(FedSZConfig(error_bound=1e-2))
        state = {name: np.zeros(8, dtype=np.float32)}
        with pytest.raises(ValueError, match="reserved"):
            fedsz.compress_state_dict(state)

    def test_normal_dunder_like_names_still_roundtrip(self):
        fedsz = FedSZCompressor(FedSZConfig(error_bound=1e-2))
        state = {"__private__": np.arange(6, dtype=np.float32),
                 "lossy_weight": np.arange(6, dtype=np.float32)}
        recon = fedsz.decompress_state_dict(fedsz.compress_state_dict(state))
        assert set(recon) == set(state)


_LOSSY_HEADER = struct.pack("<BBQd", 0, 1, 10, 0.01)  # float32, shape (10,), bound


class TestContainerBoundsHuffmanCount:
    """A body may only embed the Huffman stream its container implies.

    The payloads declare 10 float32 elements and embed a HUF4 stream that
    declares 3 * 2**31 symbols (48 GiB of decoded codes).  The decoder must
    reject them before it allocates.
    """

    @staticmethod
    def _assert_rejected_small(compressor, body: bytes, match: str,
                               reference: "np.ndarray | None" = None) -> None:
        payload = _LOSSY_HEADER + body
        assert _peak_of_rejection(lambda: compressor.decompress(payload, reference),
                                  match) < 1 << 20

    def test_sz2_symbol_count_pinned_by_geometry(self):
        bomb = one_tuple_bomb(3 << 31)
        body = (struct.pack("<IQIQB", 8, 2, 32768, 10, 0)  # hybrid predictor
                + struct.pack("<Q", 1) + b"\x00"         # selectors: 2 mean blocks
                + struct.pack("<Q", 2) + bytes(8)        # one coefficient each
                + struct.pack("<Q", len(bomb) + (3 << 28)) + bomb)
        self._assert_rejected_small(SZ2Compressor(), body,
                                    "6442450944 codes for 2 blocks of 8")

    def test_sz2_zero_predictor_symbol_count_pinned_by_geometry(self):
        bomb = one_tuple_bomb(3 << 31)
        body = (struct.pack("<IQIQB", 8, 2, 32768, 10, 1)  # zero predictor
                + struct.pack("<Q", len(bomb) + (3 << 28)) + bomb)
        self._assert_rejected_small(SZ2Compressor(), body,
                                    "6442450944 codes for 2 blocks of 8")

    def test_sz2_reference_grid_symbol_count_pinned_by_geometry(self):
        bomb = one_tuple_bomb(3 << 31)
        body = (struct.pack("<IQIQB", 8, 2, 32768, 10, 2)  # reference grid
                + struct.pack("<Q", len(bomb) + (3 << 28)) + bomb)
        self._assert_rejected_small(SZ2Compressor(), body,
                                    "6442450944 codes for 2 blocks of 8",
                                    reference=np.zeros(10, np.float32))

    @pytest.mark.parametrize("reference, match", [
        (None, "no reference was supplied"),
        (np.zeros(11, np.float32), "holds 11 float32 values"),
        (np.zeros(10, np.float64), "holds 10 float64 values"),
    ], ids=["missing", "count", "dtype"])
    def test_sz2_reference_checked_before_huffman_bytes(self, reference, match):
        body = struct.pack("<IQIQB", 8, 2, 32768, 10, 2) + one_tuple_bomb(3 << 31)
        self._assert_rejected_small(SZ2Compressor(), body, match, reference)

    def test_sz2_predictor_checked_before_huffman_bytes(self):
        body = struct.pack("<IQIQB", 8, 2, 32768, 10, 7) + one_tuple_bomb(3 << 31)
        self._assert_rejected_small(SZ2Compressor(), body, "unknown predictor 7")

    def test_sz2_geometry_checked_before_huffman_bytes(self):
        body = struct.pack("<IQIQ", 8, 1 << 40, 32768, 10) + one_tuple_bomb(3 << 31)
        self._assert_rejected_small(SZ2Compressor(), body,
                                    "1099511627776 blocks of 8 cannot hold 10")

    def test_sz3_symbol_count_pinned_by_length(self):
        bomb = one_tuple_bomb(3 << 31)
        # 10 values keep 2 anchors (stride 8), so 8 codes are implied
        body = (struct.pack("<QIB", 10, 32768, 0) + struct.pack("<Q", 2) + bytes(8)
                + struct.pack("<Q", len(bomb) + (3 << 28)) + bomb)
        self._assert_rejected_small(SZ3Compressor(), body,
                                    "6442450944 codes for 8 interpolated elements")

    def test_sz3_length_checked_before_huffman_bytes(self):
        body = struct.pack("<QIB", 3 << 31, 32768, 0) + one_tuple_bomb(3 << 31)
        self._assert_rejected_small(SZ3Compressor(), body,
                                    "length 6442450944 does not match the header's 10")


class TestContainerBoundsHuffmanCountInContainer(TestContainerBoundsHuffmanCount):
    """The same bodies as the one lossy tensor of a FedSZ container."""

    @staticmethod
    def _assert_rejected_small(compressor, body: bytes, match: str,
                               reference: "np.ndarray | None" = None) -> None:
        decode = container_decoder(compressor.name, _LOSSY_HEADER + body, reference)
        assert _peak_of_rejection(decode, match) < 1 << 20


_LOSSY = [SZ2Compressor, SZ3Compressor, SZxCompressor, ZFPCompressor]


@pytest.mark.parametrize("cls", _LOSSY)
def test_bit_flips_raise_or_keep_the_declared_shape(cls):
    """Each 17th byte of a 400-value payload flipped in turn: decode raises
    ``ValueError`` or returns the shape the container declares."""
    compressor = cls(error_bound=1e-2)
    data = np.cumsum(np.random.default_rng(8).normal(0, 0.1, 400))
    payload = compressor.compress(data)
    for pos in range(0, len(payload), 17):
        corrupt = bytearray(payload)
        corrupt[pos] ^= 0x20
        try:
            decoded = compressor.decompress(bytes(corrupt))
        except ValueError:
            continue
        assert decoded.shape == data.shape, f"flip at byte {pos}"


@pytest.mark.parametrize("codec", ["sz2", "sz3", "szx", "zfp"])
def test_container_bit_flips_raise_or_keep_every_shape(codec):
    """One bit of every byte of a whole container flipped in turn: decode
    raises ``ValueError`` or returns every tensor under its name with its
    shape."""
    fedsz = FedSZCompressor(FedSZConfig(error_bound=1e-2, threshold=16,
                                        lossy_compressor=codec))
    state = {"conv.weight": np.linspace(-1.0, 1.0, 64).astype(np.float32),
             "fc.weight": np.cumsum(np.random.default_rng(8).normal(0, 0.1, 400))
             .astype(np.float32).reshape(20, 20),
             "conv.bias": np.arange(4, dtype=np.float32)}
    stream = fedsz.compress_state_dict(state)
    for pos in range(len(stream)):
        corrupt = bytearray(stream)
        corrupt[pos] ^= 1 << (pos % 8)
        try:
            # a flipped exponent may decode out of float32's range
            with np.errstate(over="ignore", invalid="ignore"):
                decoded = fedsz.decompress_state_dict(bytes(corrupt))
        except ValueError:
            continue
        assert set(decoded) == set(state), f"flip at byte {pos}"
        for name, value in state.items():
            assert decoded[name].shape == value.shape, f"flip at byte {pos}"


@pytest.fixture(scope="module")
def deflated_zeros() -> bytes:
    """zlib level 1 of 300 MiB of zeros, deflated in 1 MiB pieces (~1.3 MB)."""
    deflate = zlib.compressobj(1)
    piece = bytes(1 << 20)
    return b"".join([*(deflate.compress(piece) for _ in range(300)), deflate.flush()])


@pytest.mark.parametrize("cls", _LOSSY)
def test_deflate_bomb_body_rejected_small(cls, deflated_zeros):
    """A 10-element float32 header over 300 MiB of deflated zeros.

    Such a body used to be inflated whole before any SZ field was read (a
    603 MiB traced peak); no lossy body carries a lossless pass now, so its
    bytes are read as the body's own fields and fail the geometry checks at
    once.
    """
    payload = _LOSSY_HEADER + deflated_zeros
    assert _peak_of_rejection(lambda: cls(error_bound=1e-2).decompress(payload)) < 4 << 20


@pytest.mark.parametrize("name", ["blosclz", "shuffle-rle"])
@pytest.mark.parametrize("layer", ["codec", "container"])
def test_lossless_bomb_rejected_small(name, layer, deflated_zeros):
    """A lossless body whose header understates what it expands to.

    The ``__lossless__`` entry of every container goes through the configured
    codec (blosclz by default).  The blosclz bomb declares 40 bytes over 300
    MiB of deflated zeros; it used to inflate whole before its length was
    compared with the header's (a ~603 MiB traced peak).  The shuffle-rle
    bomb is 200,000 runs of 255 zero bytes (0.40 MB) declaring 10 bytes; it
    used to expand all ~51 MB of runs first (a 98.8 MiB peak, 99.2 MiB
    through the container).  The declared length now caps both.
    """
    if name == "blosclz":
        bomb = struct.pack("<BQ", 4, 40) + deflated_zeros
    else:
        bomb = struct.pack("<BQ", 4, 10) + bytes([0, 255]) * 200_000
    compressor = FedSZCompressor(FedSZConfig(lossless_codec=name))
    state = {"conv.weight": np.linspace(-1.0, 1.0, 2048).astype(np.float32),
             "conv.bias": np.arange(8, dtype=np.float32)}
    entries = unpack_bytes_dict(compressor.compress_state_dict(state))
    assert "__lossless__" in entries
    entries["__lossless__"] = bomb
    container = pack_bytes_dict(entries)
    decode = {"codec": lambda: get_lossless(name).decompress(bomb),
              "container": lambda: compressor.decompress_state_dict(container)}[layer]
    assert _peak_of_rejection(decode, f"{name} payload corrupt") < 4 << 20
