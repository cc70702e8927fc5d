"""A FedSZ container decodes the Huffman streams of all its lossy entries as
one batch.

* Decoded states are the same, bit for bit, as before the batch: pinned
  sha256 digests of the payloads and of the decoded states of SZ2 (with and
  without a reference), SZ3 and SZx containers, at ``pipeline_workers`` 1
  (the calling thread) to 4.  ZFP containers and float64 states of every
  codec are pinned too, from before the encoder read tensors in their own
  dtype.
* A corrupt stream in one entry raises ``ValueError`` that names the entry.
* The entries reach their codecs as views of the bitstream: a 1.3 MB lossy
  entry of deflated zeros is rejected through the container with a traced
  peak under 1.5 MiB (it was 3.93 MiB when the container copied each entry
  three times).
"""

from __future__ import annotations

import hashlib
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from container_reference import container_decoder
from repro.core import FedSZCompressor, FedSZConfig
from repro.utils.serialization import pack_bytes_dict, unpack_bytes_dict


def _noise(n: int, salt: int) -> np.ndarray:
    """Values in [-0.5, 0.5) from a multiplicative hash: no RNG stream, so
    the pinned digests below do not depend on NumPy's generators."""
    x = (np.arange(n, dtype=np.uint64) + np.uint64(salt)) * np.uint64(2654435761) \
        % np.uint64(1 << 32)
    return x.astype(np.float64) / float(1 << 32) - 0.5


def _state(dtype=np.float32) -> "dict[str, np.ndarray]":
    # every stream is under 256 chunks (fc.weight's 103), so all share one walk
    conv = _noise(64 * 3 * 5 * 5, 1) * 0.1 * np.abs(_noise(64 * 3 * 5 * 5, 2)) ** 2
    return {"conv.weight": conv.reshape(64, 3, 5, 5).astype(dtype),
            "fc.weight": (_noise(300 * 700, 3) ** 3 * 0.2).reshape(300, 700).astype(dtype),
            "small.weight": np.cumsum(_noise(2000, 4) * 0.1).astype(dtype),
            "fc.bias": (_noise(300, 5) * 0.01).astype(dtype)}


def _digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name, value in arrays.items():
        h.update(name.encode())
        h.update(value.dtype.str.encode())
        h.update(repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


#: per codec (a float32 state, or ``codec/float64``): sha256 of the plain
#: payload followed by the payload coded against the reference, then the
#: digests of their decoded states (measured before the container decoded
#: its streams as one batch; ZFP and the float64 states before the encoder
#: read tensors in their own dtype)
_PINNED = {
    "sz2": ("ff6580e6bdd565897ad69ba7977d390b14bc9dbf339adfe932ff37429473c469",
            "5e9653ae0879e53045dad76152e6978d7cb899490ca18a149d499db7c5df9140",
            "5e9653ae0879e53045dad76152e6978d7cb899490ca18a149d499db7c5df9140"),
    "sz3": ("eacbcdbdbaea7ce3acca6fb3c11db5ae36cfeb6c66f62733c42e9844bc871040",
            "cbb8d5a55a72a568335c044b49ca75e617ff15c402ac213fc122ae41651a52ef",
            "cbb8d5a55a72a568335c044b49ca75e617ff15c402ac213fc122ae41651a52ef"),
    "szx": ("34e287ee03bbf906787a3f4ebebe4d1f124bf7f4b1f31acf52114d32fab2392d",
            "f509637cb1263d1ee8fee4dd353e230252c3f6a51fa024987e2469cb9aa92429",
            "f509637cb1263d1ee8fee4dd353e230252c3f6a51fa024987e2469cb9aa92429"),
    "zfp": ("bf3bbb71dc7f94cc6eb1698376f8135e46a9ae2f5a6d6b4b3a810b44067a8784",
            "344fc7afc5e5c6cecca43ccdd8ad34ac2b0ae748650d624c2548ff52944315dd",
            "344fc7afc5e5c6cecca43ccdd8ad34ac2b0ae748650d624c2548ff52944315dd"),
    "sz2/float64": ("5e6bcab6ee0725b0f0bcc1283bf8c2e648da13dd95656c3fa3ec0d263417529b",
                    "52f23fe956431256817447ea660ec8930bfb4f694439c3938fd873f8e7cf4b79",
                    "52f23fe956431256817447ea660ec8930bfb4f694439c3938fd873f8e7cf4b79"),
    "sz3/float64": ("71ca6625c9ac21099ce39b65f77fd78bcb1d6614fb18dd3c43e698129796197c",
                    "1c6fa1af0d0fda414be3a7ebfa42c627de1c8f9a98144ed88459d92f553e96fd",
                    "1c6fa1af0d0fda414be3a7ebfa42c627de1c8f9a98144ed88459d92f553e96fd"),
    "szx/float64": ("1dcb250127308b9fe3820a9fea679c59b5c5d83ead23e6711bbe7e44baaebc59",
                    "f8189919f6f9c32274bf0317075704b7bb0421aad766f692a23f32df3fc05fac",
                    "f8189919f6f9c32274bf0317075704b7bb0421aad766f692a23f32df3fc05fac"),
    "zfp/float64": ("7bb440a9bebc9d9c141cfe270c60ddaf2b05f286356d486b524c54fd3e61dec9",
                    "5831eba2d9771ae841a9ccfb93f579a2f035a92be9d16a929ff768e63a734728",
                    "5831eba2d9771ae841a9ccfb93f579a2f035a92be9d16a929ff768e63a734728"),
}


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("codec", sorted(_PINNED))
def test_decoded_states_are_pinned(codec, workers):
    name, _, dtype = codec.partition("/")
    state = _state(np.dtype(dtype or "float32"))
    reference = {key: value + value.dtype.type(0.001) for key, value in state.items()}
    fedsz = FedSZCompressor(FedSZConfig(lossy_compressor=name,
                                        pipeline_workers=workers, threshold=128))
    plain = fedsz.compress_state_dict(state)
    coded, _ = fedsz.compress_with_report(state, reference)
    payloads, decoded, decoded_against = _PINNED[codec]
    assert hashlib.sha256(plain + coded).hexdigest() == payloads
    assert _digest(fedsz.decompress_state_dict(plain)) == decoded
    assert _digest(fedsz.decompress_state_dict(coded, reference)) == decoded_against


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("codec", ["sz2", "sz3"])
def test_corrupt_stream_names_its_entry(codec, workers):
    fedsz = FedSZCompressor(FedSZConfig(lossy_compressor=codec,
                                        pipeline_workers=workers, threshold=128))
    entries = unpack_bytes_dict(fedsz.compress_state_dict(_state()))
    entry = "lossy::small.weight"
    payload = entries[entry]
    at = payload.index(b"HUF4")
    # a flipped CRC byte: the entry's fields before the stream stay intact
    entries[entry] = payload[:at + 4] + bytes([payload[at + 4] ^ 0xFF]) + payload[at + 5:]
    with pytest.raises(ValueError, match=f"entry '{entry}' failed to decode .*CRC-32"):
        fedsz.decompress_state_dict(pack_bytes_dict(entries))


def test_count_check_failure_names_its_entry():
    # the stream declares one code more than the body's geometry implies
    fedsz = FedSZCompressor(FedSZConfig(threshold=128))
    entries = unpack_bytes_dict(fedsz.compress_state_dict(_state()))
    entry = "lossy::conv.weight"
    payload = entries[entry]
    at = payload.index(b"HUF4")
    (huff_len,) = struct.unpack_from("<Q", payload, at - 8)
    stream = bytearray(payload[at:at + huff_len])
    count_at = 8 + 9  # magic, CRC, lo, W and k precede the count
    (count,) = struct.unpack_from("<Q", stream, count_at)
    struct.pack_into("<Q", stream, count_at, count + 1)
    struct.pack_into("<I", stream, 4, zlib.crc32(stream[8:]))
    entries[entry] = payload[:at] + bytes(stream) + payload[at + huff_len:]
    with pytest.raises(ValueError, match=f"entry '{entry}' failed to decode .* codes for"):
        fedsz.decompress_state_dict(pack_bytes_dict(entries))


@pytest.fixture(scope="module")
def deflated_zeros() -> bytes:
    """zlib level 1 of 300 MiB of zeros, deflated in 1 MiB pieces (~1.3 MB)."""
    deflate = zlib.compressobj(1)
    piece = bytes(1 << 20)
    return b"".join([*(deflate.compress(piece) for _ in range(300)), deflate.flush()])


@pytest.mark.parametrize("codec", ["sz2", "sz3", "szx", "zfp"])
def test_lossy_entry_read_without_copies(codec, deflated_zeros):
    """A 10-element float32 header over 300 MiB of deflated zeros (~1.3 MB),
    rejected as the one lossy tensor of a container: one copy of the entry
    would fit the bound, three did not."""
    decode = container_decoder(codec, struct.pack("<BBQd", 0, 1, 10, 0.01) + deflated_zeros)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            decode()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)
