"""SZx's and ZFP's decoders consume their bodies exactly.

Each rule below raises ``ValueError`` on the codec's decoder and through a
FedSZ container carrying the payload as its one lossy tensor (the path a
shipped update takes):

* the body's element count equals the container's (a body declaring 0
  elements inside a 1000-element container used to decode to 1000 zeros),
* the block geometry and every section length match what the element count
  implies, checked before any array is sized by them (an 840-byte SZx payload
  with ``block_size`` forged to 16384 and ``n_blocks`` to 2048 used to reach a
  256 MiB allocation peak before it raised),
* no byte follows the last section.
"""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest

from container_reference import container_decoder
from repro.compressors import szx
from repro.compressors.szx import SZxCompressor
from repro.compressors.zfp import ZFPCompressor

_SZX_FIXED = struct.Struct("<IQBd")  # block size, element count, bit width, offset
_ZFP_FIXED = struct.Struct("<IQB")   # block size, element count, precision
#: per codec: an instance, its fixed fields, and the item size of each u64
#: length field after them (0 for SZx's bare block count)
_CODECS = {
    "szx": (SZxCompressor(1e-2), _SZX_FIXED,
            {"n_blocks": 0, "bitmap": 1, "midpoints": 8, "packed": 1}),
    "zfp": (ZFPCompressor(1e-12, mode="abs"), _ZFP_FIXED,
            {"exponents": 2, "packed": 1, "bitmap": 1, "verbatim": 8}),
}


def _valid(codec: str, data: "np.ndarray | None" = None) -> tuple[bytes, bytearray]:
    """(container header, body) of a 1000-value payload; ZFP's has verbatim
    blocks (no bit plane count keeps a 1e300 within 1e-12)."""
    if data is None:
        data = np.random.default_rng(5).random(1000).astype(np.float32)
        if codec == "zfp":
            data = data.astype(np.float64)
            data[7] = 1e300
    comp = _CODECS[codec][0]
    payload = comp.compress(data)
    *_, offset = comp._parse_container_header(payload)
    return payload[:offset], bytearray(payload[offset:])


def _decoder(codec: str, payload: bytes, path: str):
    """A call that decodes ``payload`` with the codec (``batch``) or through
    a FedSZ container (``container``)."""
    if path == "batch":
        return lambda: _CODECS[codec][0].decompress(payload)
    return container_decoder(codec, payload)


def _decode(codec: str, payload: bytes, path: str) -> np.ndarray:
    return _decoder(codec, payload, path)()


def _layout(codec: str, body: bytes) -> dict[str, int]:
    """Offsets of the body's u64 length fields."""
    _, fixed, sections = _CODECS[codec]
    at, offset = {}, fixed.size
    for name, itemsize in sections.items():
        at[name] = offset
        offset += 8 + struct.unpack_from("<Q", body, offset)[0] * itemsize
    assert offset == len(body)
    return at


@pytest.mark.parametrize("path", ["batch", "container"])
@pytest.mark.parametrize("codec", sorted(_CODECS))
class TestExactBody:
    def test_element_count_must_match_container(self, codec, path):
        header, _ = _valid(codec)
        empty = {"szx": _SZX_FIXED.pack(128, 0, 0, 0.0), "zfp": _ZFP_FIXED.pack(4, 0, 0)}
        payload = header + empty[codec]
        assert len(payload) == {"szx": 39, "zfp": 31}[codec]
        with pytest.raises(ValueError, match="0 elements but the container declares 1000"):
            _decode(codec, payload, path)

    def test_trailing_bytes_rejected(self, codec, path):
        cases = [_valid(codec)]
        if path == "batch":
            # a container keeps an empty tensor in its lossless partition
            cases.append(_valid(codec, np.zeros(0)))
        for header, body in cases:
            assert _decode(codec, header + bytes(body), path).size in (0, 1000)
            with pytest.raises(ValueError, match="1 bytes after the last field"):
                _decode(codec, header + bytes(body) + b"\0", path)


@pytest.mark.parametrize("path", ["batch", "container"])
@pytest.mark.parametrize("codec, field", [(codec, field) for codec in sorted(_CODECS)
                                          for field in ["block", *_CODECS[codec][2]]])
def test_each_length_checked_against_geometry(codec, field, path):
    # raise one length by one and append the item it now claims, so the
    # bytes present always cover what the field declares
    _, _, sections = _CODECS[codec]
    header, body = _valid(codec)
    if field == "block":
        struct.pack_into("<I", body, 0, {"szx": 1, "zfp": 8}[codec])
        match = f"block size {body[0]}"
    else:
        offset = _layout(codec, body)[field]
        (value,) = struct.unpack_from("<Q", body, offset)
        struct.pack_into("<Q", body, offset, value + 1)
        body[offset + 8:offset + 8] = bytes(sections[field])
        match = f"{value + 1}, but the geometry implies {value}"
    with pytest.raises(ValueError, match=match):
        _decode(codec, header + bytes(body), path)


@pytest.mark.parametrize("path", ["batch", "container"])
class TestSZxAllocation:
    def _peak(self, payload: bytes, path: str) -> "tuple[int, np.ndarray | ValueError]":
        decode = _decoder("szx", payload, path)
        tracemalloc.start()
        try:
            try:
                result = decode()
            except ValueError as exc:
                result = exc
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def test_forged_geometry_rejected_before_allocating(self, path):
        header, body = _valid("szx")
        _SZX_FIXED.pack_into(body, 0, 16384, *_SZX_FIXED.unpack_from(body)[1:])
        struct.pack_into("<Q", body, _SZX_FIXED.size, 2048)
        assert len(header + body) == 840
        peak, result = self._peak(header + bytes(body), path)
        assert "block count 2048, but the geometry implies 1" in str(result)
        assert peak < 1 << 20

    def test_wide_constant_block_allocates_no_padding(self, path):
        # a valid body whose one constant block is far wider than the tensor
        header, _ = _valid("szx")
        body = (_SZX_FIXED.pack(1 << 22, 1000, 0, 0.0) + struct.pack("<QQ", 1, 1)
                + b"\x80" + struct.pack("<QdQ", 1, 0.25, 0))
        peak, result = self._peak(header + body, path)
        assert result.shape == (1000,) and np.all(result == np.float32(0.25))
        assert peak < 1 << 20


@pytest.mark.parametrize("width", [*range(1, 45), 64])
def test_szx_periodic_packer_matches_the_bit_matrix(width):
    """SZx packs 8 codes into ``width`` bytes with a fixed shift pattern.

    Its bytes must be exactly :func:`numpy.packbits` over the codes' MSB-first
    bits (the bit matrix it replaced, padding included), and its mirror must
    read the codes back, at every width the encoder emits (1 to 44 bits) and
    the widest the decoder accepts.
    """
    rng = np.random.default_rng(width)
    for count in (1, 7, 8, 9, 1003):
        codes = rng.integers(0, 1 << 63, count, dtype=np.uint64) >> np.uint64(64 - width)
        codes[0] = (1 << width) - 1
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
        packed = szx._pack_fixed(codes, width)
        assert packed.tobytes() == np.packbits(bits.ravel()).tobytes()
        np.testing.assert_array_equal(szx._unpack_fixed(packed, width, count), codes)
