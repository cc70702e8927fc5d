"""SZ3's decoder consumes its body exactly.

Each rule below raises ``ValueError`` on the batch decoder and on
``stream_decoder()`` fed whole or in 5-byte pieces:

* one outlier per zero code, no more (a body whose outlier count is raised
  by one, with one more float64 appended, used to decode),
* no byte after the outlier tail, or after the empty-tensor escape,
* an anchor dtype flag of 0 or 1 only (a flag of 7 used to read float64
  anchors).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.compressors.sz3 import SZ3Compressor

_FIXED = struct.Struct("<QIB")  # element count, radius, anchor dtype flag


class TestExactBody:
    comp = SZ3Compressor(1e-12, mode="abs")

    def _payload(self, data: np.ndarray) -> tuple[bytes, bytes]:
        payload = self.comp.compress(data)
        _, _, _, _, offset = self.comp._parse_container_header(payload)
        return payload[:offset], zlib.decompress(payload[offset:])

    def _valid(self) -> tuple[bytes, bytes]:
        """A payload with float64 anchors and outliers."""
        data = np.random.default_rng(5).normal(0.0, 1.0, 1000)
        data[[3, 500]] = np.inf  # zero codes
        header, body = self._payload(data)
        assert _FIXED.unpack_from(body)[2] == 1  # float64 anchors
        return header, body

    def _assert_rejected(self, header: bytes, body: bytes, match: str) -> None:
        payload = header + zlib.compress(body)
        with pytest.raises(ValueError, match=match):
            self.comp.decompress(payload)
        for piece in (len(payload), 5):
            decoder = self.comp.stream_decoder()
            with pytest.raises(ValueError, match=match):
                for start in range(0, len(payload), piece):
                    decoder.feed(payload[start : start + piece])
                decoder.finish()

    def _outlier_count_offset(self, body: bytes) -> int:
        """Offset of the outlier count: the body ends with the outliers."""
        offset = len(body)
        while True:
            offset -= 8
            (count,) = struct.unpack_from("<Q", body, offset)
            if offset + 8 + 8 * count == len(body):
                return offset

    def test_valid_payload_decodes(self):
        header, body = self._valid()
        got = self.comp.decompress(header + zlib.compress(body))
        assert got.shape == (1000,) and np.isinf(got[3]) and np.isinf(got[500])

    def test_extra_outlier_rejected(self):
        header, body = self._valid()
        at = self._outlier_count_offset(body)
        (count,) = struct.unpack_from("<Q", body, at)
        assert count > 0
        extra = body[:at] + struct.pack("<Q", count + 1) + body[at + 8:] + struct.pack("<d", 1.5)
        self._assert_rejected(header, extra, f"{count + 1} outliers for {count} escape codes")

    def test_trailing_bytes_rejected(self):
        header, body = self._valid()
        self._assert_rejected(header, body + b"\0", "1 bytes after the last field")

    def test_empty_tensor_escape_is_exact(self):
        header, body = self._payload(np.zeros(0))
        assert len(body) == _FIXED.size
        assert self.comp.decompress(header + zlib.compress(body)).shape == (0,)
        self._assert_rejected(header, body + b"\0", "1 bytes after the last field")

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_unknown_anchor_flag_rejected(self, flag):
        header, body = self._valid()
        changed = body[:12] + bytes([flag]) + body[13:]
        self._assert_rejected(header, changed, f"unknown anchor dtype flag {flag}")
