"""Streaming encode/decode paths for the SZ-family lossy compressors.

The SZ2/SZ3 payload is a shared lossy container header followed by a body
whose dominant cost is the chunked ``HUF4`` Huffman stream; no lossless pass
wraps the body, so its bytes travel as they are coded.
:class:`SZStreamDecoder` overlaps the Huffman stage with byte arrival, and
:class:`SZStreamEncoder` is its encode-side mirror: it emits payload bytes as
the body is coded, so a simulated transfer can start before the encode
completes.  :class:`SZStreamDecoder` overlaps decode with arrival:

1. the container header (dtype, shape, bound) is assembled and validated as
   its first bytes land,
2. the body prefix is walked just far enough to locate the embedded Huffman
   stream (each codec contributes a tiny ``_huffman_span`` parser, which
   checks the body's geometry against the container's element count and
   returns the codec's check of the symbol count that geometry implies),
3. Huffman bytes are forwarded to a
   :class:`~repro.compressors.huffman.ChunkBandConsumer` holding that check,
   which decodes every chunk whose bytes have arrived and rejects a stream
   declaring any other count before allocating for it,
4. :meth:`SZStreamDecoder.finish` verifies completeness (including the HUF4
   CRC) and runs the codec's normal reconstruction with the pre-decoded
   symbol array.

The reconstruction call is the *same* method the batch path uses — only the
source of the Huffman symbols differs — so streaming output is bit-identical
to :meth:`~repro.compressors.base.LossyCompressor.decompress` by
construction.  Corrupt or truncated streams raise :class:`ValueError`, at the
earliest byte that structurally proves the damage where possible, otherwise
at :meth:`~SZStreamDecoder.finish`.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import (LossyCompressor, TensorStreamDecoder,
                                    TensorStreamEncoder)
from repro.utils.bitstream import StreamBuffer
from repro.utils.serialization import MAX_NDIM

__all__ = ["SZStreamDecoder", "SZStreamEncoder"]


class SZStreamEncoder(TensorStreamEncoder):
    """Incremental encoder for SZ2/SZ3-style lossy payloads.

    The encode-side mirror of :class:`SZStreamDecoder`:

    1. the shared container header is pinned by the prelude and emitted as
       the first piece,
    2. the pre-Huffman body fields (block geometry, selectors, coefficients
       or anchors) follow,
    3. the embedded ``HUF4`` stream's byte length is emitted *analytically*
       from the :class:`~repro.compressors.huffman.ChunkBandProducer`'s
       pinned header — before a single band has been packed — so the length
       prefix never stalls the stream,
    4. the producer's byte-order chunks then follow as the Huffman chunks
       are coded,
    5. the outlier tail ends the payload.

    Every piece is yielded as soon as it exists, so downstream consumers (the
    simulated wire) see bytes while later chunks are still being coded.  The
    concatenated pieces are byte-identical to
    :meth:`~repro.compressors.base.LossyCompressor.compress` because both
    paths share ``_encode_prelude`` and ``_body_parts`` and the producer's
    stream equals the batch Huffman encoding.  ``scratch_bytes`` reports the
    producer's peak packing scratch after the generator is exhausted.

    Requires the compressor to provide ``huffman`` and ``_body_parts``.
    """

    def chunks(self, data: np.ndarray):
        comp = self._compressor
        header, flat, abs_bound = comp._encode_prelude(data)
        yield header
        prefix, codes, suffix = comp._body_parts(flat, abs_bound)
        yield from prefix
        if codes is not None:
            producer = comp.huffman.stream_producer(codes)
            yield struct.pack("<Q", producer.stream_length)
            yield from producer.chunks()
            self.scratch_bytes = max(self.scratch_bytes,
                                     producer.peak_scratch_bytes)
        yield from suffix


class SZStreamDecoder(TensorStreamDecoder):
    """Incremental decoder for SZ2/SZ3-style lossy payloads.

    Requires the compressor to provide ``huffman`` (a
    :class:`~repro.compressors.huffman.HuffmanCoder`), ``_huffman_span``
    (check a body prefix's geometry against the container's element count,
    then locate the embedded Huffman stream and return the check of the
    symbol count it must declare), and ``_decode_body`` (reconstruct
    from the full body, with optional pre-decoded symbols).
    """

    def __init__(self, compressor: LossyCompressor) -> None:
        self._compressor = compressor
        self._result: "np.ndarray | None" = None
        self._received = 0
        self._head = bytearray()      # container-header assembly
        self._header = None           # (dtype, shape, count, abs_bound, offset)
        self._consumer = None         # built once the body's geometry is checked
        self._body = StreamBuffer()  # the body bytes so far
        self._span: "tuple[int, int] | None" = None  # (huff_start, huff_len)
        self._fed = 0                 # Huffman bytes already forwarded

    # -- observability ---------------------------------------------------
    @property
    def bytes_received(self) -> int:
        """Payload bytes fed so far."""
        return self._received

    @property
    def symbols_decoded(self) -> int:
        """Huffman symbols decoded so far (tentative until :meth:`finish`)."""
        return self._consumer.symbols_decoded if self._consumer is not None else 0

    # -- streaming surface ----------------------------------------------
    def feed(self, data) -> None:
        """Consume arriving payload bytes, decoding eagerly."""
        if self._result is not None:
            raise ValueError("cannot feed a finished tensor stream decoder")
        data = memoryview(data)
        self._received += data.nbytes
        if self._header is None:
            data = self._absorb_header(data)
            if self._header is None:
                return
        if data.nbytes:
            self._body.feed(data)
            self._pump()

    def finish(self) -> np.ndarray:
        """Verify the stream completed and return the reconstructed array."""
        if self._result is not None:
            return self._result
        if self._header is None:
            # raises the same truncation error the batch header parse gives
            self._compressor._parse_container_header(bytes(self._head))
            raise ValueError("corrupt lossy payload: header truncated")
        dtype, shape, count, abs_bound, _ = self._header
        codes = None
        if self._span is not None and self._span[1] > 0:
            # verifies total length and the HUF4 CRC-32 over the whole stream
            codes = self._consumer.finish()
        body = bytes(self._body.view())
        flat = self._compressor._normalized_body_decode(
            self._compressor._decode_body, body, count, abs_bound,
            dtype, codes)
        self._result = flat.astype(dtype, copy=False).reshape(shape)
        return self._result

    # -- internals -------------------------------------------------------
    def _absorb_header(self, data: memoryview) -> memoryview:
        """Assemble the container header; returns the unconsumed tail."""
        head = self._head
        if len(head) < 2:
            take = min(2 - len(head), data.nbytes)
            head += data[:take]
            data = data[take:]
            if len(head) < 2:
                return data
            # the fixed fields are checkable from byte 2 on — surface
            # corruption mid-stream instead of waiting for a full header
            if head[0] not in self._compressor._CODE_DTYPES:
                raise ValueError(f"corrupt lossy payload: unknown dtype code {head[0]}")
            if head[1] > MAX_NDIM:
                raise ValueError(f"corrupt lossy payload: ndim {head[1]} "
                                 f"exceeds NumPy's limit of {MAX_NDIM}")
        need = 2 + 8 * head[1] + 8
        take = min(need - len(head), data.nbytes)
        head += data[:take]
        data = data[take:]
        if len(head) == need:
            self._header = self._compressor._parse_container_header(bytes(head))
        return data

    def _pump(self) -> None:
        """Forward newly arrived Huffman bytes to the chunk consumer."""
        if self._span is None:
            span = self._compressor._huffman_span(self._body, self._header[2])
            if span is None:
                return
            start, length, check_count = span
            self._span = start, length
            if length:
                self._consumer = self._compressor.huffman.stream_consumer(
                    check_count=check_count)
        start, length = self._span
        if length == 0:
            return
        hi = min(self._body.available, start + length)
        lo = start + self._fed
        if hi > lo:
            self._consumer.feed(self._body.view(lo, hi))
            self._fed = hi - start
