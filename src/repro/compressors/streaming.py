"""Streaming encode/decode paths for the SZ-family lossy compressors.

The SZ2/SZ3 payload is a shared lossy container header followed by a
lossless-wrapped body whose dominant cost is the chunked ``HUF3`` Huffman
stream.  :class:`SZStreamDecoder` overlaps that cost with byte arrival, and
:class:`SZStreamEncoder` is its encode-side mirror: it emits payload bytes as
the body is coded, so a simulated transfer can start before the encode
completes.  :class:`SZStreamDecoder` overlaps decode with arrival:

1. the container header (dtype, shape, bound) is assembled and validated as
   its first bytes land,
2. the body bytes flow through the codec's incremental
   :meth:`~repro.compressors.lossless.LosslessCodec.decompressor`,
3. the plaintext prefix is walked just far enough to locate the embedded
   Huffman stream (each codec contributes a tiny ``_huffman_span`` parser),
4. Huffman bytes are forwarded to a
   :class:`~repro.compressors.huffman.ChunkBandConsumer`, which decodes every
   chunk whose bytes have arrived,
5. :meth:`SZStreamDecoder.finish` verifies completeness (including the HUF3
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

from repro.compressors.codebook import armed_producer
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
       or anchors) flow through the codec's incremental
       :meth:`~repro.compressors.lossless.LosslessCodec.compressor`,
    3. the embedded ``HUF3`` stream's byte length is emitted *analytically*
       from the :class:`~repro.compressors.huffman.ChunkBandProducer`'s
       pinned index — before a single band has been packed — so the length
       prefix never stalls the stream,
    4. the producer's byte-order chunks then stream through the lossless
       compressor as each Huffman chunk is coded,
    5. the outlier tail follows and the compressor is flushed.

    Every piece the lossless compressor releases is yielded immediately, so
    downstream consumers (the simulated wire) see bytes while later chunks
    are still being coded.  The concatenated pieces are byte-identical to
    :meth:`~repro.compressors.base.LossyCompressor.compress` because both
    paths share ``_encode_prelude`` and ``_body_parts`` and the producer's
    stream equals the batch Huffman encoding.  ``scratch_bytes`` reports the
    producer's peak packing scratch after the generator is exhausted.

    Requires the compressor to provide ``lossless``, ``huffman``, and
    ``_body_parts``.
    """

    def chunks(self, data: np.ndarray):
        comp = self._compressor
        header, flat, abs_bound = comp._encode_prelude(data)
        yield header
        prefix, codes, suffix = comp._body_parts(flat, abs_bound)
        lc = comp.lossless.compressor()
        for piece in prefix:
            out = lc.feed(piece)
            if out:
                yield out
        if codes is not None:
            # same codebook consultation as the batch path (codebook.py's
            # entropy_encode), so warm-table streams stay byte-identical
            channel = comp._codebook
            if channel is None:
                producer = comp.huffman.stream_producer(codes)
            else:
                producer = armed_producer(comp.huffman, codes, channel)
            out = lc.feed(struct.pack("<Q", producer.stream_length))
            if out:
                yield out
            for chunk in producer.chunks():
                out = lc.feed(chunk)
                if out:
                    yield out
            self.scratch_bytes = max(self.scratch_bytes,
                                     producer.peak_scratch_bytes)
        for piece in suffix:
            out = lc.feed(piece)
            if out:
                yield out
        tail = lc.finish()
        if tail:
            yield tail


class SZStreamDecoder(TensorStreamDecoder):
    """Incremental decoder for SZ2/SZ3-style lossy payloads.

    Requires the compressor to provide ``lossless`` (a codec with an
    incremental ``decompressor()``), ``huffman`` (a
    :class:`~repro.compressors.huffman.HuffmanCoder`), ``_huffman_span``
    (locate the embedded Huffman stream in a plaintext prefix), and
    ``_decode_plain_body`` (reconstruct from the full plaintext body, with
    optional pre-decoded symbols).
    """

    def __init__(self, compressor: LossyCompressor) -> None:
        self._compressor = compressor
        self._result: "np.ndarray | None" = None
        self._received = 0
        self._head = bytearray()      # container-header assembly
        self._header = None           # (dtype, shape, count, abs_bound, offset)
        self._dec = compressor.lossless.decompressor()
        self._consumer = compressor.huffman.stream_consumer()
        self._plain = StreamBuffer()  # decompressed body plaintext
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
        return self._consumer.symbols_decoded

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
            plaintext = self._dec.feed(data)
            if plaintext:
                self._plain.feed(plaintext)
                self._pump()

    def finish(self) -> np.ndarray:
        """Verify the stream completed and return the reconstructed array."""
        if self._result is not None:
            return self._result
        if self._header is None:
            # raises the same truncation error the batch header parse gives
            self._compressor._parse_container_header(bytes(self._head))
            raise ValueError("corrupt lossy payload: header truncated")
        tail = self._dec.finish()
        if tail:
            self._plain.feed(tail)
        self._pump()
        dtype, shape, count, abs_bound, _ = self._header
        codes = None
        if self._span is not None and self._span[1] > 0:
            # verifies total length and the HUF3 CRC-32 over the whole stream
            codes = self._consumer.finish()
        body = bytes(self._plain.view())
        flat = self._compressor._normalized_body_decode(
            self._compressor._decode_plain_body, body, count, abs_bound,
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
            self._span = self._compressor._huffman_span(self._plain)
            if self._span is None:
                return
        start, length = self._span
        if length == 0:
            return
        hi = min(self._plain.available, start + length)
        lo = start + self._fed
        if hi > lo:
            self._consumer.feed(self._plain.view(lo, hi))
            self._fed = hi - start
