"""Oracles for the chunked HUF4 coder.

:func:`bit_matrix_bands` reads the code table a producer pinned, forms the
stream's tuples one symbol at a time, assigns canonical codes one by one in
(length, tuple) order, and expands each chunk's codes into a ``tuples x
max_code_length`` bit matrix, keeping the valid bits behind the bits the
previous chunk left over and packing the whole bytes.  It is slow and
memory-hungry but obviously right, so the property tests hold the fast
scatter packer and its vectorized tuple forming to its bands byte for byte.

:func:`decode_reference` decodes a stream one tuple at a time, the oracle
the decoder's row walks are held to (and the scalar side of
``benchmarks/bench_timing.py``'s decode check).  :func:`any_count` and
:func:`one_tuple_bomb` serve the decode tests.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.compressors.huffman import HuffmanCoder, _bit_windows, _decode_tables

_HEADER = struct.Struct("<IIBQII")  # lo, W, k, count, tuples per chunk, chunks


def any_count(count: int) -> None:
    """A ``check_count`` that accepts every declared symbol count, for the
    streams a test built (or corrupted) itself."""


def one_tuple_bomb(count: int) -> bytes:
    """A one-tuple HUF4 stream declaring ``count`` symbols, no code bits.

    Its fields are self-consistent (a one-tuple code spends zero bits, so
    the chunk lengths are all 0), so a decoder that trusted them would size
    its output (8 B per symbol) from a 50-byte stream.
    """
    chunk = 1 << 31
    n_chunks = -(-count // chunk)
    body = _HEADER.pack(0, 1, 1, count, chunk, n_chunks) + b"\x80" + bytes(4 * n_chunks)
    return b"HUF4" + struct.pack("<I", zlib.crc32(body)) + body


def _corrupt(detail: str) -> ValueError:
    return ValueError(f"corrupt Huffman stream: {detail}")


def decode_reference(payload: bytes) -> np.ndarray:
    """Decode a whole HUF4 stream one tuple at a time.

    The header and code table come from the decoder's own parse (CRC
    included), so this checks the walk, not the tables.  Per chunk, one gather lists
    the code length at every bit position of the chunk's span; the loop hops
    from code start to code start through that list, and the starts' window
    values widen into symbols.  A chunk must end exactly on its recorded
    boundary with no unused window on the way, and the pad must be ``lo``.
    """
    head = HuffmanCoder._parse(payload, None)
    if head.count == 0:
        return np.zeros(0, dtype=np.int64)
    code = _decode_tables(head)
    table_len = np.repeat(code.lengths, code.spans)
    table_value = np.repeat(code.values, code.spans)
    symbols = code.symbols
    k = symbols.shape[1]
    out = np.empty((int(head.tuple_counts.sum()), k), dtype=np.int64)
    if symbols.shape[0] == 1:  # a one-tuple code spends no bits
        out[:] = symbols[0]
    else:
        windows = _bit_windows(np.frombuffer(payload, dtype=np.uint8, offset=head.bits_at))
        base = 0
        for start, end, n_tuples in zip(head.bit_offsets.tolist(), head.chunk_ends.tolist(),
                                        head.tuple_counts.tolist()):
            local = windows[start:end]
            hops = table_len.take(local).tolist()
            starts = [0] * n_tuples
            pos = 0
            for i in range(n_tuples):
                if pos >= end - start:
                    raise _corrupt("chunk decoded past its recorded boundary")
                if not hops[pos]:
                    raise _corrupt("bit window matches no codeword")
                starts[i] = pos
                pos += hops[pos]
            if pos != end - start:
                raise _corrupt("chunk did not decode to its recorded boundary")
            values = table_value.take(local.take(starts))
            out[base:base + n_tuples] = values[:, None] if k == 1 else symbols[values]
            base += n_tuples
    padded = out.reshape(-1)
    if np.any(padded[head.count:] != head.lo):
        raise _corrupt("the last tuple is not padded with the smallest symbol")
    return padded[:head.count]


def pinned_code_table(pinned_header: bytes) -> "tuple[dict, dict]":
    """``(fields, lengths)``: the header fields and each used tuple's length."""
    lo, width, k, count, chunk, n_chunks = _HEADER.unpack_from(pinned_header, 0)
    fields = {"lo": lo, "width": width, "k": k, "count": count, "chunk": chunk,
              "n_chunks": n_chunks}
    if count == 0:
        return fields, {}
    at = _HEADER.size
    bits = np.unpackbits(np.frombuffer(pinned_header, dtype=np.uint8,
                                       count=-(-width ** k // 8), offset=at))
    used = [t for t in range(width ** k) if bits[t]]
    at += -(-width ** k // 8)
    if len(used) == 1:
        return fields, {used[0]: 0}
    nibbles = []
    for byte in pinned_header[at:at + (len(used) + 1) // 2]:
        nibbles += [byte >> 4, byte & 15]
    return fields, {t: nibbles[i] + 1 for i, t in enumerate(used)}


def bit_matrix_bands(symbols: np.ndarray, pinned_header: bytes) -> list[bytes]:
    """The bands a producer with ``pinned_header`` must yield for ``symbols``."""
    fields, lengths = pinned_code_table(pinned_header)
    if fields["count"] == 0 or max(lengths.values()) == 0:
        return []
    lo, width, k, chunk = fields["lo"], fields["width"], fields["k"], fields["chunk"]
    codes, code, previous = {}, 0, None
    for length, t in sorted((length, t) for t, length in lengths.items()):
        if previous is not None:
            code = (code + 1) << (length - previous)
        codes[t], previous = code, length
    symbols = [int(s) for s in np.asarray(symbols).ravel()]
    symbols += [lo] * (-len(symbols) % k)
    tuples = []
    for i in range(0, len(symbols), k):
        t = 0
        for s in symbols[i:i + k]:
            t = t * width + (s - lo)
        tuples.append(t)
    tuple_codes = np.array([codes[t] for t in tuples], dtype=np.uint64)
    tuple_lengths = np.array([lengths[t] for t in tuples], dtype=np.int64)
    bitpos = np.arange(int(tuple_lengths.max()), dtype=np.int64)
    bands = []
    carry = np.zeros(0, dtype=np.uint8)
    for c in range(fields["n_chunks"]):
        part = slice(c * chunk, (c + 1) * chunk)
        shift = tuple_lengths[part][:, None] - 1 - bitpos[None, :]
        shifted = tuple_codes[part][:, None] >> np.maximum(shift, 0).astype(np.uint64)
        bits = (shifted & np.uint64(1)).astype(np.uint8)[shift >= 0]
        bits = np.concatenate([carry, bits])
        # pack whole bytes and carry the remainder; the last band is padded
        cut = bits.size if c + 1 == fields["n_chunks"] else bits.size & ~7
        bands.append(np.packbits(bits[:cut]).tobytes())
        carry = bits[cut:]
    return bands
