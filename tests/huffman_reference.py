"""Byte-identity oracle for the chunked Huffman packer.

:func:`bit_matrix_bands` is the bit-matrix packer the production
:class:`~repro.compressors.huffman.ChunkBandProducer` used before it scattered
codes at their cumulative bit offsets: per chunk it expands every code into a
``count x max_code_length`` bit matrix, keeps the valid bits behind the bits
the previous chunk left over, and packs the whole bytes.  It is slow and
memory-hungry but obviously right, so the property tests hold the fast packer
to its bands byte for byte.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.huffman import _canonical_codes

_HEADER = struct.Struct("<IQII")  # alphabet, count, chunk_size, n_chunks


def bit_matrix_bands(symbols: np.ndarray, pinned_header: bytes) -> list[bytes]:
    """The bands a producer with ``pinned_header`` must yield for ``symbols``."""
    alphabet, count, chunk, n_chunks = _HEADER.unpack_from(pinned_header, 0)
    if count == 0:
        return []
    lengths = np.frombuffer(pinned_header, dtype=np.uint8, count=alphabet,
                            offset=_HEADER.size).astype(np.int64)
    codes = _canonical_codes(lengths).astype(np.uint64)
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    bitpos = np.arange(int(lengths.max()), dtype=np.int64)
    bands = []
    carry = np.zeros(0, dtype=np.uint8)
    for k in range(n_chunks):
        chunk_syms = symbols[k * chunk:(k + 1) * chunk]
        shift = lengths[chunk_syms][:, None] - 1 - bitpos[None, :]
        shifted = codes[chunk_syms][:, None] >> np.maximum(shift, 0).astype(np.uint64)
        bits = (shifted & np.uint64(1)).astype(np.uint8)[shift >= 0]
        bits = np.concatenate([carry, bits])
        # pack whole bytes and carry the remainder; the last band is padded
        cut = bits.size if k + 1 == n_chunks else bits.size & ~7
        bands.append(np.packbits(bits[:cut]).tobytes())
        carry = bits[cut:]
    return bands
