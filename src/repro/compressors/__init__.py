"""Compression substrate: error-bounded lossy compressors and lossless codecs.

This subpackage re-implements, from scratch and in NumPy, the four EBLC designs
the paper evaluates (SZ2, SZ3, SZx, ZFP) plus the lossless codecs used for
metadata (a blosc-lz-like shuffle codec and the stdlib codecs).  All lossy
compressors honour a per-element error bound, expressed either absolutely
(``ErrorBoundMode.ABS``) or relative to the data's dynamic range
(``ErrorBoundMode.REL``), matching Section V-D1 of the paper.
"""

from repro.compressors.base import (
    CompressionStats,
    Compressor,
    ErrorBound,
    ErrorBoundMode,
    LossyCompressor,
    roundtrip,
)
from repro.compressors.huffman import HuffmanCoder
from repro.compressors.lossless import (
    BloscLZCodec,
    Bzip2Codec,
    GzipCodec,
    LosslessCodec,
    LzmaCodec,
    ShuffleRLECodec,
    ZlibCodec,
    ZstdLikeCodec,
    available_lossless,
    get_lossless,
)
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.registry import available_lossy, get_lossy
from repro.compressors.sz2 import SZ2Compressor
from repro.compressors.sz3 import SZ3Compressor
from repro.compressors.szx import SZxCompressor
from repro.compressors.verbatim import VerbatimCompressor
from repro.compressors.zfp import ZFPCompressor

__all__ = [
    "Compressor",
    "LossyCompressor",
    "CompressionStats",
    "ErrorBound",
    "ErrorBoundMode",
    "roundtrip",
    "HuffmanCoder",
    "LinearQuantizer",
    "SZ2Compressor",
    "SZ3Compressor",
    "SZxCompressor",
    "VerbatimCompressor",
    "ZFPCompressor",
    "LosslessCodec",
    "BloscLZCodec",
    "ShuffleRLECodec",
    "ZlibCodec",
    "GzipCodec",
    "Bzip2Codec",
    "LzmaCodec",
    "ZstdLikeCodec",
    "available_lossless",
    "get_lossless",
    "available_lossy",
    "get_lossy",
]
