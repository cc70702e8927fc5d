"""Common interfaces for the lossy and lossless compressors.

Every compressor exposes ``compress(array) -> bytes`` and
``decompress(bytes) -> array``.  Lossy compressors additionally carry an
:class:`ErrorBound` describing the per-element guarantee
``|x - x_reconstructed| <= eps`` where ``eps`` is either an absolute value or a
fraction of the data's dynamic range (the paper's REL mode).
"""

from __future__ import annotations

import abc
import enum
import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from repro.utils.serialization import MAX_NDIM

#: A corrupt shape may multiply to astronomical element counts; refuse to
#: allocate reconstructions past this size (2**34 bytes = 16 GiB — far above
#: any real model update, and small enough that even the decoders' float64
#: intermediates cannot drive the process out of memory on a garbage header).
_MAX_DECODED_BYTES = 1 << 34

__all__ = [
    "ErrorBoundMode",
    "ErrorBound",
    "Compressor",
    "LossyCompressor",
    "CompressionStats",
    "roundtrip",
]


class ErrorBoundMode(str, enum.Enum):
    """How the user-facing error bound value is interpreted."""

    ABS = "abs"
    #: bound = value * (max(data) - min(data)); the paper's default mode.
    REL = "rel"


@dataclass(frozen=True)
class ErrorBound:
    """A user-facing error bound: a value and the mode used to interpret it."""

    value: float
    mode: ErrorBoundMode = ErrorBoundMode.REL

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"error bound must be positive, got {self.value}")

    def absolute(self, data: np.ndarray) -> float:
        """Resolve the bound to an absolute tolerance for ``data``.

        In REL mode a constant array has zero range; we then fall back to a
        tiny absolute bound so that compression degenerates gracefully to a
        near-lossless constant encoding instead of dividing by zero.
        """
        if self.mode is ErrorBoundMode.ABS:
            return float(self.value)
        data = np.asarray(data)
        if data.size == 0:
            return float(self.value)
        value_range = float(np.max(data) - np.min(data))
        if value_range == 0.0:
            scale = max(abs(float(data.flat[0])), 1.0)
            return float(self.value) * scale * 1e-6
        return float(self.value) * value_range


@dataclass
class CompressionStats:
    """Round-trip statistics for one compression call (used by the benches)."""

    original_bytes: int
    compressed_bytes: int
    compress_seconds: float
    decompress_seconds: float
    max_abs_error: float

    @property
    def ratio(self) -> float:
        """Compression ratio ``original / compressed`` (>= 0)."""
        return self.original_bytes / self.compressed_bytes if self.compressed_bytes else float("inf")

    @property
    def compress_throughput_mbps(self) -> float:
        """Compression throughput in MB/s of original data processed."""
        if self.compress_seconds <= 0:
            return float("inf")
        return self.original_bytes / 1e6 / self.compress_seconds

    @property
    def decompress_throughput_mbps(self) -> float:
        """Decompression throughput in MB/s of original data produced."""
        if self.decompress_seconds <= 0:
            return float("inf")
        return self.original_bytes / 1e6 / self.decompress_seconds


class Compressor(abc.ABC):
    """Abstract base class shared by lossy and lossless compressors."""

    #: short registry name, e.g. ``"sz2"``
    name: str = "base"

    @abc.abstractmethod
    def compress(self, data: np.ndarray) -> bytes:
        """Compress ``data`` into a self-describing byte string."""

    @abc.abstractmethod
    def decompress(self, payload: bytes) -> np.ndarray:
        """Reconstruct the array stored in ``payload``."""


class LossyCompressor(Compressor):
    """Base class for error-bounded lossy compressors.

    Subclasses implement :meth:`_compress_float1d` / :meth:`_decompress_float1d`
    operating on flattened ``float32``/``float64`` arrays with a resolved
    absolute bound.  This class handles shape/dtype bookkeeping, the REL→ABS
    resolution, and the payload header, so every compressor shares the same
    container format::

        u8   dtype code (0=float32, 1=float64)
        u8   ndim
        u64* shape
        f64  absolute error bound actually used
        ...  compressor-specific body

    Both directions take an optional ``reference``: an array that the
    decoder holds too (in federated learning, the receiver's copy of the
    round's broadcast).  The encoder hands it to the body only when its dtype
    and element count equal the tensor's.  A codec that can code against it
    (SZ2's reference grid) may; the others ignore it.  A body coded against a
    reference decodes only with that same reference.
    """

    _DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
    _CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}

    def __init__(self, error_bound: ErrorBound | float = 1e-2,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL) -> None:
        if isinstance(error_bound, ErrorBound):
            self.error_bound = error_bound
        else:
            self.error_bound = ErrorBound(float(error_bound), ErrorBoundMode(mode))

    # -- subclass hooks ----------------------------------------------------
    @abc.abstractmethod
    def _compress_float1d(self, data: np.ndarray, abs_bound: float,
                          reference: "np.ndarray | None" = None) -> bytes:
        """Compress a contiguous 1-D float array under an absolute bound.

        ``reference`` is ``None`` or a flat array of ``data``'s size in the
        tensor's dtype, which the decoder will hold too.
        """

    @abc.abstractmethod
    def _decompress_float1d(self, body: bytes, count: int, abs_bound: float,
                            dtype: np.dtype,
                            reference: "np.ndarray | None" = None) -> np.ndarray:
        """Reconstruct ``count`` values from a compressor-specific body.

        ``reference`` is what the caller passed to :meth:`decompress`,
        unchecked: a body that needs it checks it.
        """

    # -- public API ---------------------------------------------------------
    def _encode_prelude(self, data: np.ndarray) -> tuple[bytes, np.ndarray, float]:
        """Resolve the bound and build the shared container header.

        Returns ``(header, flat_float64, abs_bound)``: the bound resolution,
        ULP shaving and shape record happen before any body byte exists.
        """
        data = np.asarray(data)
        if data.dtype not in self._DTYPE_CODES:
            data = data.astype(np.float32)
        flat = np.ascontiguousarray(data).ravel()
        abs_bound = self.error_bound.absolute(flat) if flat.size else float(self.error_bound.value)
        if data.dtype == np.dtype(np.float32) and flat.size:
            # Reconstruction happens in float64 but is returned in the input
            # dtype; shave one float32 ULP off the internal bound so the final
            # cast cannot push the error past the user-facing guarantee.
            ulp_margin = float(np.max(np.abs(flat))) * 2.0 ** -23
            if abs_bound > 2 * ulp_margin:
                abs_bound -= ulp_margin
        header = struct.pack("<BB", self._DTYPE_CODES[data.dtype], data.ndim)
        header += struct.pack(f"<{data.ndim}Q", *data.shape) if data.ndim else b""
        header += struct.pack("<d", abs_bound)
        return header, flat.astype(np.float64, copy=False), abs_bound

    def compress(self, data: np.ndarray,
                 reference: "np.ndarray | None" = None) -> bytes:
        header, flat, abs_bound = self._encode_prelude(data)
        if reference is not None:
            reference = np.asarray(reference)
            dtype = self._CODE_DTYPES[header[0]]  # the header's first byte
            # a reference the decoder could not check against the header is
            # not offered at all
            usable = reference.dtype == dtype and reference.size == flat.size
            reference = reference.ravel() if usable else None
        return header + self._compress_float1d(flat, abs_bound, reference)

    @classmethod
    def _parse_container_header(cls, payload) -> tuple[np.dtype, tuple, int, float, int]:
        """Validate the shared lossy header of a payload.

        Returns ``(dtype, shape, count, abs_bound, body_offset)``; a
        truncated or corrupt header raises :class:`ValueError`.
        """
        if len(payload) < 2:
            raise ValueError(f"corrupt lossy payload: header needs 2 bytes, "
                             f"got {len(payload)}")
        dtype_code, ndim = struct.unpack_from("<BB", payload, 0)
        if dtype_code not in cls._CODE_DTYPES:
            raise ValueError(f"corrupt lossy payload: unknown dtype code {dtype_code}")
        if ndim > MAX_NDIM:
            raise ValueError(f"corrupt lossy payload: ndim {ndim} exceeds "
                             f"NumPy's limit of {MAX_NDIM}")
        offset = 2
        if len(payload) < offset + 8 * ndim + 8:
            raise ValueError(f"corrupt lossy payload: header truncated at "
                             f"{len(payload)} bytes ({8 * ndim + 10} needed)")
        shape = struct.unpack_from(f"<{ndim}Q", payload, offset) if ndim else ()
        offset += 8 * ndim
        (abs_bound,) = struct.unpack_from("<d", payload, offset)
        offset += 8
        if not math.isfinite(abs_bound) or abs_bound < 0:
            raise ValueError(f"corrupt lossy payload: absolute bound {abs_bound!r} "
                             f"is not a non-negative finite value")
        dtype = cls._CODE_DTYPES[dtype_code]
        count = math.prod(shape) if ndim else 1
        if count * dtype.itemsize > _MAX_DECODED_BYTES:
            raise ValueError(f"corrupt lossy payload: shape {shape} declares an "
                             f"implausible {count} elements")
        return dtype, shape, count, abs_bound, offset

    def decompress(self, payload: bytes,
                   reference: "np.ndarray | None" = None) -> np.ndarray:
        """Reconstruct the array stored in ``payload``.

        A truncated or corrupted payload raises :class:`ValueError` — every
        header field is validated before use and body-decoder failures of any
        kind are normalized to the same contract.  So does a body coded
        against a reference when ``reference`` is missing or does not match
        the header's dtype and element count.
        """
        dtype, shape, count, abs_bound, offset = self._parse_container_header(payload)
        try:
            flat = self._decompress_float1d(payload[offset:], count, abs_bound, dtype,
                                            reference)
        except ValueError:
            raise
        except Exception as exc:
            # backend failures (zlib.error, struct.error, IndexError, ...) on
            # corrupt bodies are part of the same documented contract
            raise ValueError(f"corrupt lossy payload: body failed to decode "
                             f"({type(exc).__name__}: {exc})") from exc
        return flat.astype(dtype, copy=False).reshape(shape)

    def with_error_bound(self, error_bound: ErrorBound | float,
                         mode: ErrorBoundMode | str | None = None) -> "LossyCompressor":
        """Return a copy of this compressor configured with a new bound."""
        if isinstance(error_bound, ErrorBound):
            bound = error_bound
        else:
            bound_mode = ErrorBoundMode(mode) if mode is not None else self.error_bound.mode
            bound = ErrorBound(float(error_bound), bound_mode)
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.error_bound = bound
        return clone


_U64 = struct.Struct("<Q")


class BodyReader:
    """Reads a codec body front to back, exactly.

    Every read checks that its bytes are present, :meth:`length` checks a
    ``u64`` field against the value the body's geometry implies, and
    :meth:`finish` rejects trailing bytes.  A mismatch raises
    :class:`ValueError` before any array is sized by the bad field.
    """

    def __init__(self, body: bytes, codec: str) -> None:
        self.body = body
        self.codec = codec
        self.offset = 0

    def corrupt(self, detail: str) -> ValueError:
        return ValueError(f"corrupt {self.codec} payload: {detail}")

    def fields(self, layout: struct.Struct) -> tuple:
        """The next fixed-layout fields."""
        self._need(layout.size, "fixed fields")
        values = layout.unpack_from(self.body, self.offset)
        self.offset += layout.size
        return values

    def length(self, expected: int, what: str) -> None:
        """A ``u64`` field that must equal ``expected``."""
        (declared,) = self.fields(_U64)
        if declared != expected:
            raise self.corrupt(f"{what} {declared}, but the geometry implies {expected}")

    def section(self, dtype, count: int, what: str) -> np.ndarray:
        """A ``u64`` item count that must equal ``count``, then the items."""
        self.length(count, f"{what} count")
        dtype = np.dtype(dtype)
        self._need(count * dtype.itemsize, what)
        items = np.frombuffer(self.body, dtype=dtype, count=count, offset=self.offset)
        self.offset += count * dtype.itemsize
        return items

    def finish(self) -> None:
        """Reject any byte after the last field."""
        if self.offset != len(self.body):
            raise self.corrupt(f"{len(self.body) - self.offset} bytes after the last field")

    def _need(self, nbytes: int, what: str) -> None:
        if self.offset + nbytes > len(self.body):
            raise self.corrupt(f"{what} need {nbytes} bytes at offset {self.offset}, "
                               f"but only {len(self.body) - self.offset} remain")


def roundtrip(compressor: Compressor, data: np.ndarray) -> tuple[np.ndarray, CompressionStats]:
    """Compress then decompress ``data``, returning the reconstruction and stats."""
    data = np.asarray(data)
    start = time.perf_counter()
    payload = compressor.compress(data)
    mid = time.perf_counter()
    recon = compressor.decompress(payload)
    end = time.perf_counter()
    max_err = float(np.max(np.abs(data.astype(np.float64) - recon.astype(np.float64)))) if data.size else 0.0
    stats = CompressionStats(
        original_bytes=int(data.nbytes),
        compressed_bytes=len(payload),
        compress_seconds=mid - start,
        decompress_seconds=end - mid,
        max_abs_error=max_err,
    )
    return recon, stats
