"""Registry of the error-bounded lossy compressors.

The FedSZ pipeline and the benchmark harness look compressors up by name
(``"sz2"``, ``"sz3"``, ``"szx"``, ``"zfp"``, plus the ``"verbatim"`` lossless
fallback tier).
"""

from __future__ import annotations

from typing import Callable

from repro.compressors.base import ErrorBound, ErrorBoundMode, LossyCompressor
from repro.compressors.sz2 import SZ2Compressor
from repro.compressors.sz3 import SZ3Compressor
from repro.compressors.szx import SZxCompressor
from repro.compressors.verbatim import VerbatimCompressor
from repro.compressors.zfp import ZFPCompressor

__all__ = ["available_lossy", "get_lossy"]

_LOSSY: dict[str, Callable[..., LossyCompressor]] = {
    "sz2": SZ2Compressor,
    "sz3": SZ3Compressor,
    "szx": SZxCompressor,
    "zfp": ZFPCompressor,
    # lossless fallback tier of the profiled plan policy: ships the tensor
    # bit-exactly when Eqn. (1) says no EBLC pays for itself on the link
    "verbatim": VerbatimCompressor,
}


def available_lossy() -> list[str]:
    """Names of the registered lossy compressors."""
    return sorted(_LOSSY)


def get_lossy(name: str, error_bound: ErrorBound | float = 1e-2,
              mode: ErrorBoundMode | str = ErrorBoundMode.REL,
              **kwargs: object) -> LossyCompressor:
    """Instantiate a lossy compressor by registry name."""
    try:
        factory = _LOSSY[name]
    except KeyError:
        # ValueError, matching every other bad-input path in the codebase
        raise ValueError(f"unknown lossy compressor {name!r}; available: {available_lossy()}") from None
    return factory(error_bound=error_bound, mode=mode, **kwargs)
