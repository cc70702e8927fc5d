"""Low-level utilities shared by the FedSZ reproduction.

The subpackage provides byte-count and duration formatting
(:mod:`repro.utils.timer`), deterministic RNG construction
(:mod:`repro.utils.rng`), small serialization helpers used by the compression
pipeline (:mod:`repro.utils.serialization`), and the thread pool every
fan-out stage runs on (:mod:`repro.utils.parallel`).
"""

from repro.utils.rng import make_rng
from repro.utils.serialization import (
    pack_arrays,
    pack_bytes_dict,
    unpack_arrays,
    unpack_bytes_dict,
)
from repro.utils.timer import format_bytes, format_seconds

__all__ = [
    "format_bytes",
    "format_seconds",
    "make_rng",
    "pack_arrays",
    "unpack_arrays",
    "pack_bytes_dict",
    "unpack_bytes_dict",
]
