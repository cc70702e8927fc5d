"""Low-level utilities shared by the FedSZ reproduction.

The subpackage provides wall-clock timing helpers (:mod:`repro.utils.timer`),
deterministic RNG construction (:mod:`repro.utils.rng`), small serialization
helpers used by the compression pipeline (:mod:`repro.utils.serialization`),
and the execution backends every fan-out stage runs on
(:mod:`repro.utils.parallel`).
"""

from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.serialization import (
    pack_arrays,
    pack_bytes_dict,
    unpack_arrays,
    unpack_bytes_dict,
)
from repro.utils.timer import Timer, format_bytes, format_seconds

__all__ = [
    "Timer",
    "format_bytes",
    "format_seconds",
    "make_rng",
    "spawn_rngs",
    "pack_arrays",
    "unpack_arrays",
    "pack_bytes_dict",
    "unpack_bytes_dict",
]
