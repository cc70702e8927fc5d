"""Deterministic random-number-generator construction.

Every stochastic component in the reproduction (synthetic datasets, weight
initialization, client sampling, DP noise) receives a :class:`numpy.random.Generator`
built here so experiments are reproducible and independent streams never
collide.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a ``Generator``; pass through if one is already provided."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

