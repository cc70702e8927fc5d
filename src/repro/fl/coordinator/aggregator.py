"""Aggregation services: flat FedAvg and hierarchical (tree) partial-sum merge.

FedAvg is a weighted mean, and a weighted mean is associative once it is
carried as a *weight-carrying partial sum* ``(Σ w_i·x_i, Σ w_i)``: any grouping
of clients into edge aggregators whose partials merge at a root computes the
same mean.  That associativity is what lets millions of clients fan into edge
aggregators instead of one flat server pass (ROADMAP open item 1).

Floating-point addition, however, is *not* associative — a naive float64
partial sum would drift by a few ulps depending on the tree shape, and the
test suite pins tree-vs-flat aggregation **bit-for-bit** at every fan-in.  So
partial sums here carry each element as an unevaluated double-double
``(hi, lo)`` pair (Knuth's TwoSum): merging two partials loses only bits below
``2^-106`` relative, about ``10^16`` times finer than the float64 collapse at
the root and far below anything a float32 (or float64) state-dict cast can
observe.  Every grouping therefore rounds to identical output arrays, and
:func:`repro.fl.server.fedavg_aggregate` routes through the same kernel
(:class:`FlatAggregator` is the single-group special case), so the flat
reference and any :class:`TreeAggregator` fan-in agree exactly.

Integer-dtype state entries are rounded to the nearest integer before the
cast back (``np.rint``); the historic ``astype`` truncation biased counters
toward zero.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from typing import Sequence

import numpy as np

__all__ = [
    "Aggregator",
    "FlatAggregator",
    "TreeAggregator",
    "PartialAggregate",
    "weighted_mean_states",
]


def _two_sum(a, b):
    """Knuth's TwoSum: ``a + b = s + e`` exactly (elementwise on arrays)."""
    s = a + b
    v = s - a
    e = (a - (s - v)) + (b - v)
    return s, e


def _validate_states(states: Sequence[dict[str, np.ndarray]],
                     weights: "Sequence[float] | None") -> np.ndarray:
    """Shared FedAvg input validation; returns the raw weight vector."""
    if not states:
        raise ValueError("need at least one client state to aggregate")
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError("weights and states must have the same length")
    weight_array = np.asarray(weights, dtype=np.float64)
    if np.any(weight_array < 0) or weight_array.sum() <= 0:
        raise ValueError("weights must be non-negative and not all zero")
    reference = states[0]
    reference_keys = list(reference.keys())
    for state in states[1:]:
        if list(state.keys()) != reference_keys:
            raise ValueError("client state dicts have mismatched keys")
        for key in reference_keys:
            if np.shape(state[key]) != np.shape(reference[key]):
                raise ValueError(f"client state dicts have mismatched shapes "
                                 f"for {key!r}")
    return weight_array


class PartialAggregate:
    """A weight-carrying partial FedAvg sum, mergeable at any fan-in.

    Carries ``Σ w_i·x_i`` per tensor and ``Σ w_i``, each as a compensated
    double-double ``(hi, lo)`` pair so that :meth:`merge` is
    grouping-insensitive to far below output precision (see module docstring).
    ``finalize`` divides and casts back to the reference dtypes.
    """

    __slots__ = ("sums", "weight", "count", "_dtypes")

    def __init__(self, sums: "OrderedDict[str, tuple[np.ndarray, np.ndarray]]",
                 weight: tuple[float, float], count: int,
                 dtypes: "OrderedDict[str, np.dtype]") -> None:
        self.sums = sums
        self.weight = weight
        self.count = count
        self._dtypes = dtypes

    @classmethod
    def of(cls, state: dict[str, np.ndarray], weight: float) -> "PartialAggregate":
        """Leaf partial for one client: ``(w·x, w)`` with zero compensation."""
        weight = float(weight)
        sums: "OrderedDict[str, tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        dtypes: "OrderedDict[str, np.dtype]" = OrderedDict()
        for key, value in state.items():
            array = np.asarray(value)
            hi = array.astype(np.float64, copy=True) * weight
            sums[key] = (hi, np.zeros_like(hi))
            dtypes[key] = array.dtype
        return cls(sums, (weight, 0.0), 1, dtypes)

    def merge(self, other: "PartialAggregate") -> "PartialAggregate":
        """Combine two partials (double-double addition per element)."""
        if list(self.sums) != list(other.sums):
            raise ValueError("client state dicts have mismatched keys")
        sums: "OrderedDict[str, tuple[np.ndarray, np.ndarray]]" = OrderedDict()
        for key, (a_hi, a_lo) in self.sums.items():
            b_hi, b_lo = other.sums[key]
            if a_hi.shape != b_hi.shape:
                raise ValueError(f"client state dicts have mismatched shapes "
                                 f"for {key!r}")
            hi, err = _two_sum(a_hi, b_hi)
            hi, lo = _two_sum(hi, a_lo + b_lo + err)
            sums[key] = (hi, lo)
        w_hi, w_err = _two_sum(self.weight[0], other.weight[0])
        w_hi, w_lo = _two_sum(w_hi, self.weight[1] + other.weight[1] + w_err)
        return PartialAggregate(sums, (float(w_hi), float(w_lo)),
                                self.count + other.count, self._dtypes)

    def finalize(self) -> "OrderedDict[str, np.ndarray]":
        """Collapse to the aggregated state dict in the reference dtypes."""
        total_weight = self.weight[0] + self.weight[1]
        if total_weight <= 0:
            raise ValueError("weights must be non-negative and not all zero")
        result: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for key, (hi, lo) in self.sums.items():
            value = (hi + lo) / total_weight
            dtype = self._dtypes[key]
            if dtype.kind in "iub":
                # round to nearest instead of the historic truncation toward
                # zero, which biased integer entries (step counters, class
                # counts) low on every round
                value = np.rint(value)
            result[key] = value.astype(dtype)
        return result


def _fold(partials: Sequence[PartialAggregate]) -> PartialAggregate:
    """Left fold of partials — the canonical merge order within one group."""
    merged = partials[0]
    for partial in partials[1:]:
        merged = merged.merge(partial)
    return merged


def weighted_mean_states(states: Sequence[dict[str, np.ndarray]],
                         weights: "Sequence[float] | None" = None) \
        -> "OrderedDict[str, np.ndarray]":
    """Weighted mean of state dicts through the compensated flat kernel.

    The implementation behind :func:`repro.fl.server.fedavg_aggregate`; kept
    here so flat and tree aggregation share one arithmetic path.
    """
    return FlatAggregator().aggregate(states, weights)


class Aggregator(abc.ABC):
    """How a round's decoded client states become the next global state."""

    #: registry-ish label shown by ``repr`` and recorded by benchmarks
    name: str = "base"

    @abc.abstractmethod
    def aggregate(self, states: Sequence[dict[str, np.ndarray]],
                  weights: "Sequence[float] | None" = None) \
            -> "OrderedDict[str, np.ndarray]":
        """Weighted FedAvg of ``states`` (weights default to uniform)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(name={self.name!r})"


class FlatAggregator(Aggregator):
    """Single-pass FedAvg: every client folds into one partial sum."""

    name = "flat"

    def aggregate(self, states: Sequence[dict[str, np.ndarray]],
                  weights: "Sequence[float] | None" = None) \
            -> "OrderedDict[str, np.ndarray]":
        weight_array = _validate_states(states, weights)
        # normalizing before the leaves keeps the carried totals O(1) and
        # makes the single-client round the exact identity (w/w = 1.0)
        normalized = weight_array / weight_array.sum()
        leaves = [PartialAggregate.of(state, w)
                  for state, w in zip(states, normalized)]
        return _fold(leaves).finalize()


class TreeAggregator(Aggregator):
    """Hierarchical FedAvg: clients fan into edge aggregators, edges into a root.

    ``fan_in`` children merge per node; with ``n`` clients the tree is
    ``ceil(log_fan_in(n))`` levels deep, which is the shape a planet-scale
    deployment uses to keep any single aggregator's inbound load bounded.
    Bit-identical to :class:`FlatAggregator` at every fan-in (see module
    docstring for why), which the test suite and
    ``benchmarks/bench_coordinator.py`` both enforce.
    """

    name = "tree"

    def __init__(self, fan_in: int = 8) -> None:
        if fan_in < 2:
            raise ValueError(f"fan_in must be >= 2, got {fan_in}")
        self.fan_in = int(fan_in)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"TreeAggregator(fan_in={self.fan_in})"

    def aggregate(self, states: Sequence[dict[str, np.ndarray]],
                  weights: "Sequence[float] | None" = None) \
            -> "OrderedDict[str, np.ndarray]":
        weight_array = _validate_states(states, weights)
        normalized = weight_array / weight_array.sum()
        level: "list[PartialAggregate]" = [
            PartialAggregate.of(state, w)
            for state, w in zip(states, normalized)
        ]
        while len(level) > 1:
            level = [_fold(level[start:start + self.fan_in])
                     for start in range(0, len(level), self.fan_in)]
        return level[0].finalize()
