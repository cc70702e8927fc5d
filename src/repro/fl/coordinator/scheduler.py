"""Round scheduling: seeded scenario draws.

The :class:`RoundScheduler` owns the seeded, worker-independent draw of
which clients participate in a round, which of them drop out, and which
straggle.  The :class:`~repro.fl.coordinator.coordinator.Coordinator` draws
every round's plan from it, and journal replay re-derives the identical
plan from the scenario seed to cross-check it against the journaled one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RoundPlan", "RoundScheduler", "resolve_scenario_seed"]

#: Domain-separation constant mixed into every scenario draw (historic value —
#: changing it would silently re-draw every seeded experiment in the repo).
_SCENARIO_STREAM = 0x5CE9A210


def resolve_scenario_seed(seed: "int | None") -> int:
    """The scenario seed an explicit ``seed`` (or ``None``) resolves to.

    ``seed=None`` means "give me a different run every time": a fresh seed is
    drawn from OS entropy instead of silently pinning the scenario to seed 0.
    The drawn value is returned (and journaled by durable runs), so even an
    unseeded run is reproducible after the fact.
    """
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy) % (2 ** 63)


@dataclass(frozen=True)
class RoundPlan:
    """One round's scenario draw: who participates, who never reports in."""

    round_index: int
    #: surviving participants (sorted client ids) — their updates are trained,
    #: shipped, and aggregated this round
    participants: tuple[int, ...]
    #: sampled clients that dropped out before reporting
    dropped: tuple[int, ...] = ()
    #: participants whose train/transfer time is straggler-inflated
    stragglers: tuple[int, ...] = ()


class RoundScheduler:
    """Seeded per-round scenario draws for a fleet of ``n_clients``.

    The draw depends only on the scenario seed, the scenario knobs, and the
    round index — never on worker counts or the wall clock — so a
    run is reproducible at any parallelism level and after a journal resume.
    """

    def __init__(self, n_clients: int, participation: "float | int" = 1.0,
                 dropout_prob: float = 0.0, straggler_prob: float = 0.0,
                 seed: int = 0) -> None:
        if n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if isinstance(participation, bool) or not isinstance(participation, (int, float)):
            raise ValueError("participation must be a fraction in (0, 1] or an int count")
        if isinstance(participation, int):
            if not 1 <= participation <= n_clients:
                raise ValueError(f"participation count must be in [1, {n_clients}], "
                                 f"got {participation}")
        elif not 0.0 < participation <= 1.0:
            raise ValueError(f"participation fraction must be in (0, 1], got {participation}")
        if not 0.0 <= dropout_prob <= 1.0:
            raise ValueError("dropout_prob must be in [0, 1]")
        if not 0.0 <= straggler_prob <= 1.0:
            raise ValueError("straggler_prob must be in [0, 1]")
        self.n_clients = int(n_clients)
        self.participation = participation
        self.dropout_prob = float(dropout_prob)
        self.straggler_prob = float(straggler_prob)
        self.seed = int(seed)

    @property
    def full_participation(self) -> bool:
        """True when every round deterministically includes the whole fleet."""
        if self.dropout_prob or self.straggler_prob:
            return False
        # branch on type first: an int participation of 1 is a *count* of one
        # client, not the 1.0 full-participation fraction
        if isinstance(self.participation, int):
            return self.participation == self.n_clients
        return self.participation == 1.0

    def participation_count(self) -> int:
        """Number of clients sampled each round."""
        if isinstance(self.participation, int):
            return self.participation
        return max(1, round(self.participation * self.n_clients))

    def plan_round(self, round_index: int) -> RoundPlan:
        """Draw one round's scenario (participants, dropped, stragglers)."""
        n = self.n_clients
        if self.full_participation:
            return RoundPlan(round_index, tuple(range(n)))
        rng = np.random.default_rng([self.seed, _SCENARIO_STREAM, round_index])
        sampled = sorted(int(i) for i in rng.choice(n, size=self.participation_count(),
                                                    replace=False))
        dropped = [i for i in sampled
                   if self.dropout_prob and rng.random() < self.dropout_prob]
        survivors = [i for i in sampled if i not in dropped]
        stragglers = [i for i in survivors
                      if self.straggler_prob and rng.random() < self.straggler_prob]
        return RoundPlan(round_index, tuple(survivors), tuple(dropped),
                         tuple(stragglers))
