"""Round and run records: what one federated round (and one run) measured.

These dataclasses moved here from ``fl/simulation.py`` when the round engine
split into coordinator services — the :class:`Coordinator` builds them, the
:class:`~repro.fl.coordinator.journal.RoundJournal` persists and replays them,
and ``fl/simulation.py`` re-exports them unchanged for the historic import
path (``from repro.fl.simulation import RoundRecord``).
:func:`deterministic_fields` is the one comparison of seeded records that
every bit-identity and resume check uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import FedSZReport
from repro.core.plan import CompressionPlan

__all__ = ["RoundRecord", "SimulationResult", "deterministic_fields"]


@dataclass
class RoundRecord:
    """Measurements of a single communication round."""

    round_index: int
    accuracy: float
    mean_train_seconds: float
    mean_encode_seconds: float
    mean_decode_seconds: float
    validation_seconds: float
    uncompressed_bytes: int
    transmitted_bytes: int
    communication_seconds: float
    client_losses: list[float] = field(default_factory=list)
    #: ids of the clients whose on-time updates were aggregated this round
    participants: list[int] = field(default_factory=list)
    #: ids of sampled clients that dropped out before reporting
    dropped_clients: list[int] = field(default_factory=list)
    #: ids of participants whose train/transfer time was straggler-inflated
    straggler_clients: list[int] = field(default_factory=list)
    #: per-client compression statistics, keyed by client id (empty when the
    #: codec collects none, e.g. the uncompressed baseline)
    client_reports: dict[int, FedSZReport] = field(default_factory=dict)
    #: per-client compression plans, keyed by client id (empty for codecs that
    #: report none); under a bandwidth-aware policy on a heterogeneous fleet
    #: these differ client to client — the per-link selection made visible
    client_plans: dict[int, CompressionPlan] = field(default_factory=dict)
    #: ids of clients whose modeled transfer missed the round deadline; their
    #: updates were queued for the staleness policy instead of aggregated
    late_clients: list[int] = field(default_factory=list)
    #: late updates absorbed into this round's aggregate: client id -> the
    #: round the update was trained in (empty without a staleness window)
    absorbed_clients: dict[int, int] = field(default_factory=dict)
    #: ids of participants that shipped delta-framed residuals this round
    #: (empty without a delta codec).  Deterministic — journaled and replayed
    delta_clients: list[int] = field(default_factory=list)
    #: participants that fell back to a full-state ship this round, mapped to
    #: the degrade reason (``cold`` / ``dropout`` / ``late`` /
    #: ``roster-change`` / ``resume-loss`` / ``replay-loss``).  Deterministic
    #: — journaled and replayed
    delta_degrades: dict[int, str] = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        """Aggregate upload compression ratio across all clients this round."""
        return self.uncompressed_bytes / self.transmitted_bytes if self.transmitted_bytes else 1.0


def deterministic_fields(result: "SimulationResult") -> "list[tuple]":
    """Per round, every field a seeded run must reproduce bit-for-bit.

    The fields a journal replays as deterministic: the round index,
    accuracy, both byte counts, the modeled communication time, the client
    losses, the participant/dropped/straggler/late lists, the absorbed late
    updates and the delta ships and degrades.  Wall-clock measurements and
    the reports are left out, so two runs compare with ``==`` on the
    returned lists.
    """
    return [(r.round_index, r.accuracy, r.uncompressed_bytes,
             r.transmitted_bytes,
             r.communication_seconds, tuple(r.client_losses),
             tuple(r.participants), tuple(r.dropped_clients),
             tuple(r.straggler_clients), tuple(r.late_clients),
             tuple(sorted(r.absorbed_clients.items())),
             tuple(r.delta_clients), tuple(sorted(r.delta_degrades.items())))
            for r in result.rounds]


@dataclass
class SimulationResult:
    """All rounds of one federated run plus the configuration context."""

    codec_name: str
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        """Validation accuracy after the last round (0.0 when no rounds ran)."""
        return self.rounds[-1].accuracy if self.rounds else 0.0

    @property
    def accuracies(self) -> list[float]:
        """Per-round validation accuracies (the Figure 4 series)."""
        return [r.accuracy for r in self.rounds]

    @property
    def total_transmitted_bytes(self) -> int:
        """Total client→server upload volume over the run."""
        return sum(r.transmitted_bytes for r in self.rounds)

    @property
    def total_communication_seconds(self) -> float:
        """Total modeled client→server transfer time over the run."""
        return sum(r.communication_seconds for r in self.rounds)

    @property
    def mean_compression_ratio(self) -> float:
        """Mean of the per-round aggregate compression ratios."""
        if not self.rounds:
            return 1.0
        return float(np.mean([r.compression_ratio for r in self.rounds]))
