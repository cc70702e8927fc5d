"""Coordinator service layer: scheduling, transport, aggregation, durability.

The round engine that used to live as one monolithic loop inside
``fl/simulation.py`` is decomposed here into small, separately-testable
services — :class:`RoundScheduler` (seeded scenario draws),
:class:`SimulatedTransport` (encode → transfer → decode over the execution
backend's pool), :func:`weighted_mean_states` (the compensated FedAvg kernel
behind ``FedAvgServer.aggregate``), :class:`RoundJournal` (durable, resumable
rounds),
:class:`StalenessPolicy` (late-update admission), and the
:class:`Coordinator` that composes them: one ship path, one aggregation per
round after lateness triage, and one persistent worker pool per run.
``FederatedSimulation`` remains the thin synchronous facade over this package.
"""

from repro.fl.coordinator.aggregator import (PartialAggregate,
                                             weighted_mean_states)
from repro.fl.coordinator.coordinator import (Coordinator,
                                              train_clients_parallel)
from repro.fl.coordinator.journal import (JournalState, PartialRoundState,
                                          RoundJournal, ShippedEvent)
from repro.fl.coordinator.records import (RoundRecord, SimulationResult,
                                          deterministic_fields)
from repro.fl.coordinator.scheduler import (RoundPlan, RoundScheduler,
                                            StalenessPolicy,
                                            resolve_scenario_seed)
from repro.fl.coordinator.transport import (ShipResult, ShipTask,
                                            SimulatedTransport,
                                            ship_update_task)

__all__ = [
    "PartialAggregate", "weighted_mean_states",
    "Coordinator", "train_clients_parallel",
    "RoundJournal", "JournalState", "PartialRoundState", "ShippedEvent",
    "RoundRecord", "SimulationResult", "deterministic_fields",
    "RoundScheduler", "RoundPlan", "StalenessPolicy", "resolve_scenario_seed",
    "SimulatedTransport", "ShipTask", "ShipResult",
    "ship_update_task",
]
