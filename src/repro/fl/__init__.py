"""Federated-learning substrate: FedAvg clients, server, and round orchestration.

This package stands in for the APPFL + gRPC/MPI stack the paper builds on.  It
keeps the same moving parts: clients train locally with SGD, serialize their
``state_dict`` through an :class:`~repro.fl.codec.UpdateCodec` (raw or FedSZ),
ship it across a :class:`~repro.core.network.NetworkModel`, and a FedAvg server
decodes, aggregates, and evaluates the global model each round.
"""

from repro.fl.client import ClientUpdate, FLClient
from repro.fl.codec import FedSZUpdateCodec, RawUpdateCodec, UpdateCodec
from repro.fl.coordinator import (
    Coordinator,
    PartialAggregate,
    RoundJournal,
    RoundPlan,
    RoundScheduler,
    SimulatedTransport,
)
from repro.fl.scaling import (
    ScalingResult,
    scaling_speedups,
    simulate_strong_scaling,
    simulate_weak_scaling,
)
from repro.fl.server import FedAvgServer, evaluate_model, fedavg_aggregate
from repro.fl.simulation import (
    FederatedSimulation,
    RoundRecord,
    SimulationResult,
    train_clients_parallel,
)
from repro.utils.parallel import map_parallel, resolve_worker_count

__all__ = [
    "FLClient",
    "ClientUpdate",
    "UpdateCodec",
    "RawUpdateCodec",
    "FedSZUpdateCodec",
    "FedAvgServer",
    "fedavg_aggregate",
    "evaluate_model",
    "FederatedSimulation",
    "RoundRecord",
    "SimulationResult",
    "map_parallel",
    "resolve_worker_count",
    "train_clients_parallel",
    "ScalingResult",
    "scaling_speedups",
    "simulate_weak_scaling",
    "simulate_strong_scaling",
    "Coordinator",
    "RoundScheduler",
    "RoundPlan",
    "PartialAggregate",
    "RoundJournal",
    "SimulatedTransport",
]
