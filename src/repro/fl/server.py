"""FedAvg server: weighted aggregation of client updates and global evaluation.

The round coordinator calls :meth:`FedAvgServer.aggregate` exactly once per
round, after it has triaged late updates, with the on-time states plus any
admitted late ones.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.data.datasets import Dataset
from repro.data.loader import BatchLoader
from repro.fl.coordinator.aggregator import weighted_mean_states
from repro.nn.module import Module

__all__ = ["fedavg_aggregate", "evaluate_model", "FedAvgServer"]


def fedavg_aggregate(states: Sequence[dict[str, np.ndarray]],
                     weights: Sequence[float] | None = None) -> "OrderedDict[str, np.ndarray]":
    """Weighted average of client state dicts (McMahan et al.'s FedAvg).

    All state dicts must share the same keys and shapes.  ``weights`` defaults
    to uniform; they are normalized internally, so passing raw sample counts is
    the standard usage.  With partial participation the average runs over
    whatever subset of clients reported in (an *empty* round is handled by
    :meth:`FedAvgServer.aggregate` with ``allow_empty=True``).

    Routes through the compensated kernel in
    :mod:`repro.fl.coordinator.aggregator`: every client folds, in order,
    into one double-double partial sum.  Integer-dtype entries round to
    nearest on the cast back (the historic ``astype`` truncated toward zero,
    biasing counters low every round).
    """
    return weighted_mean_states(states, weights)


def evaluate_model(model: Module, dataset: Dataset, batch_size: int = 128) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (evaluation mode).

    The model's training/evaluation mode is restored to whatever it was on
    entry, so evaluating never clobbers a caller that already ran ``eval()``.
    """
    was_training = model.training
    model.train(False)
    correct = 0
    loader = BatchLoader(dataset, batch_size=batch_size, shuffle=False)
    for images, labels in loader:
        predictions = model(images).argmax(axis=1)
        correct += int((predictions == labels).sum())
    model.train(was_training)
    return correct / max(len(dataset), 1)


class FedAvgServer:
    """Holds the global model and coordinates aggregation/validation.

    Aggregation is :func:`fedavg_aggregate`, applied to the global model.
    """

    def __init__(self, model: Module, test_dataset: Dataset | None = None) -> None:
        self.model = model
        self.test_dataset = test_dataset

    def global_state(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of the current global state dict."""
        return self.model.state_dict()

    def aggregate(self, states: Sequence[dict[str, np.ndarray]],
                  weights: Sequence[float] | None = None,
                  allow_empty: bool = False) -> "OrderedDict[str, np.ndarray]":
        """FedAvg the client states into the global model and return the new state.

        ``states`` may be any sampled subset of the fleet (partial
        participation); with ``allow_empty=True`` a round in which every client
        dropped out leaves the global model unchanged instead of raising.
        """
        if not states and allow_empty:
            # nothing arrived: the global model carries over untouched (and
            # the non-empty common case never pays for a state-dict copy)
            return self.global_state()
        new_state = fedavg_aggregate(states, weights)
        self.model.load_state_dict(new_state)
        return new_state

    def evaluate(self, dataset: Dataset | None = None, batch_size: int = 128) -> float:
        """Top-1 accuracy of the global model on the held-out set.

        An explicitly passed ``dataset`` is always evaluated as given — even
        an empty one is not silently swapped for the configured test set.
        """
        target = dataset if dataset is not None else self.test_dataset
        if target is None:
            raise ValueError("no evaluation dataset configured")
        return evaluate_model(self.model, target, batch_size=batch_size)
