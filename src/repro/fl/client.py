"""Federated learning client: local SGD on a private shard."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import Dataset
from repro.data.loader import BatchLoader
from repro.nn.layers import Dropout
from repro.nn.loss import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD

__all__ = ["FLClient", "ClientUpdate"]


@dataclass
class ClientUpdate:
    """What a client hands back to the orchestrator after local training."""

    client_id: int
    state: dict[str, np.ndarray]
    num_samples: int
    train_seconds: float
    train_loss: float
    metadata: dict = field(default_factory=dict)


class FLClient:
    """One federated client with a local dataset and a private model replica.

    A local fit reports its measured host time as ``train_seconds``; the
    coordinator inflates a straggler's when it records the round.
    """

    def __init__(self, client_id: int, model: Module, dataset: Dataset,
                 batch_size: int = 32, lr: float = 0.05, momentum: float = 0.9,
                 weight_decay: float = 0.0, seed: int | None = None) -> None:
        self.client_id = int(client_id)
        self.model = model
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.seed = seed if seed is not None else client_id
        self.loss_fn = CrossEntropyLoss()

    @property
    def num_samples(self) -> int:
        """Size of the client's local shard."""
        return len(self.dataset)

    def receive_global(self, state: dict[str, np.ndarray]) -> None:
        """Load the server's global model into the local replica."""
        self.model.load_state_dict(state)

    def _loader_seed(self, round_index: int) -> int:
        """Batch-shuffle seed for one round of local training.

        Round 0 reproduces the historic order (``self.seed`` verbatim); later
        rounds mix the round index in through a splitmix-style odd constant so
        every round sees a fresh permutation instead of replaying the same
        batch order against an updated model.  Purely a function of
        ``(seed, round_index)``, so resumed runs retrain identically.
        """
        if round_index == 0:
            return self.seed
        return (self.seed + round_index * 0x9E3779B97F4A7C15) % (2 ** 63)

    def train_local(self, epochs: int = 1, round_index: int = 0) -> ClientUpdate:
        """Run ``epochs`` of local SGD and return the updated state dict.

        Dropout masks come from one generator seeded by ``(seed,
        round_index)`` alone, like the batch order, so a round retrains the
        same on a resumed run, on a fresh replica and on any pool thread.
        Each backward releases what its forward cached, so the replica
        holds no training arrays between rounds.
        """
        start = time.perf_counter()
        self.model.train(True)
        optimizer = SGD(self.model.parameters(), lr=self.lr, momentum=self.momentum,
                        weight_decay=self.weight_decay)
        loader_seed = self._loader_seed(round_index)
        loader = BatchLoader(self.dataset, batch_size=self.batch_size, shuffle=True,
                             seed=loader_seed)
        masks = np.random.default_rng([loader_seed, 1])
        for module in self.model.modules():
            if isinstance(module, Dropout):
                module.rng = masks
        last_loss = float("nan")
        for _ in range(epochs):
            for images, labels in loader:
                logits = self.model(images)
                last_loss = self.loss_fn(logits, labels)
                self.model.zero_grad()
                self.model.backward(self.loss_fn.backward())
                optimizer.step()
        elapsed = time.perf_counter() - start
        return ClientUpdate(
            client_id=self.client_id,
            state=self.model.state_dict(),
            num_samples=self.num_samples,
            train_seconds=elapsed,
            train_loss=float(last_loss),
        )

    def evaluate(self, dataset: Dataset | None = None, batch_size: int = 128) -> float:
        """Top-1 accuracy of the local model on ``dataset`` (default: own shard).

        Runs :func:`~repro.fl.server.evaluate_model`, which restores the
        model's training/evaluation mode on exit.
        """
        # imported here: fl.server imports the coordinator, which imports this module
        from repro.fl.server import evaluate_model

        return evaluate_model(self.model, dataset or self.dataset, batch_size)
