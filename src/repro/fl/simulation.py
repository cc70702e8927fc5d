"""Round-by-round federated simulation — the facade over the coordinator services.

:class:`FederatedSimulation` keeps the historic synchronous API (construct,
``plan_round``, ``run_round``, ``run``) and its bit-exact seeded outputs, but
the round engine itself now lives in :mod:`repro.fl.coordinator`:

* :class:`~repro.fl.coordinator.scheduler.RoundScheduler` owns the seeded
  scenario draws (participation sampling, dropouts, stragglers),
* :class:`~repro.fl.coordinator.transport.SimulatedTransport` owns the
  encode → transfer → decode pipeline (Eqn. 1's ``t_C + S'/B + t_D``, in
  that order), pooled over the execution backend,
* :class:`~repro.fl.server.FedAvgServer` aggregates once per round through
  the compensated FedAvg kernel
  (:func:`~repro.fl.coordinator.aggregator.weighted_mean_states`),
* :class:`~repro.fl.coordinator.journal.RoundJournal` makes rounds durable
  (``journal_dir``): a run killed mid-round resumes (``resume=True``) and
  produces the same records as an uninterrupted run,
* :class:`~repro.fl.coordinator.scheduler.StalenessPolicy` governs updates
  that miss ``round_deadline_s`` (``max_staleness`` rounds of grace),
* and the :class:`~repro.fl.coordinator.coordinator.Coordinator` composes them.

Round-engine knobs (all default to the original strictly-sequential,
full-participation semantics, which the test suite pins bit-for-bit):

* ``max_workers`` / ``backend`` — client training and the per-client
  encode → transfer → decode pipeline fan out over an
  :class:`~repro.utils.parallel.ExecutionBackend` pool of this size
  (``serial`` / ``thread`` / ``process``); every backend/worker combination
  reproduces the sequential reference bit-for-bit.
* ``participation`` — clients sampled per round: a float in ``(0, 1]`` is a
  fraction of the fleet, an int ``> 1`` an absolute count.
* ``dropout_prob`` — probability that a sampled client is unavailable this
  round (its update never arrives and contributes no bytes).
* ``straggler_prob`` / ``straggler_slowdown`` — probability that a surviving
  client straggles, multiplying its reported training and transfer time.
* ``networks`` — optional per-client heterogeneous links; each client's codec
  is resolved against its own link through
  :meth:`~repro.fl.codec.UpdateCodec.for_network`.
* ``uplink`` — ``"serial"`` (shared uplink: round communication time is the
  sum) or ``"parallel"`` (independent links: the max).
* ``compute_factors`` — optional per-client device-speed factors (reported
  train time scaling only).
* ``journal_dir`` / ``resume`` — durable rounds on disk; see FORMATS.md for
  the journal layout.
* ``round_deadline_s`` / ``max_staleness`` — late-update triage; the default
  (no deadline) changes nothing.
* ``delta`` — wrap every client codec in the v5 error-feedback delta codec
  (:class:`~repro.fl.delta.DeltaUpdateCodec`): from each client's second
  consecutive participation onward it ships the residual against the
  current broadcast state instead of the full state, with per-client error
  feedback keeping the reconstruction inside the configured bound.  Clients
  without a valid reference (first round, after a dropout or late ship,
  after a roster change, after a lost resume sidecar) degrade to a
  full-state frame — visible per round on ``RoundRecord.delta_degrades``.

:meth:`run` backs the whole run with one long-lived worker pool and, on
pickling backends, worker-resident client shards (train tasks ship O(model
state), not O(dataset shard)); every round aggregates once, after lateness
triage.

``seed=None`` now draws one fresh scenario seed and derives *everything*
(partitioning, client seeds, scenario draws) from it, so even an unseeded run
is internally consistent — and reproducible after the fact when journaled.
"""

from __future__ import annotations

import copy
from typing import Sequence

from repro.core.network import UPLINK_MODES, NetworkModel
from repro.data.datasets import Dataset
from repro.data.partition import partition_dataset
from repro.fl.client import FLClient
from repro.fl.codec import FedSZUpdateCodec, RawUpdateCodec, UpdateCodec
from repro.fl.coordinator.coordinator import (Coordinator,
                                              train_clients_parallel)
from repro.fl.coordinator.journal import RoundJournal
from repro.fl.coordinator.records import RoundRecord, SimulationResult
from repro.fl.coordinator.scheduler import (RoundScheduler, StalenessPolicy,
                                            resolve_scenario_seed)
from repro.fl.coordinator.transport import SimulatedTransport
from repro.fl.delta import DeltaUpdateCodec
from repro.fl.server import FedAvgServer
from repro.nn.module import Module
from repro.utils.parallel import ExecutionBackend, get_backend

__all__ = ["RoundRecord", "SimulationResult", "FederatedSimulation",
           "train_clients_parallel"]


def _delta_client_codec(codec: UpdateCodec) -> DeltaUpdateCodec:
    """One client's delta wrapper around a *private* inner codec.

    The delta codec arms per-ship state (REL-bound scales, the delta hint)
    onto its inner compressor, so clients cannot share an inner
    instance the way link-agnostic codecs otherwise do.  FedSZ inners keep
    sharing the plan policy (and through it the profiler cache) — only the
    compressor shell is per-client.
    """
    if isinstance(codec, FedSZUpdateCodec):
        inner: UpdateCodec = FedSZUpdateCodec(codec.config,
                                              policy=codec.compressor.policy)
    elif isinstance(codec, RawUpdateCodec):
        inner = RawUpdateCodec()
    else:
        inner = copy.deepcopy(codec)
    return DeltaUpdateCodec(inner)


class FederatedSimulation:
    """FedAvg over simulated clients with a configurable update codec."""

    def __init__(self, model_factory, train_dataset: Dataset, test_dataset: Dataset,
                 n_clients: int = 4, codec: UpdateCodec | None = None,
                 network: NetworkModel | None = None, partition_scheme: str = "iid",
                 dirichlet_alpha: float = 0.5, local_epochs: int = 1,
                 batch_size: int = 32, lr: float = 0.05, momentum: float = 0.9,
                 seed: int | None = 0, max_workers: int | None = 1,
                 participation: float | int = 1.0, dropout_prob: float = 0.0,
                 straggler_prob: float = 0.0, straggler_slowdown: float = 4.0,
                 networks: Sequence[NetworkModel] | None = None,
                 uplink: str = "serial",
                 compute_factors: Sequence[float] | None = None,
                 backend: "str | ExecutionBackend" = "thread",
                 journal_dir=None, resume: bool = False,
                 round_deadline_s: float | None = None,
                 max_staleness: int = 0, delta: bool = False) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.backend = get_backend(backend)  # unknown names raise ValueError
        if uplink not in UPLINK_MODES:
            raise ValueError(f"uplink must be one of {UPLINK_MODES}, got {uplink!r}")
        if resume and journal_dir is None:
            raise ValueError("resume=True requires journal_dir")
        # the scheduler carries the scenario validation (identical messages to
        # the historic inline checks); the seed is patched in below once known
        scheduler_probe = RoundScheduler(n_clients, participation, dropout_prob,
                                         straggler_prob, seed=0)
        if straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1.0")
        if networks is not None and len(networks) != n_clients:
            raise ValueError(f"networks must have one entry per client ({n_clients}), got {len(networks)}")
        if compute_factors is not None and len(compute_factors) != n_clients:
            raise ValueError(f"compute_factors must have one entry per client ({n_clients})")

        self.model_factory = model_factory
        self.codec = codec or RawUpdateCodec()
        self.network = network or NetworkModel(bandwidth_mbps=10.0)
        self.local_epochs = int(local_epochs)
        self.test_dataset = test_dataset
        self.max_workers = max_workers
        self.participation = participation
        self.dropout_prob = float(dropout_prob)
        self.straggler_prob = float(straggler_prob)
        self.straggler_slowdown = float(straggler_slowdown)
        self.uplink = uplink
        self.client_networks = list(networks) if networks is not None \
            else [self.network] * n_clients
        # one codec per client, resolved against that client's uplink: a no-op
        # for link-agnostic codecs (for_network returns the shared instance),
        # per-link plan policies for the bandwidth-aware ones
        self.client_codecs = [self.codec.for_network(net)
                              for net in self.client_networks]
        self.delta = bool(delta)
        if self.delta:
            self.client_codecs = [_delta_client_codec(c)
                                  for c in self.client_codecs]

        # durable rounds: open (or reopen) the journal before anything seeded
        # happens, because a resumed run takes its scenario seed from the
        # journal — including runs originally launched with seed=None
        self.journal = RoundJournal(journal_dir, resume=resume) \
            if journal_dir is not None else None
        journal_state = self.journal.load() if resume else None
        if journal_state is not None and seed is not None \
                and int(seed) != journal_state.scenario_seed:
            raise ValueError(f"journal scenario seed {journal_state.scenario_seed} "
                             f"does not match this run's seed {seed}")
        self._scenario_seed = journal_state.scenario_seed \
            if journal_state is not None else resolve_scenario_seed(seed)

        self.scheduler = scheduler_probe
        self.scheduler.seed = self._scenario_seed

        # every seeded quantity derives from the one scenario seed: with an
        # explicit seed this reproduces the historic behaviour exactly, and
        # with seed=None the partition and the per-client seeds now follow the
        # drawn scenario seed instead of silently pinning to seed 0
        shards = partition_dataset(train_dataset, n_clients, scheme=partition_scheme,
                                   alpha=dirichlet_alpha, seed=self._scenario_seed)
        factors = list(compute_factors) if compute_factors is not None else [1.0] * n_clients
        self.clients = [
            FLClient(client_id=i, model=model_factory(), dataset=shard,
                     batch_size=batch_size, lr=lr, momentum=momentum,
                     seed=self._scenario_seed + i,
                     compute_factor=factors[i])
            for i, shard in enumerate(shards)
        ]
        global_model: Module = model_factory()
        self.server = FedAvgServer(global_model, test_dataset)

        self.transport = SimulatedTransport(backend=self.backend,
                                            max_workers=max_workers)
        self.coordinator = Coordinator(
            clients=self.clients, server=self.server, scheduler=self.scheduler,
            transport=self.transport, client_codecs=self.client_codecs,
            client_networks=self.client_networks,
            codec_name=f"delta+{self.codec.name}" if self.delta else self.codec.name,
            local_epochs=self.local_epochs,
            straggler_slowdown=self.straggler_slowdown, uplink=uplink,
            backend=self.backend, max_workers=max_workers,
            round_deadline_s=round_deadline_s,
            staleness=StalenessPolicy(max_staleness=max_staleness),
            journal=self.journal, journal_state=journal_state)

    # ------------------------------------------------------------------
    @property
    def _full_participation(self) -> bool:
        return self.scheduler.full_participation

    def _participation_count(self) -> int:
        return self.scheduler.participation_count()

    def plan_round(self, round_index: int) -> tuple[list[int], list[int], list[int]]:
        """Seeded scenario draw for one round: (participants, dropped, stragglers).

        Delegates to the :class:`RoundScheduler`; the historic three-list
        return shape is preserved.
        """
        return self.scheduler.plan_round(round_index).as_tuple()

    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one communication round and return its measurements."""
        return self.coordinator.run_round(round_index)

    def run(self, n_rounds: int = 10) -> SimulationResult:
        """Run ``n_rounds`` communication rounds and collect the records.

        When resuming from a journal, already-completed rounds replay from
        disk and only the remainder executes live — the combined result is
        identical on every deterministic field to an uninterrupted run.
        """
        return self.coordinator.run(n_rounds)


def make_fedsz_simulation(model_factory, train_dataset: Dataset, test_dataset: Dataset,
                          error_bound: float = 1e-2, **kwargs) -> FederatedSimulation:
    """Convenience constructor wiring a FedSZ codec at the given error bound."""
    from repro.core.config import FedSZConfig

    codec = FedSZUpdateCodec(FedSZConfig(error_bound=error_bound))
    return FederatedSimulation(model_factory, train_dataset, test_dataset, codec=codec, **kwargs)
