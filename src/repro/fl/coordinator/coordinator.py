"""The round coordinator: scheduler + transport + aggregator + journal.

:class:`Coordinator` runs the paper's synchronous FedAvg round: every
surviving participant trains, ships ``t_C + S'/B + t_D`` (Eqn. 1), and the
server aggregates all of them once.  It composes

* a :class:`~repro.fl.coordinator.scheduler.RoundScheduler` (seeded scenario
  draws),
* a :class:`~repro.fl.coordinator.transport.SimulatedTransport` (encode →
  transfer → decode, pooled over the thread pool),
* a :class:`~repro.fl.server.FedAvgServer` whose aggregation routes through
  :func:`~repro.fl.coordinator.aggregator.weighted_mean_states`, called once
  per round over every participant's update, and
* an optional :class:`~repro.fl.coordinator.journal.RoundJournal` for durable,
  resumable rounds.

Determinism contract: every quantity that decides *numerics* (scenario draws,
batch order, aggregation order) is a pure function of the scenario seed and
the round index — never of wall clock or worker count.  Wall-clock
measurements (train/encode/decode seconds) ride along as data.  That is what
makes a journal resume bit-identical on every deterministic field: completed
rounds replay from their records, the interrupted round re-derives its plan,
replays already-shipped payloads (decode is deterministic), and re-trains
only the clients that never shipped (training is a pure function of global
state, shard, seed, and round index: the replica's state is overwritten
before every local fit, and the batch order and dropout masks are seeded by
the client seed and round index alone).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.network import round_communication_time
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.coordinator.journal import JournalState, RoundJournal, ShippedEvent
from repro.fl.coordinator.records import RoundRecord, SimulationResult
from repro.fl.coordinator.scheduler import RoundScheduler
from repro.fl.coordinator.transport import (ShipResult, ShipTask,
                                            SimulatedTransport)
from repro.fl.delta import DeltaTracker, DeltaUpdateCodec
from repro.utils.parallel import POOL, map_parallel

# NOTE: fl/server.py imports the aggregation kernel from this package, so this
# module must not import fl.server back at runtime — the server below is typed
# by its duck interface (global_state / aggregate / evaluate / model).

__all__ = ["Coordinator", "train_clients_parallel"]


def train_clients_parallel(clients: Sequence[FLClient], global_state: dict,
                           epochs: int = 1, max_workers: "int | None" = None,
                           round_index: int = 0) -> "list[ClientUpdate]":
    """Broadcast ``global_state`` to every client and train them concurrently.

    Returns the per-client :class:`ClientUpdate` objects in client order, ready
    for FedAvg aggregation.  The broadcast happens inside each task (clients
    are independent, so receive-then-train per client is bit-identical to a
    global broadcast followed by training).  Each client owns a private model
    replica (and ``receive_global`` copies the broadcast arrays), so no state
    is shared between training workers.  ``round_index`` is mixed into each
    client's batch-shuffle seed so successive rounds see fresh batch orders
    (round 0 reproduces the historic order); training is a pure function of
    ``(global_state, shard, seed, round_index)``, since even the dropout masks
    are re-seeded per round by :meth:`~repro.fl.client.FLClient.train_local`.
    """
    def train(client: FLClient) -> ClientUpdate:
        client.receive_global(global_state)
        return client.train_local(epochs=epochs, round_index=round_index)

    return map_parallel(train, clients, max_workers)


@dataclass
class _Shipment:
    """One client's completed ship this round plus its training measurements."""

    result: ShipResult
    train_seconds: float  # raw (un-inflated) — stragglers are scaled at record time
    train_loss: float
    num_samples: int


class Coordinator:
    """Runs federated rounds by composing the coordinator services.

    Construction wires the services together; :meth:`run_round` executes one
    round (training → transport → aggregation → validation → journal), and
    :meth:`run` produces a :class:`SimulationResult`, replaying journaled
    rounds first when resuming.
    """

    def __init__(self, *, clients: Sequence[FLClient], server,
                 scheduler: RoundScheduler, transport: SimulatedTransport,
                 client_codecs: Sequence, client_networks: Sequence,
                 codec_name: str, local_epochs: int = 1,
                 straggler_slowdown: float = 4.0, uplink: str = "serial",
                 max_workers: "int | None" = 1,
                 journal: "RoundJournal | None" = None,
                 journal_state: "JournalState | None" = None) -> None:
        self.clients = list(clients)
        self.server = server
        self.scheduler = scheduler
        self.transport = transport
        self.client_codecs = list(client_codecs)
        self.client_networks = list(client_networks)
        self.codec_name = codec_name
        self.local_epochs = int(local_epochs)
        self.straggler_slowdown = float(straggler_slowdown)
        self.uplink = uplink
        self.max_workers = max_workers
        self.journal = journal
        # cross-round delta state: one tracker over every delta-wrapped codec
        # (None when the fleet ships plain updates — zero behavior change)
        delta_codecs = {cid: codec
                        for cid, codec in enumerate(self.client_codecs)
                        if isinstance(codec, DeltaUpdateCodec)}
        self._delta = DeltaTracker(delta_codecs) if delta_codecs else None

        self._run_started = False
        self._completed: "list[RoundRecord]" = []
        self._partial = None
        if journal_state is not None:
            if journal is None:
                raise ValueError("journal_state requires a journal to replay from")
            self._restore(journal_state)

    # -- resume ------------------------------------------------------------
    def _restore(self, state: JournalState) -> None:
        """Adopt a journal's replayed state: records, delta channels, snapshot."""
        if state.codec_name != self.codec_name:
            raise ValueError(f"journal was written by codec {state.codec_name!r}, "
                             f"this run uses {self.codec_name!r}")
        if state.n_clients != len(self.clients):
            raise ValueError(f"journal expects {state.n_clients} clients, "
                             f"this run has {len(self.clients)}")
        if state.scenario_seed != self.scheduler.seed:
            raise ValueError(f"journal scenario seed {state.scenario_seed} does not "
                             f"match this run's seed {self.scheduler.seed}")
        self._completed = list(state.records)
        self._partial = state.partial
        if self._delta is not None:
            self._delta.restore(state.delta_state, self.journal.read_sidecar)
        self.server.model.load_state_dict(
            self.journal.load_snapshot(state.snapshot_path))
        self._run_started = True  # the journaled header already exists

    def _materialize(self, event: ShippedEvent) -> _Shipment:
        """Rebuild a shipped update from the journal instead of re-running it."""
        payload = self.journal.read_payload(event)
        state = self.client_codecs[event.client_id].decode(payload)
        if self._delta is not None:
            self._delta.adopt_replayed(event.client_id,
                                       self.journal.read_sidecar(event.delta_path))
        result = ShipResult(client_id=event.client_id,
                            payload_bytes=event.payload_bytes,
                            raw_bytes=event.raw_bytes,
                            encode_seconds=event.encode_seconds,
                            transfer_seconds=event.transfer_seconds,
                            decode_seconds=event.decode_seconds,
                            state=state, report=event.rebuild_report())
        return _Shipment(result, event.train_seconds, event.train_loss,
                         event.num_samples)

    # -- execution ---------------------------------------------------------
    def _ensure_run_started(self) -> None:
        if self.journal is not None and not self._run_started:
            self.journal.begin_run(self.codec_name, self.scheduler.seed,
                                   len(self.clients), self.server.global_state())
            self._run_started = True

    def _roster_signature(self) -> tuple:
        """Fingerprint of the client roster, for the delta tracker.

        Identity-based on purpose: replacing a client (or its dataset shard)
        with a different object between rounds invalidates every delta
        channel (``roster-change``) even if the new one compares equal.
        """
        return tuple((client.client_id, id(client), id(client.dataset))
                     for client in self.clients)

    def run_round(self, round_index: int) -> RoundRecord:
        """Execute one communication round and return its measurements."""
        self._ensure_run_started()
        global_state = self.server.global_state()
        plan = self.scheduler.plan_round(round_index)

        # when resuming into a partially-journaled round, replay what shipped
        replayed: "dict[int, ShippedEvent]" = {}
        resumed = False
        if self._partial is not None and self._partial.plan.round_index == round_index:
            if self._partial.plan != plan:
                raise ValueError(f"journaled plan for round {round_index} does not "
                                 f"match the scheduler's draw — seed or scenario "
                                 f"knobs changed between runs")
            replayed = self._partial.shipped
            self._partial = None
            resumed = True
        if self.journal is not None:
            self.journal.begin_round(plan, resumed=resumed)
        if self._delta is not None:
            # arm every participant's codec against this round's broadcast
            # (delta when the channel is warm, full otherwise) and invalidate
            # dropped clients — before training, replay, and shipping
            self._delta.begin_round(round_index, global_state, plan,
                                    self._roster_signature())

        straggler_set = set(plan.stragglers)
        fresh_ids = [cid for cid in plan.participants if cid not in replayed]
        updates = train_clients_parallel(
            [self.clients[cid] for cid in fresh_ids], global_state,
            epochs=self.local_epochs, max_workers=self.max_workers,
            round_index=round_index)

        keep_payload = self.journal is not None
        tasks = [
            ShipTask(client_id=cid, state=update.state,
                     codec=self.client_codecs[cid],
                     network=self.client_networks[cid],
                     straggler_slowdown=self.straggler_slowdown
                     if cid in straggler_set else 1.0,
                     keep_payload=keep_payload)
            for cid, update in zip(fresh_ids, updates)
        ]

        shipments = {cid: self._materialize(event)
                     for cid, event in replayed.items()}
        results = self.transport.ship_batch(tasks) if tasks else []
        for cid, update, result in zip(fresh_ids, updates, results):
            shipments[cid] = _Shipment(result, update.train_seconds,
                                       update.train_loss, update.num_samples)
            # the delta tracker's journal sidecar (generation + accumulator);
            # None without a delta codec or a journal
            sidecar = None
            if self._delta is not None:
                sidecar = self._delta.complete_ship(
                    cid, update.state, result.state,
                    sidecar=self.journal is not None)
            if self.journal is not None:
                self.journal.record_shipped(
                    round_index, result, update.train_seconds,
                    update.train_loss, update.num_samples,
                    delta_sidecar=sidecar)

        ordered = [shipments[cid] for cid in plan.participants]
        self.server.aggregate([s.result.state for s in ordered],
                              [s.num_samples for s in ordered], allow_empty=True)

        start = time.perf_counter()
        accuracy = self.server.evaluate()
        validation_seconds = time.perf_counter() - start

        delta_clients: "list[int]" = []
        delta_degrades: "dict[int, str]" = {}
        if self._delta is not None:
            delta_clients, delta_degrades = self._delta.round_summary()
            # release the armed references/accumulators — parked codecs must
            # not pin this round's broadcast state in memory
            self._delta.disarm_all()

        train_times = [
            shipment.train_seconds
            * (self.straggler_slowdown if cid in straggler_set else 1.0)
            for cid, shipment in zip(plan.participants, ordered)
        ]
        client_reports = {cid: shipments[cid].result.report
                          for cid in plan.participants
                          if shipments[cid].result.report is not None}

        def _mean(values: "list[float]") -> float:
            return float(np.mean(values)) if values else 0.0

        record = RoundRecord(
            round_index=round_index,
            accuracy=accuracy,
            mean_train_seconds=_mean(train_times),
            mean_encode_seconds=_mean([s.result.encode_seconds for s in ordered]),
            mean_decode_seconds=_mean([s.result.decode_seconds for s in ordered]),
            validation_seconds=validation_seconds,
            uncompressed_bytes=sum(s.result.raw_bytes for s in ordered),
            transmitted_bytes=sum(s.result.payload_bytes for s in ordered),
            communication_seconds=round_communication_time(
                [s.result.transfer_seconds for s in ordered], self.uplink),
            client_losses=[s.train_loss for s in ordered],
            participants=list(plan.participants),
            dropped_clients=list(plan.dropped),
            straggler_clients=list(plan.stragglers),
            client_reports=client_reports,
            delta_clients=delta_clients,
            delta_degrades=delta_degrades,
        )
        if self.journal is not None:
            self.journal.complete_round(record, self.server.global_state())
        return record

    def run(self, n_rounds: int = 10) -> SimulationResult:
        """Run (or resume) ``n_rounds`` rounds and collect the records.

        Rounds already completed in the journal replay as-is; the interrupted
        round (if any) resumes from its journaled ships; the rest run live,
        all on one persistent thread pool
        (:meth:`~repro.utils.parallel.ExecutionBackend.persistent`) instead of
        a fresh pool per training and shipping map.  The journal's log is
        closed when ``run`` returns or raises; a later ``run`` reopens it.
        """
        try:
            result = SimulationResult(codec_name=self.codec_name)
            result.rounds.extend(self._completed[:n_rounds])
            if len(result.rounds) >= n_rounds:
                return result
            with POOL.persistent(self.max_workers):
                for round_index in range(len(result.rounds), n_rounds):
                    result.rounds.append(self.run_round(round_index))
            return result
        finally:
            if self.journal is not None:
                self.journal.close()
