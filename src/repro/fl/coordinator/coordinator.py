"""The round coordinator: scheduler + transport + aggregator + journal.

:class:`Coordinator` is the service-layer replacement for the monolithic round
loop that used to live inside ``FederatedSimulation.run_round``.  It composes

* a :class:`~repro.fl.coordinator.scheduler.RoundScheduler` (seeded scenario
  draws),
* a :class:`~repro.fl.coordinator.transport.SimulatedTransport` (encode →
  transfer → decode, pooled over the execution backend),
* a :class:`~repro.fl.server.FedAvgServer` whose aggregation routes through
  :func:`~repro.fl.coordinator.aggregator.weighted_mean_states`, called once
  per round after lateness triage,
* an optional :class:`~repro.fl.coordinator.journal.RoundJournal` for durable,
  resumable rounds, and
* a :class:`~repro.fl.coordinator.scheduler.StalenessPolicy` deciding the fate
  of updates that miss the round deadline.

Determinism contract: every quantity that decides *numerics* (scenario draws,
batch order, transfer-time lateness, aggregation order) is a pure function of
the scenario seed and the round index — never of wall clock, backend, or
worker count.  Wall-clock measurements (train/encode/decode seconds) ride
along as data.  That is what makes a journal resume bit-identical on every
deterministic field: completed rounds replay from their records, the
interrupted round re-derives its plan, replays already-shipped payloads
(decode is deterministic), and re-trains only the clients that never shipped
(training is a pure function of global state, shard, seed, and round index:
the replica's state is overwritten before every local fit, and the batch
order and dropout masks are seeded by the client seed and round index alone).
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
from repro.fl.coordinator.scheduler import RoundScheduler, StalenessPolicy
from repro.fl.coordinator.transport import (ShipResult, ShipTask,
                                            SimulatedTransport)
from repro.fl.delta import DeltaTracker, DeltaUpdateCodec
from repro.utils.parallel import ExecutionBackend, get_backend

# NOTE: fl/server.py imports the aggregation kernel from this package, so this
# module must not import fl.server back at runtime — the server below is typed
# by its duck interface (global_state / aggregate / evaluate / model).

__all__ = ["Coordinator", "train_clients_parallel"]


def train_clients_parallel(clients: Sequence[FLClient], global_state: dict,
                           epochs: int = 1, max_workers: "int | None" = None,
                           backend: "str | ExecutionBackend" = "thread",
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

    return get_backend(backend).map(train, clients, workers=max_workers)


@dataclass
class _Shipment:
    """One client's completed ship this round plus its training measurements."""

    result: ShipResult
    train_seconds: float  # raw (un-inflated) — stragglers are scaled at record time
    train_loss: float
    num_samples: int
    late: bool = False
    replayed: bool = False
    #: the delta tracker's journal sidecar for this ship (generation +
    #: accumulator); ``None`` without a delta codec or a journal
    delta_sidecar: "bytes | None" = None


@dataclass
class _LateUpdate:
    """A decoded late update queued for the staleness policy."""

    origin_round: int
    client_id: int
    state: "dict[str, np.ndarray]"
    num_samples: int


class Coordinator:
    """Runs federated rounds by composing the coordinator services.

    Construction wires the services together; :meth:`run_round` executes one
    round (training → transport → staleness triage → aggregation → validation
    → journal), and :meth:`run` produces a :class:`SimulationResult`, replaying
    journaled rounds first when resuming.
    """

    def __init__(self, *, clients: Sequence[FLClient], server,
                 scheduler: RoundScheduler, transport: SimulatedTransport,
                 client_codecs: Sequence, client_networks: Sequence,
                 codec_name: str, local_epochs: int = 1,
                 straggler_slowdown: float = 4.0, uplink: str = "serial",
                 backend: "str | ExecutionBackend" = "thread",
                 max_workers: "int | None" = 1,
                 round_deadline_s: "float | None" = None,
                 staleness: "StalenessPolicy | None" = None,
                 journal: "RoundJournal | None" = None,
                 journal_state: "JournalState | None" = None) -> None:
        if round_deadline_s is not None and round_deadline_s <= 0:
            raise ValueError("round_deadline_s must be positive")
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
        self.backend = get_backend(backend)
        self.max_workers = max_workers
        self.round_deadline_s = round_deadline_s
        self.staleness = staleness if staleness is not None else StalenessPolicy()
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
        self._pending_late: "list[_LateUpdate]" = []
        if journal_state is not None:
            if journal is None:
                raise ValueError("journal_state requires a journal to replay from")
            self._restore(journal_state)

    # -- resume ------------------------------------------------------------
    def _restore(self, state: JournalState) -> None:
        """Adopt a journal's replayed state: records, snapshot, late queue."""
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
            # channels first: a failed late replay below must be able to
            # overwrite the restored state with its invalidation
            self._delta.restore(state.delta_state, self._read_sidecar)
        self._pending_late = [
            late for late in (self._late_from_event(event)
                              for event in state.pending_late)
            if late is not None]
        if state.snapshot_path is not None:
            snapshot = self.journal.load_snapshot(state.snapshot_path)
            self.server.model.load_state_dict(snapshot)
        self._run_started = True  # the journaled header already exists

    def _read_sidecar(self, path: str) -> "bytes | None":
        """A journaled delta sidecar's bytes, or ``None`` when unreadable —
        the tracker degrades the client to a full ship (``resume-loss``)."""
        try:
            return (self.journal.directory / path).read_bytes()
        except OSError:
            return None

    def _late_from_event(self, event: ShippedEvent) -> "_LateUpdate | None":
        payload = self.journal.read_payload(event)
        codec = self.client_codecs[event.client_id]
        if self._delta is not None and isinstance(codec, DeltaUpdateCodec):
            # a journaled payload, residual or full state, decodes only
            # against the broadcast of its origin round (FDL5 modes 1 and
            # 2) — rearm from that round's snapshot
            try:
                reference = self.journal.load_snapshot(
                    self.journal.reference_snapshot(event.round_index))
            except (OSError, ValueError):
                # the snapshot is gone: this update can never be decoded
                # against the right reference — drop it rather than guess
                self._delta.invalidate(event.client_id, "replay-loss")
                return None
            codec.arm(reference, event.round_index, delta=False)
            try:
                state = codec.decode(payload)
            finally:
                codec.disarm()
        else:
            state = codec.decode(payload)
        return _LateUpdate(origin_round=event.round_index,
                           client_id=event.client_id, state=state,
                           num_samples=event.num_samples)

    def _materialize(self, event: ShippedEvent) -> _Shipment:
        """Rebuild a shipped update from the journal instead of re-running it."""
        payload = self.journal.read_payload(event)
        state = self.client_codecs[event.client_id].decode(payload)
        if self._delta is not None:
            try:
                blob = self.journal.read_delta(event)
            except OSError:
                blob = None
            self._delta.adopt_replayed(event.client_id, blob,
                                       late=event.status == "late")
        result = ShipResult(client_id=event.client_id,
                            payload_bytes=event.payload_bytes,
                            raw_bytes=event.raw_bytes,
                            encode_seconds=event.encode_seconds,
                            transfer_seconds=event.transfer_seconds,
                            decode_seconds=event.decode_seconds,
                            state=state, report=event.rebuild_report())
        return _Shipment(result=result, train_seconds=event.train_seconds,
                         train_loss=event.train_loss,
                         num_samples=event.num_samples,
                         late=event.status == "late", replayed=True)

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
            backend=self.backend, round_index=round_index)

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

        # staleness triage: previously-queued late updates are absorbed at the
        # first admissible round and dropped once they expire — a pure
        # function of the queue and the round index
        admitted = [late for late in self._pending_late
                    if self.staleness.admits(late.origin_round, round_index)]
        admitted.sort(key=lambda late: (late.origin_round, late.client_id))
        self._pending_late = [late for late in self._pending_late
                              if not self.staleness.admits(late.origin_round, round_index)
                              and not self.staleness.expired(late.origin_round, round_index)]

        shipments: "dict[int, _Shipment]" = {}
        for cid, event in replayed.items():
            shipments[cid] = self._materialize(event)

        results = self.transport.ship_batch(tasks) if tasks else []
        for cid, update, result in zip(fresh_ids, updates, results):
            shipment = _Shipment(result=result, train_seconds=update.train_seconds,
                                 train_loss=update.train_loss,
                                 num_samples=update.num_samples)
            # lateness is decided on the *modeled* transfer time, which is
            # analytic and straggler-inflated — never on wall clock
            shipment.late = (self.round_deadline_s is not None
                             and result.transfer_seconds > self.round_deadline_s)
            shipments[cid] = shipment
            if self._delta is not None:
                if shipment.late:
                    # the server never acknowledged this state — the
                    # client's reference is gone until its next full ship
                    self._delta.invalidate(cid, "late")
                else:
                    shipment.delta_sidecar = self._delta.complete_ship(
                        cid, update.state, result.state,
                        sidecar=self.journal is not None)

        if self.journal is not None:
            for cid in plan.participants:
                shipment = shipments[cid]
                if shipment.replayed:
                    continue  # already journaled by the interrupted run
                self.journal.record_shipped(
                    round_index, shipment.result, shipment.train_seconds,
                    shipment.train_loss, shipment.num_samples,
                    status="late" if shipment.late else "ontime",
                    delta_sidecar=shipment.delta_sidecar)

        ontime = [cid for cid in plan.participants if not shipments[cid].late]
        late_ids = [cid for cid in plan.participants if shipments[cid].late]
        states = [shipments[cid].result.state for cid in ontime] \
            + [late.state for late in admitted]
        weights = [shipments[cid].num_samples for cid in ontime] \
            + [late.num_samples for late in admitted]
        self.server.aggregate(states, weights, allow_empty=True)

        start = time.perf_counter()
        accuracy = self.server.evaluate()
        validation_seconds = time.perf_counter() - start

        # this round's late updates join the queue for the next round's triage
        for cid in late_ids:
            shipment = shipments[cid]
            self._pending_late.append(_LateUpdate(
                origin_round=round_index, client_id=cid,
                state=shipment.result.state, num_samples=shipment.num_samples))

        delta_clients: "list[int]" = []
        delta_degrades: "dict[int, str]" = {}
        if self._delta is not None:
            delta_clients, delta_degrades = self._delta.round_summary()
            # release the armed references/accumulators — parked codecs must
            # not pin this round's broadcast state in memory
            self._delta.disarm_all()

        ordered = [shipments[cid] for cid in plan.participants]
        train_times = [
            shipment.train_seconds
            * (self.straggler_slowdown if cid in straggler_set else 1.0)
            for cid, shipment in zip(plan.participants, ordered)
        ]
        client_reports = {cid: shipments[cid].result.report
                          for cid in plan.participants
                          if shipments[cid].result.report is not None}
        client_plans = {cid: report.plan for cid, report in client_reports.items()
                        if report.plan is not None}

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
            participants=list(ontime),
            dropped_clients=list(plan.dropped),
            straggler_clients=list(plan.stragglers),
            client_reports=client_reports,
            client_plans=client_plans,
            late_clients=list(late_ids),
            absorbed_clients={late.client_id: late.origin_round
                              for late in admitted},
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
        all on one persistent pool of the execution backend
        (:meth:`~repro.utils.parallel.ExecutionBackend.persistent`) instead of
        a fresh pool per training and shipping map.
        """
        result = SimulationResult(codec_name=self.codec_name)
        result.rounds.extend(self._completed[:n_rounds])
        if len(result.rounds) >= n_rounds:
            return result
        with self.backend.persistent(self.max_workers):
            for round_index in range(len(result.rounds), n_rounds):
                result.rounds.append(self.run_round(round_index))
        return result
