"""Durable round state: a JSONL event log plus on-disk state snapshots.

A :class:`RoundJournal` makes federated rounds resumable: every scenario draw,
shipped client update (payload bytes included), and completed round is
appended to ``journal.jsonl`` before the run proceeds, and the global model is
snapshotted at run start and after every aggregation.  A process killed
mid-round can therefore be resumed from the journal directory and produce the
same :class:`~repro.fl.coordinator.records.RoundRecord` stream as an
uninterrupted run: completed rounds replay from their journaled records,
already-shipped clients of the interrupted round replay from their stored
payloads (decode is deterministic), and only the remaining clients re-train —
which is itself deterministic given the snapshotted global state and the
per-client seeds.

On-disk layout (documented in FORMATS.md)::

    <journal_dir>/
        journal.jsonl                     # one JSON event per line, append-only
        snapshots/initial.fsza            # global state before round 0
        snapshots/round_000007.fsza       # global state after round 7 aggregated
        updates/round_000007_client_0003.bin   # encoded update payloads

Durability discipline: payload files and snapshots are fully written (and
snapshots atomically renamed) *before* the event that references them is
appended, so the log line is the commit point; every append is flushed to the
OS so a killed process loses at most the line it was writing.  The loader
tolerates exactly one truncated trailing line (the in-flight append at the
moment of death) and rejects corruption anywhere else.

The ``REPRO_JOURNAL_CRASH_AFTER`` environment variable is a test hook: when
set to ``N``, the process hard-exits (``os._exit(42)``) immediately after the
``N``-th event of this process reaches the log —
``tests/test_coordinator.py::TestCrashResume::test_killed_process_resumes_bit_identical``
runs a child process (``tests/crash_child.py``) with it to die mid-round for
real.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.pipeline import FedSZReport
from repro.core.plan import unpack_plan
from repro.fl.coordinator.records import RoundRecord
from repro.fl.coordinator.scheduler import RoundPlan
from repro.fl.coordinator.transport import ShipResult
from repro.utils.serialization import pack_arrays, unpack_arrays

__all__ = ["RoundJournal", "JournalState", "PartialRoundState", "ShippedEvent"]

_JOURNAL_VERSION = 1
_CRASH_ENV = "REPRO_JOURNAL_CRASH_AFTER"

#: FedSZReport fields journaled verbatim (the plan rides separately as hex)
_REPORT_FIELDS = ("original_bytes", "compressed_bytes", "lossy_original_bytes",
                  "lossy_compressed_bytes", "lossless_original_bytes",
                  "lossless_compressed_bytes", "compress_seconds",
                  "decompress_seconds")

#: RoundRecord fields journaled in ``round_complete`` events (everything but
#: the per-client reports/plans, which rebuild from ``client_shipped`` events)
_RECORD_FIELDS = ("round_index", "accuracy", "mean_train_seconds",
                  "mean_encode_seconds", "mean_decode_seconds",
                  "validation_seconds", "uncompressed_bytes",
                  "transmitted_bytes", "communication_seconds",
                  "client_losses", "participants", "dropped_clients",
                  "straggler_clients", "late_clients", "delta_clients")


@dataclass
class ShippedEvent:
    """One journaled ``client_shipped`` event, ready to replay."""

    round_index: int
    client_id: int
    status: str  # "ontime" | "late"
    payload_path: str
    payload_bytes: int
    raw_bytes: int
    encode_seconds: float
    transfer_seconds: float
    decode_seconds: float
    train_seconds: float
    train_loss: float
    num_samples: int
    report_fields: "dict | None" = None
    plan_hex: "str | None" = None
    #: relative path of the delta sidecar (generation + accumulators)
    #: written alongside the payload; ``None`` for non-delta codecs
    delta_path: "str | None" = None

    def rebuild_report(self) -> "FedSZReport | None":
        """The shipped update's :class:`FedSZReport` (``None`` if it had none)."""
        if self.report_fields is None:
            return None
        plan = None
        if self.plan_hex is not None:
            plan, _ = unpack_plan(bytes.fromhex(self.plan_hex))
        return FedSZReport(plan=plan, **self.report_fields)


@dataclass
class PartialRoundState:
    """A round that started but never completed — the resume point."""

    plan: RoundPlan
    #: client id -> journaled ship event (both on-time and late ships)
    shipped: "dict[int, ShippedEvent]" = field(default_factory=dict)


@dataclass
class JournalState:
    """Everything a resuming coordinator needs, parsed from the event log."""

    scenario_seed: int
    codec_name: str
    n_clients: int
    records: "list[RoundRecord]" = field(default_factory=list)
    partial: "PartialRoundState | None" = None
    #: late updates shipped in completed rounds, not yet absorbed or expired
    pending_late: "list[ShippedEvent]" = field(default_factory=list)
    #: snapshot to restore the global model from before resuming
    snapshot_path: "str | None" = None
    #: per-client delta state entering the resume point, folded from completed
    #: rounds: ``{client_id: {"sidecar": path | None, "degrade": reason |
    #: None}}`` — the latest on-time ship's sidecar, or the reason the
    #: reference was last invalidated (``None`` + no sidecar = never shipped)
    delta_state: "dict[int, dict]" = field(default_factory=dict)


class RoundJournal:
    """Append-only durable record of one federated run (see module docstring)."""

    def __init__(self, directory: "str | Path", resume: bool = False) -> None:
        self.directory = Path(directory)
        self.log_path = self.directory / "journal.jsonl"
        if self.log_path.exists() and not resume:
            raise ValueError(f"journal directory {self.directory} already holds a "
                             f"run; pass resume=True to continue it or point at "
                             f"a fresh directory")
        if resume and not self.log_path.exists():
            raise ValueError(f"cannot resume: no journal found in {self.directory}")
        self.directory.mkdir(parents=True, exist_ok=True)
        (self.directory / "snapshots").mkdir(exist_ok=True)
        (self.directory / "updates").mkdir(exist_ok=True)
        self._resumed = resume
        self._events_written = 0
        self._log = None  # opened lazily on first append

    # -- write side --------------------------------------------------------
    def _append(self, event: dict) -> None:
        if self._log is None:
            self._log = open(self.log_path, "a", encoding="utf-8")
        self._log.write(json.dumps(event, sort_keys=True) + "\n")
        self._log.flush()
        self._events_written += 1
        crash_after = os.environ.get(_CRASH_ENV)
        if crash_after and self._events_written >= int(crash_after):
            os._exit(42)  # the kill-and-resume drill dies here, mid-round

    def _write_snapshot(self, name: str, state: "dict[str, np.ndarray]") -> str:
        relative = f"snapshots/{name}.fsza"
        target = self.directory / relative
        tmp = target.with_suffix(".tmp")
        tmp.write_bytes(pack_arrays(dict(state)))
        os.replace(tmp, target)  # never expose a torn snapshot
        return relative

    def begin_run(self, codec_name: str, scenario_seed: int, n_clients: int,
                  global_state: "dict[str, np.ndarray]") -> None:
        """Journal the run header (no-op when resuming an existing run)."""
        if self._resumed:
            return
        snapshot = self._write_snapshot("initial", global_state)
        self._append({"event": "run_start", "journal_version": _JOURNAL_VERSION,
                      "codec": codec_name, "scenario_seed": int(scenario_seed),
                      "n_clients": int(n_clients), "snapshot": snapshot})

    def begin_round(self, plan: RoundPlan, resumed: bool = False) -> None:
        """Journal a round's scenario draw (skipped when replaying it)."""
        if resumed:
            return
        self._append({"event": "round_start", "round": plan.round_index,
                      "participants": list(plan.participants),
                      "dropped": list(plan.dropped),
                      "stragglers": list(plan.stragglers)})

    def record_shipped(self, round_index: int, result: ShipResult,
                       train_seconds: float, train_loss: float,
                       num_samples: int, status: str = "ontime",
                       delta_sidecar: "bytes | None" = None) -> None:
        """Persist one shipped update: payload file first, then the event."""
        if result.payload is None:
            raise ValueError("journaling needs the encoded payload; ship with "
                             "keep_payload=True")
        relative = f"updates/round_{round_index:06d}_client_{result.client_id:04d}.bin"
        (self.directory / relative).write_bytes(result.payload)
        delta_relative = None
        if delta_sidecar is not None:
            # sidecar file before the event, like the payload — the log line
            # is the commit point for both
            delta_relative = (f"updates/round_{round_index:06d}_client_"
                              f"{result.client_id:04d}.delta")
            (self.directory / delta_relative).write_bytes(delta_sidecar)
        report_fields = plan_hex = None
        if result.report is not None:
            report_fields = {name: getattr(result.report, name)
                             for name in _REPORT_FIELDS}
            if result.report.plan is not None:
                from repro.core.plan import pack_plan
                plan_hex = pack_plan(result.report.plan).hex()
        self._append({"event": "client_shipped", "round": round_index,
                      "client": result.client_id, "status": status,
                      "payload": relative, "payload_bytes": result.payload_bytes,
                      "raw_bytes": result.raw_bytes,
                      "encode_seconds": result.encode_seconds,
                      "transfer_seconds": result.transfer_seconds,
                      "decode_seconds": result.decode_seconds,
                      "train_seconds": train_seconds, "train_loss": train_loss,
                      "num_samples": num_samples, "report": report_fields,
                      "plan": plan_hex, "delta": delta_relative})

    def complete_round(self, record: RoundRecord,
                       global_state: "dict[str, np.ndarray]") -> None:
        """Journal a finished round: post-aggregation snapshot, then the record."""
        snapshot = self._write_snapshot(f"round_{record.round_index:06d}",
                                        global_state)
        payload = {name: getattr(record, name) for name in _RECORD_FIELDS}
        payload["absorbed_clients"] = {str(cid): origin for cid, origin
                                       in record.absorbed_clients.items()}
        payload["delta_degrades"] = {str(cid): reason for cid, reason
                                     in record.delta_degrades.items()}
        self._append({"event": "round_complete", "round": record.round_index,
                      "record": payload, "snapshot": snapshot})

    def close(self) -> None:
        """Close the log file handle (safe to call repeatedly)."""
        if self._log is not None:
            self._log.close()
            self._log = None

    # -- read side ---------------------------------------------------------
    def read_payload(self, event: ShippedEvent) -> bytes:
        """The stored encoded payload of a journaled shipped update."""
        return (self.directory / event.payload_path).read_bytes()

    def read_delta(self, event: ShippedEvent) -> "bytes | None":
        """The stored delta sidecar of a journaled ship (``None`` if it had
        none); raises :class:`OSError` when the referenced file is gone."""
        if event.delta_path is None:
            return None
        return (self.directory / event.delta_path).read_bytes()

    @staticmethod
    def reference_snapshot(round_index: int) -> str:
        """The snapshot holding the broadcast state of ``round_index`` — what
        a delta update shipped in that round must be decoded against."""
        if round_index == 0:
            return "snapshots/initial.fsza"
        return f"snapshots/round_{round_index - 1:06d}.fsza"

    def load(self) -> JournalState:
        """Parse the event log into a resumable :class:`JournalState`."""
        lines = self.log_path.read_text(encoding="utf-8").splitlines()
        events: list[dict] = []
        for number, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                if number == len(lines) - 1:
                    break  # the torn in-flight append at the moment of death
                raise ValueError(f"corrupt journal {self.log_path}: unparseable "
                                 f"event at line {number + 1}") from None
        if not events or events[0].get("event") != "run_start":
            raise ValueError(f"corrupt journal {self.log_path}: missing run_start")
        header = events[0]
        version = header.get("journal_version")
        if version != _JOURNAL_VERSION:
            raise ValueError(f"journal version {version!r} is not supported "
                             f"(this build writes {_JOURNAL_VERSION})")
        state = JournalState(scenario_seed=int(header["scenario_seed"]),
                             codec_name=str(header["codec"]),
                             n_clients=int(header["n_clients"]),
                             snapshot_path=str(header["snapshot"]))

        partial: "PartialRoundState | None" = None
        for event in events[1:]:
            kind = event.get("event")
            if kind == "round_start":
                if partial is not None:
                    raise ValueError(f"corrupt journal: round {event['round']} "
                                     f"started before round "
                                     f"{partial.plan.round_index} completed")
                plan = RoundPlan(int(event["round"]),
                                 tuple(event["participants"]),
                                 tuple(event["dropped"]),
                                 tuple(event["stragglers"]))
                partial = PartialRoundState(plan=plan)
            elif kind == "client_shipped":
                if partial is None or int(event["round"]) != partial.plan.round_index:
                    raise ValueError("corrupt journal: client_shipped outside "
                                     "its round")
                shipped = ShippedEvent(
                    round_index=int(event["round"]), client_id=int(event["client"]),
                    status=str(event["status"]), payload_path=str(event["payload"]),
                    payload_bytes=int(event["payload_bytes"]),
                    raw_bytes=int(event["raw_bytes"]),
                    encode_seconds=float(event["encode_seconds"]),
                    transfer_seconds=float(event["transfer_seconds"]),
                    decode_seconds=float(event["decode_seconds"]),
                    train_seconds=float(event["train_seconds"]),
                    train_loss=float(event["train_loss"]),
                    num_samples=int(event["num_samples"]),
                    report_fields=event.get("report"), plan_hex=event.get("plan"),
                    delta_path=event.get("delta"))
                partial.shipped[shipped.client_id] = shipped
            elif kind == "round_complete":
                if partial is None or int(event["round"]) != partial.plan.round_index:
                    raise ValueError("corrupt journal: round_complete without a "
                                     "matching round_start")
                record_fields = dict(event["record"])
                absorbed = {int(cid): int(origin) for cid, origin
                            in record_fields.pop("absorbed_clients", {}).items()}
                degrades = {int(cid): str(reason) for cid, reason
                            in record_fields.pop("delta_degrades", {}).items()}
                record = RoundRecord(absorbed_clients=absorbed,
                                     delta_degrades=degrades, **record_fields)
                for shipped in partial.shipped.values():
                    report = shipped.rebuild_report()
                    if report is not None:
                        record.client_reports[shipped.client_id] = report
                        if report.plan is not None:
                            record.client_plans[shipped.client_id] = report.plan
                    if shipped.status == "late":
                        state.pending_late.append(shipped)
                state.records.append(record)
                state.snapshot_path = str(event["snapshot"])
                # an absorbed late update is consumed for good
                state.pending_late = [e for e in state.pending_late
                                      if absorbed.get(e.client_id) != e.round_index]
                # fold each client's delta state forward: an on-time ship
                # pins its sidecar, a dropout/late loses the reference
                for cid in record.dropped_clients:
                    state.delta_state[cid] = {"sidecar": None,
                                              "degrade": "dropout"}
                for cid in record.late_clients:
                    state.delta_state[cid] = {"sidecar": None, "degrade": "late"}
                for cid in record.participants:
                    shipped = partial.shipped.get(cid)
                    state.delta_state[cid] = {
                        "sidecar": shipped.delta_path if shipped else None,
                        "degrade": None}
                partial = None
            else:
                raise ValueError(f"corrupt journal: unknown event kind {kind!r}")
        state.partial = partial
        return state

    def load_snapshot(self, relative_path: str) -> "dict[str, np.ndarray]":
        """Deserialize a journaled global-state snapshot."""
        return unpack_arrays((self.directory / relative_path).read_bytes())
