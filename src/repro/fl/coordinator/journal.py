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
        updates/round_000007_client_0003.bin     # encoded payloads, as shipped
        updates/round_000007_client_0003.delta   # delta sidecars (delta runs)

Durability discipline: payload files and snapshots are fully written (and
snapshots atomically renamed) *before* the event that references them is
appended, so the log line is the commit point; every append is flushed to the
OS so a killed process loses at most the line it was writing.  The loader
tolerates exactly one truncated trailing line (the in-flight append at the
moment of death).  Anywhere else, an event with other keys or value types
than ``_EVENT_FIELDS`` lists, or out of its place (:func:`_out_of_place`),
raises :class:`ValueError` naming its line.  This build reads journal
version 2 only.

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

_JOURNAL_VERSION = 2
_CRASH_ENV = "REPRO_JOURNAL_CRASH_AFTER"

#: a client id of this run: an int in ``[0, n_clients)``
_CLIENT = "client id"

#: FedSZReport fields journaled verbatim (the plan rides separately as hex)
_REPORT = {"original_bytes": int, "compressed_bytes": int,
           "lossy_original_bytes": int, "lossy_compressed_bytes": int,
           "lossless_original_bytes": int, "lossless_compressed_bytes": int,
           "compress_seconds": float, "decompress_seconds": float}

#: RoundRecord fields journaled in ``round_complete`` events (the per-client
#: reports and plans rebuild from ``client_shipped`` events)
_RECORD = {"round_index": int, "accuracy": float, "mean_train_seconds": float,
           "mean_encode_seconds": float, "mean_decode_seconds": float,
           "validation_seconds": float, "uncompressed_bytes": int,
           "transmitted_bytes": int, "communication_seconds": float,
           "client_losses": [float], "participants": [_CLIENT],
           "dropped_clients": [_CLIENT], "straggler_clients": [_CLIENT],
           "delta_clients": [_CLIENT], "delta_degrades": {_CLIENT: str}}

#: the exact keys and value types of every event: ``float`` matches any JSON
#: number, ``None`` null, ``[t]`` an array of ``t``, ``{_CLIENT: t}`` an object
#: keyed by client ids, and a tuple any of its members
_EVENT_FIELDS = {
    "run_start": {"event": str, "journal_version": int, "codec": str,
                  "scenario_seed": int, "n_clients": int, "snapshot": str},
    "round_start": {"event": str, "round": int, "participants": [_CLIENT],
                    "dropped": [_CLIENT], "stragglers": [_CLIENT]},
    "client_shipped": {"event": str, "round": int, "client": _CLIENT,
                       "payload": str, "payload_bytes": int, "raw_bytes": int,
                       "encode_seconds": float, "transfer_seconds": float,
                       "decode_seconds": float, "train_seconds": float,
                       "train_loss": float, "num_samples": int,
                       "report": (_REPORT, None), "plan": (str, None),
                       "delta": (str, None)},
    "round_complete": {"event": str, "round": int, "record": _RECORD,
                       "snapshot": str},
}


def _matches(value, kind, n_clients: int) -> bool:
    """Does the decoded JSON ``value`` have the shape ``kind`` describes?"""
    if isinstance(kind, tuple):
        return any(_matches(value, k, n_clients) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(
            _matches(item, kind[0], n_clients) for item in value)
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            return False
        if list(kind) == [_CLIENT]:
            return all(key.isdecimal() and _matches(int(key), _CLIENT, n_clients)
                       and _matches(item, kind[_CLIENT], n_clients)
                       for key, item in value.items())
        return value.keys() == kind.keys() and all(
            _matches(value[key], kind[key], n_clients) for key in kind)
    if kind is None:
        return value is None
    if isinstance(value, bool):
        return False  # JSON true/false, which Python reads as ints
    if kind == _CLIENT:
        return isinstance(value, int) and 0 <= value < n_clients
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _out_of_place(event, state: "JournalState | None",
                  partial: "PartialRoundState | None") -> "str | None":
    """Why ``event`` cannot follow the events that built ``state`` (``None``
    before the header) and left round ``partial`` open, or ``None``."""
    kind = event.get("event") if isinstance(event, dict) else None
    if not isinstance(kind, str) or kind not in _EVENT_FIELDS \
            or (kind == "run_start") != (state is None):
        return f"unexpected event {kind!r}"
    # the header names no client, so it is checked against an empty fleet
    if not _matches(event, _EVENT_FIELDS[kind], state.n_clients if state else 0):
        return f"malformed {kind} event"
    if kind == "run_start":
        return None
    if kind == "round_start":
        due = len(state.records)
        if partial is None and event["round"] == due:
            return None
        return f"round {event['round']} starts while round {due} is due"
    if partial is None or event["round"] != partial.plan.round_index:
        return f"{kind} for round {event['round']}, which is not open"
    if kind == "client_shipped":
        if event["client"] in partial.plan.participants \
                and event["client"] not in partial.shipped:
            return None
        return f"client {event['client']} is not due to ship in round {event['round']}"
    if partial.shipped.keys() == set(partial.plan.participants) \
            and event["record"]["round_index"] == event["round"]:
        return None
    return (f"round {event['round']} completes before all its participants "
            f"shipped, or with another round's record")


#: ``client_shipped`` keys whose :class:`ShippedEvent` field is named apart
_SHIPPED_NAMES = {"round": "round_index", "client": "client_id",
                  "payload": "payload_path", "report": "report_fields",
                  "plan": "plan_hex", "delta": "delta_path"}


@dataclass
class ShippedEvent:
    """One journaled ``client_shipped`` event, ready to replay."""

    round_index: int
    client_id: int
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
        """The shipped update's :class:`FedSZReport` (``None`` if it had none).

        Raises :class:`ValueError` when the journaled plan is not hex or is
        not exactly one plan block.
        """
        if self.report_fields is None:
            return None
        plan = None
        if self.plan_hex is not None:
            try:
                blob = bytes.fromhex(self.plan_hex)
            except ValueError:
                raise ValueError("plan is not hex") from None
            plan, end = unpack_plan(blob)
            if end != len(blob):
                raise ValueError(f"plan has {len(blob) - end} trailing bytes")
        return FedSZReport(plan=plan, **self.report_fields)


@dataclass
class PartialRoundState:
    """A round that started but never completed — the resume point."""

    plan: RoundPlan
    #: client id -> journaled ship event
    shipped: "dict[int, ShippedEvent]" = field(default_factory=dict)


@dataclass
class JournalState:
    """Everything a resuming coordinator needs, parsed from the event log."""

    scenario_seed: int
    codec_name: str
    n_clients: int
    #: snapshot to restore the global model from before resuming
    snapshot_path: str
    records: "list[RoundRecord]" = field(default_factory=list)
    partial: "PartialRoundState | None" = None
    #: per-client delta state entering the resume point, folded from completed
    #: rounds: ``{client_id: {"sidecar": path | None, "degrade": reason |
    #: None}}`` — the latest ship's sidecar, or the reason the reference was
    #: last invalidated (``None`` + no sidecar = never shipped)
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
                       num_samples: int,
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
                             for name in _REPORT}
            if result.report.plan is not None:
                from repro.core.plan import pack_plan
                plan_hex = pack_plan(result.report.plan).hex()
        self._append({"event": "client_shipped", "round": round_index,
                      "client": result.client_id,
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
        payload = {name: getattr(record, name) for name in _RECORD
                   if name != "delta_degrades"}
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

    def read_sidecar(self, path: "str | None") -> "bytes | None":
        """A journaled delta sidecar's bytes, or ``None`` when the ship had
        none or the file is unreadable — the delta tracker then degrades the
        client to a full ship (``resume-loss``)."""
        try:
            return None if path is None else (self.directory / path).read_bytes()
        except OSError:
            return None

    def load(self) -> JournalState:
        """Parse the event log into a resumable :class:`JournalState`.

        Raises :class:`ValueError` naming the line of the first event that
        is malformed or out of order (see the module docstring).
        """
        lines = self.log_path.read_text(encoding="utf-8").splitlines()
        events: "list[tuple[int, object]]" = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                events.append((number, json.loads(line)))
            except json.JSONDecodeError:
                if number == len(lines):
                    break  # the torn in-flight append at the moment of death
                raise ValueError(f"corrupt journal {self.log_path}: unparseable "
                                 f"event at line {number}") from None
        state: "JournalState | None" = None
        partial: "PartialRoundState | None" = None
        for number, event in events:
            problem = _out_of_place(event, state, partial)
            if problem is not None:
                raise ValueError(f"corrupt journal {self.log_path}: line "
                                 f"{number}: {problem}")
            kind = event["event"]
            if kind == "run_start":
                if event["journal_version"] != _JOURNAL_VERSION:
                    raise ValueError(f"journal version {event['journal_version']} "
                                     f"is not supported (this build writes "
                                     f"{_JOURNAL_VERSION})")
                state = JournalState(scenario_seed=event["scenario_seed"],
                                     codec_name=event["codec"],
                                     n_clients=event["n_clients"],
                                     snapshot_path=event["snapshot"])
            elif kind == "round_start":
                partial = PartialRoundState(plan=RoundPlan(
                    event["round"], tuple(event["participants"]),
                    tuple(event["dropped"]), tuple(event["stragglers"])))
            elif kind == "client_shipped":
                shipped = ShippedEvent(**{_SHIPPED_NAMES.get(key, key): value
                                          for key, value in event.items()
                                          if key != "event"})
                try:
                    shipped.rebuild_report()
                except ValueError as exc:
                    raise ValueError(f"corrupt journal {self.log_path}: line "
                                     f"{number}: {exc}") from None
                partial.shipped[event["client"]] = shipped
            else:
                self._complete(state, partial, event)
                partial = None
        if state is None:
            raise ValueError(f"corrupt journal {self.log_path}: missing run_start")
        state.partial = partial
        return state

    @staticmethod
    def _complete(state: JournalState, partial: PartialRoundState,
                  event: dict) -> None:
        """Fold a checked ``round_complete`` event into ``state``."""
        fields = dict(event["record"])
        degrades = {int(cid): reason
                    for cid, reason in fields.pop("delta_degrades").items()}
        record = RoundRecord(delta_degrades=degrades, **fields)
        for shipped in partial.shipped.values():
            report = shipped.rebuild_report()
            if report is not None:
                record.client_reports[shipped.client_id] = report
                if report.plan is not None:
                    record.client_plans[shipped.client_id] = report.plan
        state.records.append(record)
        state.snapshot_path = event["snapshot"]
        # fold each client's delta state forward: a ship pins its sidecar,
        # a dropout loses the reference
        for cid in record.dropped_clients:
            state.delta_state[cid] = {"sidecar": None, "degrade": "dropout"}
        for cid, shipped in partial.shipped.items():
            state.delta_state[cid] = {"sidecar": shipped.delta_path,
                                      "degrade": None}

    def load_snapshot(self, relative_path: str) -> "dict[str, np.ndarray]":
        """Deserialize a journaled global-state snapshot."""
        return unpack_arrays((self.directory / relative_path).read_bytes())
