"""Transport service: encode → transfer → decode of one client's update.

Wraps what used to be ``fl/simulation.py::_ship_update_task`` behind a
:class:`Transport` interface so the round engine can swap the simulated link
for a real one (gRPC, MPI) without touching scheduling or aggregation.  The
task function stays module-level over an explicit picklable argument struct —
the PR-4 contract that lets the ``process`` backend ship it to a GIL-free
worker — and :class:`SimulatedTransport` additionally offers an asyncio path
where the simulated delay becomes an ``await`` instead of a pool-blocking
sleep, so one thread can hold many uplinks in flight at once.

The uncompressed byte count of an update is computed analytically from array
sizes (:func:`repro.utils.serialization.packed_arrays_nbytes`); the historic
path re-encoded the entire state through ``RawUpdateCodec`` per client per
round just to measure ``len()`` of bytes it then threw away.

Three opt-in wire refinements (all bit-identical to the defaults):

* ``streaming=True`` decodes each update through the codec's incremental
  :meth:`~repro.fl.codec.UpdateCodec.stream_decoder`, fed packet by packet on
  the link's analytic arrival schedule, so Eqn. 1's ``t_D`` overlaps ``S'/B``;
  the measured overlap is reported on ``ShipResult.decode_overlap_seconds``.
* ``streaming_encode=True`` encodes through the codec's incremental
  :meth:`~repro.fl.codec.UpdateCodec.stream_encoder` and starts the simulated
  transfer at the *first ready piece* instead of at payload completion: the
  analytic packet schedule is re-timed behind the producer (a packet leaves
  once the wire is free *and* its bytes exist), so Eqn. 1's ``t_C`` overlaps
  ``S'/B``.  The hidden encode time is reported on
  ``ShipResult.encode_overlap_seconds`` (alongside the producer's first-piece
  latency and peak packing scratch); the recorded ``transfer_seconds`` stays
  the analytic wire time, so the deterministic fields are unchanged.
* On backends with the ``pickles_arguments`` trait, ``ship_batch`` moves each
  task's tensors through a :class:`~repro.utils.parallel.SharedMemoryArena`
  segment instead of pickling the buffers into the task.
"""

from __future__ import annotations

import abc
import asyncio
import bisect
import itertools
import os
import time
from concurrent.futures import as_completed
from dataclasses import dataclass, replace

import numpy as np

from repro.core.network import NetworkModel
from repro.fl.codec import UpdateCodec
from repro.fl.coordinator.residency import (install_reference,
                                            resident_reference)
from repro.utils.parallel import (ArenaHandle, ExecutionBackend,
                                  SharedMemoryArena, get_backend)
from repro.utils.serialization import packed_arrays_nbytes

__all__ = ["ShipTask", "ShipResult", "ship_update_task", "Transport",
           "SimulatedTransport", "DEFAULT_PACKET_BYTES"]

from repro.core.pipeline import FedSZReport

#: simulated wire segment size for the streaming decode path; small enough
#: that a multi-chunk Huffman stream spans many packets, large enough that
#: per-packet bookkeeping stays negligible against decode work
DEFAULT_PACKET_BYTES = 64 * 1024

#: distinguishes each transport's hoisted-reference registry token (ids can
#: be reused by the allocator; a counter cannot)
_REF_COUNTER = itertools.count()


@dataclass
class ShipTask:
    """Explicit picklable argument struct for :func:`ship_update_task`."""

    client_id: int
    state: dict[str, np.ndarray]
    codec: UpdateCodec
    network: NetworkModel
    #: reported transfer time is multiplied by this (1.0 = not a straggler)
    straggler_slowdown: float = 1.0
    #: retain the encoded payload on the result (journaling needs the bytes
    #: back; everyone else keeps memory flat by dropping them)
    keep_payload: bool = False
    #: decode through the codec's incremental stream decoder, paced by the
    #: link's analytic packet schedule, so decode time hides inside transfer
    #: time (bit-identical outputs either way)
    streaming: bool = False
    #: encode through the codec's incremental stream encoder and start the
    #: simulated transfer at the first ready piece, so encode time hides
    #: inside transfer time (bit-identical outputs either way)
    streaming_encode: bool = False
    #: simulated wire segment size used when ``streaming`` is set
    packet_bytes: int = DEFAULT_PACKET_BYTES
    #: when set, ``state`` is empty and the tensors live in a shared-memory
    #: arena segment — the worker attaches instead of unpickling the buffers
    #: (only used on backends with the ``pickles_arguments`` trait)
    state_handle: "ArenaHandle | None" = None
    #: when set, ``codec`` is a delta codec pickled *without* its reference
    #: state; the reference rides this shared arena (one segment per round,
    #: not per task) and the worker re-attaches it before encode/decode
    reference_handle: "ArenaHandle | None" = None
    #: the ``(token, generation)`` key of the hoisted reference in the
    #: worker-resident registry (see ``residency.install_reference``) — the
    #: first task to run in a worker materializes the arena there, the rest
    #: of the round resolves locally
    reference_token: "tuple[str, int] | None" = None


@dataclass
class ShipResult:
    """What one client's encode → transfer → decode stage hands back."""

    client_id: int
    payload_bytes: int
    raw_bytes: int
    encode_seconds: float
    transfer_seconds: float
    decode_seconds: float
    state: dict[str, np.ndarray]
    report: "FedSZReport | None"
    #: the encoded payload itself, only when ``ShipTask.keep_payload`` was set
    payload: "bytes | None" = None
    #: streaming path only: the portion of ``decode_seconds`` that the busy
    #: model places *before* the last byte's arrival — decode work hidden
    #: inside the transfer window (``None`` on the batch decode path)
    decode_overlap_seconds: "float | None" = None
    #: streaming-encode path only: encode work hidden inside the transfer
    #: window — the sequential ``encode + transfer`` span minus the overlapped
    #: wire completion under the producer-gated packet schedule (``None`` on
    #: the batch encode path)
    encode_overlap_seconds: "float | None" = None
    #: streaming-encode path only: seconds until the encoder's first payload
    #: piece was ready to leave (the stream's first-byte-out latency)
    first_byte_seconds: "float | None" = None
    #: streaming-encode path only: the encoder's analytic peak emission
    #: scratch estimate in bytes (0 when the codec does not track it)
    encode_scratch_bytes: int = 0


def _encode(task: ShipTask) -> tuple[bytes, "FedSZReport | None", float, int, float]:
    """Encode phase: payload, report, encode wall time, raw bytes, transfer time."""
    start = time.perf_counter()
    payload, report = task.codec.encode_with_report(task.state)
    encode_seconds = time.perf_counter() - start
    # the uncompressed size is a pure function of the arrays' dtypes/shapes
    # and key names — no need to serialize the whole state to measure it
    raw_bytes = packed_arrays_nbytes(task.state)
    transfer_seconds = task.network.transfer_time(len(payload)) * task.straggler_slowdown
    return payload, report, encode_seconds, raw_bytes, transfer_seconds


@dataclass
class _StreamedEncode:
    """What :func:`_stream_encode` measures beyond the batch encode phase."""

    payload: bytes
    report: "FedSZReport | None"
    encode_seconds: float
    raw_bytes: int
    transfer_seconds: float
    #: cumulative payload byte offset at the end of each producer piece
    piece_ends: "list[int]"
    #: cumulative encode seconds when each piece became available
    piece_ready: "list[float]"
    first_byte_seconds: float
    scratch_bytes: int


def _stream_encode(task: ShipTask) -> _StreamedEncode:
    """Encode phase through the codec's incremental stream encoder.

    The concatenated pieces are byte-identical to the batch
    :func:`_encode` payload (the codec's contract), so every downstream
    quantity derived from the payload is unchanged; what streaming adds is
    the per-piece availability times the wire model is gated on.
    """
    encoder = task.codec.stream_encoder()
    pieces: "list[bytes]" = []
    ends: "list[int]" = []
    ready: "list[float]" = []
    total = 0
    start = time.perf_counter()
    for piece in encoder.chunks(task.state):
        if not piece:
            continue
        now = time.perf_counter() - start
        pieces.append(piece)
        total += len(piece)
        ends.append(total)
        ready.append(now)
    encode_seconds = time.perf_counter() - start
    payload = b"".join(pieces)
    raw_bytes = packed_arrays_nbytes(task.state)
    transfer_seconds = task.network.transfer_time(len(payload)) * task.straggler_slowdown
    return _StreamedEncode(payload=payload, report=encoder.report,
                           encode_seconds=encode_seconds, raw_bytes=raw_bytes,
                           transfer_seconds=transfer_seconds, piece_ends=ends,
                           piece_ready=ready,
                           first_byte_seconds=ready[0] if ready else 0.0,
                           scratch_bytes=encoder.peak_scratch_bytes)


def _gated_schedule(schedule: "list[tuple[int, float]]", piece_ends: "list[int]",
                    piece_ready: "list[float]") -> "list[tuple[int, float]]":
    """Re-time an analytic packet schedule behind the encode producer.

    A wire busy model with time zero at encode start: packet ``i`` keeps its
    analytic wire duration but starts no earlier than the wire is free *and*
    no earlier than the producer piece containing its last byte was ready.
    With an instant producer (every ready time 0) the gated schedule equals
    the analytic one, so the last gated arrival minus the analytic transfer
    time is exactly the encode time the wire could not hide.
    """
    gated: "list[tuple[int, float]]" = []
    wire_free = 0.0
    prev = 0.0
    for end, arrival in schedule:
        duration = arrival - prev
        prev = arrival
        ready = 0.0
        if end > 0 and piece_ends:
            idx = min(bisect.bisect_left(piece_ends, end), len(piece_ends) - 1)
            ready = piece_ready[idx]
        wire_free = max(wire_free, ready) + duration
        gated.append((end, wire_free))
    return gated


def _decode(task: ShipTask, payload: bytes) -> tuple[dict[str, np.ndarray], float]:
    """Decode phase: server-side state and decode wall time."""
    start = time.perf_counter()
    state = task.codec.decode(payload)
    return state, time.perf_counter() - start


def _result(task: ShipTask, payload: bytes, report, encode_seconds: float,
            raw_bytes: int, transfer_seconds: float,
            state: dict[str, np.ndarray], decode_seconds: float,
            decode_overlap_seconds: "float | None" = None,
            encode_overlap_seconds: "float | None" = None,
            first_byte_seconds: "float | None" = None,
            encode_scratch_bytes: int = 0) -> ShipResult:
    return ShipResult(client_id=task.client_id, payload_bytes=len(payload),
                      raw_bytes=raw_bytes, encode_seconds=encode_seconds,
                      transfer_seconds=transfer_seconds,
                      decode_seconds=decode_seconds, state=state, report=report,
                      payload=payload if task.keep_payload else None,
                      decode_overlap_seconds=decode_overlap_seconds,
                      encode_overlap_seconds=encode_overlap_seconds,
                      first_byte_seconds=first_byte_seconds,
                      encode_scratch_bytes=encode_scratch_bytes)


def _stream_decode(task: ShipTask, payload: bytes,
                   schedule: "list[tuple[int, float]] | None" = None,
                   elapsed: float = 0.0):
    """Streaming decode of one payload against its packet-arrival schedule.

    Generator protocol: yields the simulated delay to wait before each packet
    (only when the link injects real delays — the sync driver sleeps it, the
    asyncio driver awaits it) and *returns* ``(state, decode_seconds,
    overlap_seconds)``.

    The overlap accounting is a busy-time model over the analytic schedule:
    packet ``i`` starts decoding no earlier than its arrival and no earlier
    than packet ``i-1`` finished, and ``finish()`` runs after the last packet.
    ``overlap_seconds`` is the decode compute that fits before the last byte's
    arrival — the part of Eqn. 1's ``t_D`` hidden inside ``S'/B``.  Every
    recorded quantity is analytic or per-call wall time, never a function of
    scheduling, so pooled and async drivers report identical semantics.

    ``schedule`` overrides the link's analytic arrivals (the streaming-encode
    path passes its producer-gated schedule, whose time zero is encode start);
    ``elapsed`` is how much of the schedule's clock has already passed in wall
    time when this generator starts (the encode wall time on that path).
    """
    decoder = task.codec.stream_decoder()
    if schedule is None:
        schedule = task.network.packet_arrivals(len(payload), task.packet_bytes,
                                                task.straggler_slowdown)
    view = memoryview(payload)
    busy_end = 0.0
    total = 0.0
    pos = 0
    wall_start = time.perf_counter() - elapsed
    for end, arrival in schedule:
        if task.network.simulate_delay:
            yield max(0.0, arrival - (time.perf_counter() - wall_start))
        start = time.perf_counter()
        decoder.feed(view[pos:end])
        elapsed = time.perf_counter() - start
        pos = end
        total += elapsed
        busy_end = max(busy_end, arrival) + elapsed
    start = time.perf_counter()
    state, _ = decoder.finish()
    elapsed = time.perf_counter() - start
    total += elapsed
    # decode work the transfer could not hide: everything past the last byte
    residual = busy_end + elapsed - schedule[-1][1]
    return state, total, max(0.0, total - residual)


def _run_stream_decode(task: ShipTask, payload: bytes,
                       schedule: "list[tuple[int, float]] | None" = None,
                       elapsed: float = 0.0):
    """Drive :func:`_stream_decode` synchronously (sleeping the delays)."""
    steps = _stream_decode(task, payload, schedule, elapsed)
    try:
        while True:
            delay = next(steps)
            if delay > 0:
                time.sleep(delay)
    except StopIteration as stop:
        return stop.value


async def _run_stream_decode_async(task: ShipTask, payload: bytes,
                                   schedule: "list[tuple[int, float]] | None" = None,
                                   elapsed: float = 0.0):
    """Drive :func:`_stream_decode` on the event loop (awaiting the delays)."""
    steps = _stream_decode(task, payload, schedule, elapsed)
    try:
        while True:
            # awaiting even a zero delay yields, so other uplinks' packets
            # interleave with this decode exactly as on a real wire
            await asyncio.sleep(next(steps))
    except StopIteration as stop:
        return stop.value


def ship_update_task(task: ShipTask) -> ShipResult:
    """Encode, transfer, and decode one client's update.

    Runs per client on the execution backend so that simulated network delays
    (``simulate_delay=True``, the paper's MPI-delay-injection methodology)
    overlap across clients instead of sleeping serially.  Module-level with an
    explicit argument struct so the process backend can ship it to a GIL-free
    worker; per-client compression statistics come from the codec's per-call
    reporting API, so they stay accurate at any worker count on any backend.

    With ``task.streaming`` the decode runs through the codec's incremental
    stream decoder paced by the link's packet schedule — same decoded bytes,
    same recorded ``transfer_seconds``, plus the measured decode/transfer
    overlap.  With ``task.streaming_encode`` the encode runs through the
    codec's incremental stream encoder and the packet schedule is re-timed
    behind the producer — same payload bytes, same recorded
    ``transfer_seconds``, plus the measured encode/transfer overlap (and the
    two compose: a producer-gated schedule feeds the stream decoder).  With
    ``task.state_handle`` the tensors are read from a shared-memory arena
    instead of the (empty) pickled ``state``; with ``task.reference_token``
    the delta codec's reference state is resolved from the worker-resident
    registry (materializing it from ``task.reference_handle`` on first use).
    """
    if task.reference_token is not None:
        token, generation = task.reference_token
        try:
            reference = resident_reference(token, generation)
        except LookupError:
            view = task.reference_handle.open()
            try:
                # own copies: the resident reference outlives the arena view
                reference = {name: np.array(array)
                             for name, array in view.arrays().items()}
            finally:
                try:
                    view.close()
                except BufferError:
                    pass  # see the state_handle close note below
            install_reference(token, generation, reference)
        task.codec.attach_reference(reference)
        return ship_update_task(replace(task, reference_handle=None,
                                        reference_token=None))
    if task.state_handle is not None:
        view = task.state_handle.open()
        try:
            resolved = replace(task, state=view.arrays(), state_handle=None)
            result = ship_update_task(resolved)
            del resolved
        finally:
            try:
                view.close()
            except BufferError:
                # a propagating exception's traceback still pins the arena
                # views; the attachment dies with the worker process, and the
                # segment itself is unlinked by its owning transport
                pass
        return result
    if task.streaming_encode:
        enc, schedule, completion, encode_overlap = _stream_encode_phase(task)
        if task.streaming:
            state, decode_seconds, overlap = _run_stream_decode(
                task, enc.payload, schedule, elapsed=enc.encode_seconds)
            return _result(task, enc.payload, enc.report, enc.encode_seconds,
                           enc.raw_bytes, enc.transfer_seconds, state,
                           decode_seconds, overlap, encode_overlap,
                           enc.first_byte_seconds, enc.scratch_bytes)
        if task.network.simulate_delay:
            # encode wall time already elapsed; only the remaining wire time
            # of the overlapped span is simulated
            time.sleep(max(0.0, completion - enc.encode_seconds))
        state, decode_seconds = _decode(task, enc.payload)
        return _result(task, enc.payload, enc.report, enc.encode_seconds,
                       enc.raw_bytes, enc.transfer_seconds, state,
                       decode_seconds, None, encode_overlap,
                       enc.first_byte_seconds, enc.scratch_bytes)
    payload, report, encode_seconds, raw_bytes, transfer_seconds = _encode(task)
    if task.streaming:
        state, decode_seconds, overlap = _run_stream_decode(task, payload)
        return _result(task, payload, report, encode_seconds, raw_bytes,
                       transfer_seconds, state, decode_seconds, overlap)
    if task.network.simulate_delay:
        time.sleep(transfer_seconds)
    state, decode_seconds = _decode(task, payload)
    return _result(task, payload, report, encode_seconds, raw_bytes,
                   transfer_seconds, state, decode_seconds)


def _stream_encode_phase(task: ShipTask):
    """Streaming-encode phase shared by the pooled and asyncio drivers.

    Returns ``(measurements, gated_schedule, wire_completion,
    encode_overlap_seconds)``.  The overlap is the sequential
    ``encode + transfer`` span minus the overlapped completion — the part of
    Eqn. 1's ``t_C`` the wire hid — and is 0 by construction when nothing
    overlaps (a single-packet payload gates on the last piece).
    """
    enc = _stream_encode(task)
    schedule = _gated_schedule(
        task.network.packet_arrivals(len(enc.payload), task.packet_bytes,
                                     task.straggler_slowdown),
        enc.piece_ends, enc.piece_ready)
    completion = schedule[-1][1]
    overlap = max(0.0, enc.encode_seconds + enc.transfer_seconds - completion)
    return enc, schedule, completion, overlap


class Transport(abc.ABC):
    """How an encoded update crosses the network to the aggregating server."""

    name: str = "base"

    @abc.abstractmethod
    def ship(self, task: ShipTask) -> ShipResult:
        """Move one client's update end to end; returns the decoded result."""

    def ship_batch(self, tasks: "list[ShipTask]") -> "list[ShipResult]":
        """Ship several updates; default is sequential :meth:`ship` calls."""
        return [self.ship(task) for task in tasks]

    def ship_iter(self, tasks: "list[ShipTask]"):
        """Yield ``(task_index, result)`` pairs as ships complete.

        The coordinator's aggregate-on-arrival path consumes this to fold each
        decoded update into the running aggregate (and release its buffers)
        the moment its ship lands, so peak resident decoded updates is bounded
        by the transport's concurrency, not the round's fan-in.  Results may
        surface out of task order on concurrent transports; each carries the
        same values it would in :meth:`ship_batch` (deterministic fields never
        depend on scheduling).  Default: sequential, in task order.
        """
        for index, task in enumerate(tasks):
            yield index, self.ship(task)

    async def ship_async(self, task: ShipTask) -> ShipResult:
        """Asyncio variant; default delegates to the synchronous path."""
        return self.ship(task)


class SimulatedTransport(Transport):
    """The in-process simulated link the paper's methodology models.

    ``ship_batch`` fans tasks over the configured
    :class:`~repro.utils.parallel.ExecutionBackend` pool (the historic round
    engine path, bit-identical at any worker count); :meth:`ship_async` is the
    overlapped-uplink path, where the simulated transfer delay is an
    ``asyncio.sleep`` await — many in-flight uplinks share one thread, and the
    round's wall clock approaches ``Σ codec time + max transfer`` instead of
    the serial sum.  Both paths produce identical :class:`ShipResult` values:
    every recorded quantity is analytic or per-task wall time, never a
    function of scheduling.
    """

    name = "simulated"

    def __init__(self, backend: "str | ExecutionBackend" = "thread",
                 max_workers: "int | None" = 1, streaming: bool = False,
                 packet_bytes: int = DEFAULT_PACKET_BYTES,
                 streaming_encode: bool = False) -> None:
        if packet_bytes < 1:
            raise ValueError("packet_bytes must be >= 1")
        self.backend = get_backend(backend)
        self.max_workers = max_workers
        self.streaming = bool(streaming)
        self.streaming_encode = bool(streaming_encode)
        self.packet_bytes = int(packet_bytes)
        # stable registry token for hoisted delta references: workers key
        # their resident copy on it, so each round's install replaces the last
        self._ref_token = f"delta-ref-{os.getpid()}-{next(_REF_COUNTER)}"

    def _hoist_reference(self, task: ShipTask, ref_map: dict,
                         arenas: "list[SharedMemoryArena]") -> ShipTask:
        """Strip a delta codec's reference into a shared arena (pickling path).

        The reference state is identical across a round's tasks (the round's
        broadcast), so one arena per distinct reference replaces ``n_clients``
        pickled copies of the model.  Non-delta codecs pass through untouched.
        """
        reference = getattr(task.codec, "_reference", None)
        if reference is None or not hasattr(task.codec, "detached"):
            return task
        key = id(reference)
        if key not in ref_map:
            arena = SharedMemoryArena(reference)
            arenas.append(arena)
            ref_map[key] = (arena.handle,
                            (f"{self._ref_token}.{len(ref_map)}",
                             int(task.codec._generation)))
        handle, token = ref_map[key]
        return replace(task, codec=task.codec.detached(),
                       reference_handle=handle, reference_token=token)

    def _configure(self, task: ShipTask) -> ShipTask:
        """Stamp this transport's wire knobs onto a task (task wins if set)."""
        if self.streaming and not task.streaming:
            task = replace(task, streaming=True, packet_bytes=self.packet_bytes)
        if self.streaming_encode and not task.streaming_encode:
            task = replace(task, streaming_encode=True,
                           packet_bytes=self.packet_bytes)
        return task

    def ship(self, task: ShipTask) -> ShipResult:
        return ship_update_task(self._configure(task))

    def ship_batch(self, tasks: "list[ShipTask]") -> "list[ShipResult]":
        tasks = [self._configure(task) for task in tasks]
        if not self.backend.pickles_arguments:
            return self.backend.map(ship_update_task, tasks, workers=self.max_workers)
        # pickling backend: ship tensor buffers through one shared-memory
        # arena per task instead of serializing them into the task pickle;
        # the transport owns the segments and destroys them once every
        # result (whose decoded state travels back by value) has returned
        arenas: "list[SharedMemoryArena]" = []
        ref_map: dict = {}
        try:
            shipped = []
            for task in tasks:
                task = self._hoist_reference(task, ref_map, arenas)
                arena = SharedMemoryArena(task.state)
                arenas.append(arena)
                shipped.append(replace(task, state={}, state_handle=arena.handle))
            return self.backend.map(ship_update_task, shipped, workers=self.max_workers)
        finally:
            for arena in arenas:
                arena.close()

    def ship_iter(self, tasks: "list[ShipTask]"):
        """Yield ``(task_index, result)`` in completion order over the pool.

        Same per-result values as :meth:`ship_batch` — only the order in which
        they surface (and therefore the caller's peak resident set) differs.
        Each pickling-backend arena is destroyed as soon as its own result
        returns, so arena residency tracks the in-flight window too.
        """
        tasks = [self._configure(task) for task in tasks]
        if not tasks:
            return
        workers = self.backend.resolve_workers(self.max_workers, len(tasks))
        if workers <= 1:
            # inline degrade: strict task order, one update resident at a time
            for index, task in enumerate(tasks):
                yield index, ship_update_task(task)
            return
        arenas: "dict[int, SharedMemoryArena]" = {}
        ref_arenas: "list[SharedMemoryArena]" = []
        ref_map: dict = {}
        with self.backend.executor(self.max_workers, n_items=len(tasks)) as pool:
            try:
                indexed = {}
                for index, task in enumerate(tasks):
                    if self.backend.pickles_arguments:
                        task = self._hoist_reference(task, ref_map, ref_arenas)
                        arena = SharedMemoryArena(task.state)
                        arenas[index] = arena
                        task = replace(task, state={}, state_handle=arena.handle)
                    indexed[pool.submit(ship_update_task, task)] = index
                for future in as_completed(indexed):
                    index = indexed[future]
                    arena = arenas.pop(index, None)
                    if arena is not None:
                        arena.close()
                    yield index, future.result()
            finally:
                for arena in arenas.values():
                    arena.close()
                # reference arenas are shared across tasks — destroyed only
                # once every ship of the round has surfaced
                for arena in ref_arenas:
                    arena.close()

    async def ship_async(self, task: ShipTask) -> ShipResult:
        task = self._configure(task)
        if task.streaming_encode:
            enc, schedule, completion, encode_overlap = _stream_encode_phase(task)
            if task.streaming:
                state, decode_seconds, overlap = await _run_stream_decode_async(
                    task, enc.payload, schedule, elapsed=enc.encode_seconds)
                return _result(task, enc.payload, enc.report, enc.encode_seconds,
                               enc.raw_bytes, enc.transfer_seconds, state,
                               decode_seconds, overlap, encode_overlap,
                               enc.first_byte_seconds, enc.scratch_bytes)
            if task.network.simulate_delay:
                # only the wire time the encode did not hide is awaited; the
                # event loop runs other uplinks meanwhile
                await asyncio.sleep(max(0.0, completion - enc.encode_seconds))
            state, decode_seconds = _decode(task, enc.payload)
            return _result(task, enc.payload, enc.report, enc.encode_seconds,
                           enc.raw_bytes, enc.transfer_seconds, state,
                           decode_seconds, None, encode_overlap,
                           enc.first_byte_seconds, enc.scratch_bytes)
        payload, report, encode_seconds, raw_bytes, transfer_seconds = _encode(task)
        if task.streaming:
            # per-packet awaits: the event loop runs other uplinks between
            # this client's packets, and decode rides inside the gaps
            state, decode_seconds, overlap = \
                await _run_stream_decode_async(task, payload)
            return _result(task, payload, report, encode_seconds, raw_bytes,
                           transfer_seconds, state, decode_seconds, overlap)
        if task.network.simulate_delay:
            # the await is the whole point: the event loop runs other uplinks
            # (their codec work and their delays) while this transfer is in
            # flight, so delays overlap without a worker pool
            await asyncio.sleep(transfer_seconds)
        state, decode_seconds = _decode(task, payload)
        return _result(task, payload, report, encode_seconds, raw_bytes,
                       transfer_seconds, state, decode_seconds)
