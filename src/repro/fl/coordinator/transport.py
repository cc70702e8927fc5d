"""Transport service: encode → transfer → decode of one client's update.

:class:`SimulatedTransport` is the link the paper's methodology models: each
round's ship tasks fan out over the configured
:class:`~repro.utils.parallel.ExecutionBackend` pool, so simulated transfer
delays (``simulate_delay=True``) overlap across clients instead of sleeping
serially.  The task function stays module-level over an explicit picklable
argument struct — the contract that lets the ``process`` backend ship it to
a GIL-free worker.

The uncompressed byte count of an update is computed analytically from array
sizes (:func:`repro.utils.serialization.packed_arrays_nbytes`); the historic
path re-encoded the entire state through ``RawUpdateCodec`` per client per
round just to measure ``len()`` of bytes it then threw away.

Two wire refinements (both bit-identical to the default batch ship):

* ``streaming=True`` encodes through the codec's incremental
  :meth:`~repro.fl.codec.UpdateCodec.stream_encoder` and decodes through its
  :meth:`~repro.fl.codec.UpdateCodec.stream_decoder`.  The link's analytic
  packet schedule is re-timed behind the producer (a packet leaves once the
  wire is free *and* its bytes exist) and each packet is fed to the decoder
  as it arrives, so Eqn. 1's ``t_C`` and ``t_D`` both overlap ``S'/B``.  The
  hidden time is reported on ``ShipResult.encode_overlap_seconds`` and
  ``decode_overlap_seconds`` (alongside the producer's first-piece latency
  and peak packing scratch); the recorded ``transfer_seconds`` stays the
  analytic wire time, so the deterministic fields are unchanged.
* On backends with the ``pickles_arguments`` trait, ``ship_batch`` moves each
  task's tensors through a :class:`~repro.utils.parallel.SharedMemoryArena`
  segment instead of pickling the buffers into the task.
"""

from __future__ import annotations

import bisect
import itertools
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.core.network import NetworkModel
from repro.fl.codec import UpdateCodec
from repro.fl.coordinator.residency import (install_reference,
                                            resident_reference)
from repro.utils.parallel import (ArenaHandle, ExecutionBackend,
                                  SharedMemoryArena, get_backend)
from repro.utils.serialization import packed_arrays_nbytes

__all__ = ["ShipTask", "ShipResult", "ship_update_task", "SimulatedTransport",
           "DEFAULT_PACKET_BYTES"]

from repro.core.pipeline import FedSZReport

#: simulated wire segment size for the streaming path; small enough that a
#: multi-chunk Huffman stream spans many packets, large enough that
#: per-packet bookkeeping stays negligible against codec work
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
    #: encode and decode through the codec's incremental stream coders, with
    #: the link's packet schedule gated behind the encoder's pieces, so codec
    #: time hides inside transfer time (bit-identical outputs either way)
    streaming: bool = False
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
    #: streaming ships only: the portion of ``decode_seconds`` that the busy
    #: model places *before* the last byte's arrival — decode work hidden
    #: inside the transfer window (``None`` on batch ships)
    decode_overlap_seconds: "float | None" = None
    #: streaming ships only: encode work hidden inside the transfer window —
    #: the sequential ``encode + transfer`` span minus the overlapped wire
    #: completion under the producer-gated packet schedule (``None`` on batch
    #: ships)
    encode_overlap_seconds: "float | None" = None
    #: streaming ships only: seconds until the encoder's first payload piece
    #: was ready to leave (the stream's first-byte-out latency)
    first_byte_seconds: "float | None" = None
    #: streaming ships only: the encoder's analytic peak emission scratch
    #: estimate in bytes (0 when the codec does not track it)
    encode_scratch_bytes: int = 0


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


def _stream_decode(task: ShipTask, payload: bytes,
                   schedule: "list[tuple[int, float]]", elapsed: float):
    """Streaming decode of one payload against its packet-arrival schedule.

    Returns ``(state, decode_seconds, overlap_seconds)``.  ``schedule``'s
    time zero is encode start and ``elapsed`` is how much of that clock has
    already passed in wall time (the encode wall time); on a real-delay link
    each packet is fed only once its arrival time has passed.

    The overlap accounting is a busy-time model over the schedule: packet
    ``i`` starts decoding no earlier than its arrival and no earlier than
    packet ``i-1`` finished, and ``finish()`` runs after the last packet.
    ``overlap_seconds`` is the decode compute that fits before the last byte's
    arrival — the part of Eqn. 1's ``t_D`` hidden inside ``S'/B``.  Every
    recorded quantity is analytic or per-call wall time, never a function of
    scheduling.
    """
    decoder = task.codec.stream_decoder()
    view = memoryview(payload)
    busy_end = 0.0
    total = 0.0
    pos = 0
    wall_start = time.perf_counter() - elapsed
    for end, arrival in schedule:
        if task.network.simulate_delay:
            delay = arrival - (time.perf_counter() - wall_start)
            if delay > 0:
                time.sleep(delay)
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


def ship_update_task(task: ShipTask) -> ShipResult:
    """Encode, transfer, and decode one client's update.

    Runs per client on the execution backend so that simulated network delays
    (``simulate_delay=True``, the paper's MPI-delay-injection methodology)
    overlap across clients instead of sleeping serially.  Module-level with an
    explicit argument struct so the process backend can ship it to a GIL-free
    worker; per-client compression statistics come from the codec's per-call
    reporting API, so they stay accurate at any worker count on any backend.

    A batch ship encodes, sleeps the transfer time (on a real-delay link),
    then decodes.  With ``task.streaming`` the encoder's pieces gate the
    link's packet schedule and each packet feeds the stream decoder as it
    arrives — same payload bytes, same decoded state, same recorded
    ``transfer_seconds``, plus the measured encode and decode overlap.  With
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
    start = time.perf_counter()
    if task.streaming:
        # the concatenated pieces are byte-identical to the batch payload
        # (the codec's contract); streaming adds when each piece was ready
        encoder = task.codec.stream_encoder()
        pieces: "list[bytes]" = []
        piece_ends: "list[int]" = []
        piece_ready: "list[float]" = []
        for piece in encoder.chunks(task.state):
            if piece:
                piece_ready.append(time.perf_counter() - start)
                pieces.append(piece)
                piece_ends.append(len(piece) + (piece_ends[-1] if piece_ends else 0))
        payload, report = b"".join(pieces), encoder.report
    else:
        payload, report = task.codec.encode_with_report(task.state)
    encode_seconds = time.perf_counter() - start
    transfer_seconds = task.network.transfer_time(len(payload)) * task.straggler_slowdown
    result = ShipResult(client_id=task.client_id, payload_bytes=len(payload),
                        # a pure function of the arrays' dtypes/shapes and key
                        # names — no need to serialize the state to measure it
                        raw_bytes=packed_arrays_nbytes(task.state),
                        encode_seconds=encode_seconds,
                        transfer_seconds=transfer_seconds, decode_seconds=0.0,
                        state={}, report=report,
                        payload=payload if task.keep_payload else None)
    if not task.streaming:
        if task.network.simulate_delay:
            time.sleep(transfer_seconds)
        start = time.perf_counter()
        result.state = task.codec.decode(payload)
        result.decode_seconds = time.perf_counter() - start
        return result
    schedule = _gated_schedule(
        task.network.packet_arrivals(len(payload), task.packet_bytes,
                                     task.straggler_slowdown),
        piece_ends, piece_ready)
    result.state, result.decode_seconds, result.decode_overlap_seconds = \
        _stream_decode(task, payload, schedule, elapsed=encode_seconds)
    # the sequential encode + transfer span minus the overlapped completion:
    # the part of t_C the wire hid (0 when a single packet gates on the
    # last piece)
    result.encode_overlap_seconds = max(
        0.0, encode_seconds + transfer_seconds - schedule[-1][1])
    result.first_byte_seconds = piece_ready[0] if piece_ready else 0.0
    result.encode_scratch_bytes = encoder.peak_scratch_bytes
    return result


class SimulatedTransport:
    """The in-process simulated link the paper's methodology models.

    :meth:`ship_batch` fans a round's tasks over the configured
    :class:`~repro.utils.parallel.ExecutionBackend` pool, bit-identical at
    any worker count: every recorded quantity is analytic or per-task wall
    time, never a function of scheduling.  ``streaming`` and
    ``packet_bytes`` are stamped onto every task this transport ships.
    """

    def __init__(self, backend: "str | ExecutionBackend" = "thread",
                 max_workers: "int | None" = 1, streaming: bool = False,
                 packet_bytes: int = DEFAULT_PACKET_BYTES) -> None:
        if packet_bytes < 1:
            raise ValueError("packet_bytes must be >= 1")
        self.backend = get_backend(backend)
        self.max_workers = max_workers
        self.streaming = bool(streaming)
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
        return task

    def ship(self, task: ShipTask) -> ShipResult:
        """Move one client's update end to end in the calling thread."""
        return ship_update_task(self._configure(task))

    def ship_batch(self, tasks: "list[ShipTask]") -> "list[ShipResult]":
        """Ship a round's updates over the backend pool, results in task order."""
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
