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

Every ship is Eqn. 1's ``t_C + S'/B + t_D`` in that order: encode the
whole update, sleep the analytic transfer time (on a real-delay link), then
decode the whole payload.  On backends with the ``pickles_arguments`` trait,
``ship_batch`` moves each task's tensors through a
:class:`~repro.utils.parallel.SharedMemoryArena` segment instead of pickling
the buffers into the task.
"""

from __future__ import annotations

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

__all__ = ["ShipTask", "ShipResult", "ship_update_task", "SimulatedTransport"]

from repro.core.pipeline import FedSZReport

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


def ship_update_task(task: ShipTask) -> ShipResult:
    """Encode, transfer, and decode one client's update.

    Runs per client on the execution backend so that simulated network delays
    (``simulate_delay=True``, the paper's MPI-delay-injection methodology)
    overlap across clients instead of sleeping serially.  Module-level with an
    explicit argument struct so the process backend can ship it to a GIL-free
    worker; per-client compression statistics come from the codec's per-call
    reporting API, so they stay accurate at any worker count on any backend.

    A ship encodes, sleeps the transfer time (on a real-delay link), then
    decodes.  With ``task.state_handle`` the tensors are read from a
    shared-memory arena instead of the (empty) pickled ``state``; with
    ``task.reference_token`` the delta codec's reference state is resolved
    from the worker-resident registry (materializing it from
    ``task.reference_handle`` on first use).
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
    payload, report = task.codec.encode_with_report(task.state)
    encode_seconds = time.perf_counter() - start
    transfer_seconds = task.network.transfer_time(len(payload)) * task.straggler_slowdown
    if task.network.simulate_delay:
        time.sleep(transfer_seconds)
    start = time.perf_counter()
    state = task.codec.decode(payload)
    decode_seconds = time.perf_counter() - start
    return ShipResult(client_id=task.client_id, payload_bytes=len(payload),
                      # a pure function of the arrays' dtypes/shapes and key
                      # names — no need to serialize the state to measure it
                      raw_bytes=packed_arrays_nbytes(task.state),
                      encode_seconds=encode_seconds,
                      transfer_seconds=transfer_seconds,
                      decode_seconds=decode_seconds, state=state, report=report,
                      payload=payload if task.keep_payload else None)


class SimulatedTransport:
    """The in-process simulated link the paper's methodology models.

    :meth:`ship_batch` fans a round's tasks over the configured
    :class:`~repro.utils.parallel.ExecutionBackend` pool, bit-identical at
    any worker count: every recorded quantity is analytic or per-task wall
    time, never a function of scheduling.
    """

    def __init__(self, backend: "str | ExecutionBackend" = "thread",
                 max_workers: "int | None" = 1) -> None:
        self.backend = get_backend(backend)
        self.max_workers = max_workers
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

    def ship_batch(self, tasks: "list[ShipTask]") -> "list[ShipResult]":
        """Ship a round's updates over the backend pool, results in task order."""
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
