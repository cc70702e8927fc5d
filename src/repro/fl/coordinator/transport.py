"""Transport service: encode → transfer → decode of one client's update.

:class:`SimulatedTransport` is the link the paper's methodology models: each
round's ship tasks fan out over the :mod:`repro.utils.parallel` thread pool,
so simulated transfer delays (``simulate_delay=True``) overlap across clients
instead of sleeping serially.  The task function is module-level over an explicit argument
struct, so a tracer can wrap it by name.

The uncompressed byte count of an update is computed analytically from array
sizes (:func:`repro.utils.serialization.packed_arrays_nbytes`); the historic
path re-encoded the entire state through ``RawUpdateCodec`` per client per
round just to measure ``len()`` of bytes it then threw away.

Every ship is Eqn. 1's ``t_C + S'/B + t_D`` in that order: encode the
whole update, sleep the analytic transfer time (on a real-delay link), then
decode the whole payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.network import NetworkModel
from repro.fl.codec import UpdateCodec
from repro.utils.parallel import map_parallel
from repro.utils.serialization import packed_arrays_nbytes

__all__ = ["ShipTask", "ShipResult", "ship_update_task", "SimulatedTransport"]

from repro.core.pipeline import FedSZReport


@dataclass
class ShipTask:
    """Explicit argument struct for :func:`ship_update_task`."""

    client_id: int
    state: dict[str, np.ndarray]
    codec: UpdateCodec
    network: NetworkModel
    #: reported transfer time is multiplied by this (1.0 = not a straggler)
    straggler_slowdown: float = 1.0
    #: retain the encoded payload on the result (journaling needs the bytes
    #: back; everyone else keeps memory flat by dropping them)
    keep_payload: bool = False


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

    Runs per client on the thread pool so that simulated network delays
    (``simulate_delay=True``, the paper's MPI-delay-injection methodology)
    overlap across clients instead of sleeping serially.  Per-client
    compression statistics come from the codec's per-call reporting API, so
    they stay accurate at any worker count.

    A ship encodes, sleeps the transfer time (on a real-delay link), then
    decodes.
    """
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

    :meth:`ship_batch` fans a round's tasks over ``max_workers`` threads
    (``1``: the calling thread), bit-identical at any worker count: every
    recorded quantity is analytic or per-task wall time, never a function of
    scheduling.
    """

    def __init__(self, max_workers: "int | None" = 1) -> None:
        self.max_workers = max_workers

    def ship_batch(self, tasks: "list[ShipTask]") -> "list[ShipResult]":
        """Ship a round's updates over the thread pool, results in task order."""
        return map_parallel(ship_update_task, tasks, self.max_workers)
