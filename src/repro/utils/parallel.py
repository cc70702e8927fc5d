"""The one execution setting shared across the code base: a worker count.

Every fan-out in the repository — the federated round engine (training /
shipping several clients per round), the per-tensor plan pipeline, and the
profiler's candidate grid — maps its work items through :data:`POOL`, the one
:class:`ExecutionBackend`.  Its worker count is the only execution setting:

* ``workers=1`` — strictly sequential execution on the calling thread, no
  pool is created: the deterministic reference the test suite pins every
  other worker count against.
* ``workers=N`` — up to ``N`` items in flight at once on a
  :class:`~concurrent.futures.ThreadPoolExecutor`.  Its workers share the
  caller's objects, so tasks may be closures and may update the caller's
  state in place.  NumPy kernels, zlib and simulated network sleeps release
  the GIL and overlap; pure-Python work does not, which is why the
  per-tensor pipeline clamps its fan-out to the host's cores.
* ``workers=None`` — ``min(32, cpu_count + 4)`` threads (the executor's own
  heuristic, tuned for I/O-ish overlap).

Pools are per-call by default — every :meth:`~ExecutionBackend.map` spins one
up and tears it down.  Call sites that fan out repeatedly (a federated run
maps training and shipping every round) wrap the whole run in
:meth:`ExecutionBackend.persistent`, a scope backed by one long-lived pool:

* inside the scope, ``map`` calls **from the thread that entered it** reuse
  the scope's pool, still running at most their own worker count of items
  at a time;
* calls from *other* threads — e.g. a nested fan-out issued inside a pool
  worker — keep the fresh-pool/sequential behaviour, which is what makes the
  scope deadlock-free by construction;
* a resolved worker count of 1 degrades to a no-op scope.

Every real pool construction (persistent or per-call) increments
``pool_spinups``, so benchmarks can show how many pools a workload paid for.

This module is dependency-free on purpose: it sits below ``repro.fl``,
``repro.core``, and ``repro.compressors`` in the layering, so every side can
import it without cycles.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

__all__ = [
    "ExecutionBackend",
    "POOL",
    "get_backend",
    "map_parallel",
    "resolve_worker_count",
]

T = TypeVar("T")
R = TypeVar("R")


class ExecutionBackend:
    """Runs independent work items on the calling thread or a thread pool.

    Pools live only for the duration of a single :meth:`map` call — unless the
    caller opens a :meth:`persistent` scope, whose one long-lived pool backs
    every ``map`` call issued *from the entering thread* for the scope's
    lifetime.  The scope bookkeeping is thread-local, so the instance is safe
    to share between threads.
    """

    #: what ``get_backend`` accepts and ``repr`` shows
    name = "thread"

    def __init__(self) -> None:
        #: executor pools this instance has constructed — the per-round fixed
        #: cost the persistent scope exists to amortize away
        self.pool_spinups = 0
        self._persistent_local = threading.local()

    def resolve_workers(self, workers: int | None, n_items: int) -> int:
        """Effective worker count for ``n_items`` units of work.

        ``None`` resolves to ``min(32, cpu_count + 4)``: a few threads beyond
        the core count keep I/O-ish work (simulated transfers, zlib)
        overlapped.  The result is always clamped to ``n_items`` (never spawn
        idle workers) and to a floor of 1.
        """
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if workers is None:
            workers = min(32, (os.cpu_count() or 1) + 4)
        return max(1, min(workers, n_items))

    def _new_executor(self, workers: int) -> Executor:
        """A fresh pool with ``workers`` threads, counted in ``pool_spinups``."""
        self.pool_spinups += 1
        return ThreadPoolExecutor(max_workers=workers)

    # -- persistent scope ---------------------------------------------------
    def _scope_stack(self) -> list:
        """This thread's stack of active persistent scopes (lazily created)."""
        local = self._persistent_local
        if not hasattr(local, "stack"):
            local.stack = []
        return local.stack

    def _active_scope(self) -> "Executor | None":
        """The innermost persistent scope entered *by the calling thread*.

        Calls from any other thread (pool workers fanning out again) see
        ``None`` and keep the fresh-pool behaviour — reusing the scope's pool
        from inside one of its own workers would deadlock.
        """
        stack = getattr(self._persistent_local, "stack", None)
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def persistent(self, workers: int | None = None):
        """One long-lived pool backing every map call in this scope.

        Yields the pool's executor, or ``None`` when the scope degrades (a
        resolved worker count of 1).  Only calls from the thread that entered
        the scope reuse the pool; see :meth:`_active_scope`.  A task exception
        propagates to the mapping caller and leaves the pool usable.  The pool
        is shut down (waiting for stragglers) when the scope exits, even on
        error.
        """
        # resolve against an unbounded item count: the scope serves maps of
        # many different sizes, so per-call clamping happens at map() time
        resolved = self.resolve_workers(workers, sys.maxsize)
        if resolved == 1:
            yield None
            return
        pool = self._new_executor(resolved)
        stack = self._scope_stack()
        stack.append(pool)
        try:
            with pool:
                yield pool
        finally:
            stack.remove(pool)

    # -----------------------------------------------------------------------
    def map(self, func: Callable[[T], R], items: Sequence[T],
            workers: int | None = None) -> list[R]:
        """Apply ``func`` to every item, preserving order.

        With one resolved worker (or zero/one items) the call degenerates to a
        plain sequential loop on the calling thread, which keeps the behaviour
        deterministic for tests and avoids pool startup.  An exception raised
        by any ``func`` call propagates to the caller.

        Inside a persistent scope entered on the calling thread, the scope's
        pool serves the map instead of a fresh one, still on no more of its
        threads than the map's own resolved worker count.
        """
        items = list(items)
        if not items:
            return []
        workers = self.resolve_workers(workers, len(items))
        if workers == 1:
            return [func(item) for item in items]
        pool = self._active_scope()
        if pool is not None:
            return _map_bounded(pool, func, items, workers)
        with self._new_executor(workers) as pool:
            return list(pool.map(func, items))

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"{type(self).__name__}(name={self.name!r})"


def _map_bounded(pool: Executor, func: Callable[[T], R], items: list,
                 workers: int) -> list[R]:
    """``func`` over ``items`` on ``workers`` of ``pool``'s threads, in order:
    each claims the next unclaimed item until none is left.  Like
    :meth:`Executor.map`, the first failed item's exception propagates, and
    no item is claimed after a failure."""
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    claim = threading.Lock()
    order = iter(range(len(items)))

    def drain() -> None:
        while True:
            with claim:
                index = None if errors else next(order, None)
            if index is None:
                return
            try:
                results[index] = func(items[index])
            except BaseException as exc:  # re-raised on the mapping thread
                with claim:
                    errors[index] = exc

    for runner in [pool.submit(drain) for _ in range(workers)]:
        runner.result()
    if errors:
        raise errors[min(errors)]
    return results


#: the one pool every fan-out runs on
POOL = ExecutionBackend()


def get_backend(backend: "str | ExecutionBackend") -> ExecutionBackend:
    """:data:`POOL`, named ``"thread"`` or passed as itself.

    Any other value raises :class:`ValueError` naming the one choice.  The
    worker count alone picks the calling thread (``1``) or the pool, so no
    other backend exists.
    """
    if backend is POOL or backend == POOL.name:
        return POOL
    raise ValueError(f"unknown execution backend {backend!r}; "
                     f"available: {POOL.name}")


def resolve_worker_count(max_workers: int | None, n_items: int) -> int:
    """Effective number of workers for ``n_items`` units of work.

    ``None`` resolves to ``min(32, cpu_count + 4)``, and the result is
    clamped to ``n_items`` (never spawn idle workers) and to a floor of 1.
    """
    return POOL.resolve_workers(max_workers, n_items)


def map_parallel(func: Callable[[T], R], items: Sequence[T],
                 max_workers: int | None = None) -> list[R]:
    """Apply ``func`` to every item on :data:`POOL`, preserving order;
    ``max_workers=1`` is the plain sequential loop."""
    return POOL.map(func, items, workers=max_workers)
