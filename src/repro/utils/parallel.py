"""Pluggable execution backends shared across the code base.

Every fan-out in the repository — the federated round engine (training /
shipping several clients per round), the per-tensor plan pipeline, and the
profiler's candidate grid — goes through one :class:`ExecutionBackend`
abstraction with two built-in implementations:

* ``serial`` — strictly sequential execution on the calling thread, always
  bit-identical to a plain ``for`` loop (the deterministic reference the test
  suite pins the thread pool against, and exactly what ``max_workers=1``
  selects on it).
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`, the default
  everywhere.  Its workers share the caller's objects, so tasks may be
  closures and may update the caller's state in place.  NumPy kernels, zlib
  and simulated network sleeps release the GIL and overlap; pure-Python work
  does not, which is why the per-tensor pipeline clamps its fan-out to the
  host's cores.

Worker-count semantics are uniform across backends:

* ``workers=1`` — strictly sequential execution on the calling thread, no
  pool is created (bit-identical to the ``serial`` backend).
* ``workers=N`` — up to ``N`` items in flight at once.
* ``workers=None`` — the backend default: ``min(32, cpu_count + 4)`` threads
  (the executor's own heuristic, tuned for I/O-ish overlap), 1 for serial.

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
* ``serial`` (or a resolved worker count of 1) degrades to a no-op scope.

Every real pool construction (persistent or per-call) increments the
backend's ``pool_spinups`` counter, so benchmarks can show how many pools a
workload paid for.

This module is dependency-free on purpose: it sits below ``repro.fl``,
``repro.core``, and ``repro.compressors`` in the layering, so every side can
import it without cycles.
"""

from __future__ import annotations

import abc
import contextlib
import os
import sys
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "available_backends",
    "get_backend",
    "map_parallel",
    "resolve_worker_count",
]

T = TypeVar("T")
R = TypeVar("R")


class ExecutionBackend(abc.ABC):
    """One way of running independent work items: serially or on threads.

    Backends are (almost) stateless; pools live only for the duration of a
    single :meth:`map` call — unless the caller opens a :meth:`persistent`
    scope, whose one long-lived pool backs every ``map`` call issued *from the
    entering thread* for the scope's lifetime.  The scope bookkeeping is
    thread-local and dropped on pickling, so instances remain safe to share
    between threads and to embed in compressor objects that are copied.
    """

    #: registry key; also what ``repr`` and the CLI show
    name: str = "base"

    #: real (non-serial) executor pools this instance has constructed — the
    #: per-round fixed cost the persistent scope exists to amortize away
    pool_spinups: int = 0

    @abc.abstractmethod
    def default_workers(self) -> int:
        """Worker count used when the caller passes ``workers=None``."""

    def resolve_workers(self, workers: int | None, n_items: int) -> int:
        """Effective worker count for ``n_items`` units of work.

        ``None`` resolves to :meth:`default_workers`; the result is always
        clamped to ``n_items`` (never spawn idle workers) and to a floor of 1.
        """
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if workers is None:
            workers = self.default_workers()
        return max(1, min(workers, n_items))

    def _make_executor(self, workers: int) -> Executor:
        """A fresh pool with ``workers`` slots.

        Only reached with more than one resolved worker, so a backend that
        always resolves one worker (``serial``) builds no pool and need not
        override this.
        """
        raise NotImplementedError(f"the {self.name} backend builds no pool")

    def _new_executor(self, workers: int) -> Executor:
        """:meth:`_make_executor` plus the ``pool_spinups`` accounting."""
        pool = self._make_executor(workers)
        self.pool_spinups += 1
        return pool

    # -- persistent scope ---------------------------------------------------
    def _scope_stack(self) -> list:
        """This thread's stack of active persistent scopes (lazily created)."""
        local = self.__dict__.get("_persistent_local")
        if local is None:
            local = self.__dict__["_persistent_local"] = threading.local()
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        return stack

    def _active_scope(self) -> "Executor | None":
        """The innermost persistent scope entered *by the calling thread*.

        Calls from any other thread (pool workers fanning out again) see
        ``None`` and keep the fresh-pool behaviour — reusing the scope's pool
        from inside one of its own workers would deadlock.
        """
        local = self.__dict__.get("_persistent_local")
        stack = getattr(local, "stack", None) if local is not None else None
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def persistent(self, workers: int | None = None):
        """One long-lived pool backing every map call in this scope.

        Yields the pool's executor, or ``None`` when the scope degrades (the
        ``serial`` backend, or a resolved worker count of 1).  Only calls
        from the thread that entered the scope reuse the pool; see
        :meth:`_active_scope`.  A task exception propagates to the mapping
        caller and leaves the pool usable.  The pool is shut down (waiting
        for stragglers) when the scope exits, even on error.
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

    # -- copying: thread-local scope state stays on this side ---------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_persistent_local", None)
        return state

    # -----------------------------------------------------------------------
    def map(self, func: Callable[[T], R], items: Sequence[T],
            workers: int | None = None) -> list[R]:
        """Apply ``func`` to every item, preserving order.

        With one resolved worker (or zero/one items) the call degenerates to a
        plain sequential loop on the calling thread, which keeps the behaviour
        deterministic for tests and avoids pool startup.  An exception raised
        by any ``func`` call propagates to the caller on every backend.

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


class SerialBackend(ExecutionBackend):
    """Sequential execution on the calling thread (the reference semantics)."""

    name = "serial"

    def default_workers(self) -> int:
        return 1

    def resolve_workers(self, workers: int | None, n_items: int) -> int:
        # validate like the thread pool, but serial is always one worker
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        return 1


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution (GIL-sharing; best for BLAS / I/O overlap)."""

    name = "thread"

    def default_workers(self) -> int:
        # the ThreadPoolExecutor heuristic: a few threads beyond the core
        # count keep I/O-ish work (simulated transfers, zlib) overlapped
        return min(32, (os.cpu_count() or 1) + 4)

    def _make_executor(self, workers: int) -> Executor:
        return ThreadPoolExecutor(max_workers=workers)


_BACKENDS: dict[str, ExecutionBackend] = {
    backend.name: backend for backend in (SerialBackend(), ThreadBackend())}


def available_backends() -> tuple[str, ...]:
    """Backend names, in registration order."""
    return tuple(_BACKENDS)


def get_backend(backend: "str | ExecutionBackend") -> ExecutionBackend:
    """Resolve a backend name to its registry instance.

    Instances pass through unchanged, so APIs can accept either form.  An
    unknown name raises :class:`ValueError` with the available choices (the
    CLI surfaces this as a one-line error).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return _BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown execution backend {backend!r}; available: "
                         f"{', '.join(available_backends())}") from None


def resolve_worker_count(max_workers: int | None, n_items: int,
                         backend: "str | ExecutionBackend" = "thread") -> int:
    """Effective number of workers for ``n_items`` units of work on ``backend``.

    ``None`` resolves to the backend default — ``min(32, cpu_count + 4)`` for
    threads, always 1 for serial — and the result is clamped to ``n_items``
    (never spawn idle workers) and to a floor of 1.
    """
    return get_backend(backend).resolve_workers(max_workers, n_items)


def map_parallel(func: Callable[[T], R], items: Sequence[T],
                 max_workers: int | None = None,
                 backend: "str | ExecutionBackend" = "thread") -> list[R]:
    """Apply ``func`` to every item on the named backend, preserving order.

    The historic thread-pool helper, now a thin wrapper over
    :meth:`ExecutionBackend.map`; ``backend="serial"`` (or ``max_workers=1``)
    is the plain sequential loop.
    """
    return get_backend(backend).map(func, items, workers=max_workers)
