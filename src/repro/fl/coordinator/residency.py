"""Worker-resident client fleets for the persistent round runtime.

On a ``pickles_arguments`` backend the historic train path re-pickles every
:class:`~repro.fl.client.FLClient` — dataset shard included — into the pool on
every round.  The persistent runtime ships the fleet **once**: the
coordinator passes :func:`install_fleet` as the persistent pool's initializer
(see :meth:`~repro.utils.parallel.ExecutionBackend.persistent`), so each
worker receives its resident copy of the fleet when it spawns (and again if a
crashed process worker is respawned — the initializer contract is
once-per-worker, which makes residency self-healing).  Per-round train tasks
then carry only a ``(token, generation)`` reference plus the broadcast global
state, and :func:`resident_client` resolves the reference inside the worker.

The registry is plain module-global process memory:

* **process workers** get their own copy installed by the
  initializer (that is the point),
* **thread workers and inline degrades** share the caller's registry — the
  coordinator installs the fleet in its own process too, so a map that
  resolves to a single worker (and therefore runs inline) finds the same
  clients the pool workers would,
* **stdlib pools cannot target workers**, so every worker holds the whole
  fleet: ``client_id → worker`` affinity is trivially sticky because any
  worker can train any client from its resident copy, and results stay
  bit-identical because training is a pure function of ``(global_state,
  shard, seed, round_index)`` — ``receive_global`` overwrites the replica's
  state before every local fit, and ``train_local`` re-seeds the batch order
  and the dropout masks from the client seed and round index, so no
  generator state carries over from whichever worker trained the client
  last.

Invalidation: the *generation* half of the reference.  When the caller's
roster changes, the coordinator bumps the generation — on shared-memory
backends by re-installing (cheap, references only); on pickling backends the
live pool's workers cannot re-run initializers, so the coordinator deactivates
residency instead and falls back to full-client tasks for the rest of the
scope (see ``Coordinator.run_round``).  A stale reference always fails loudly
via :class:`LookupError` rather than training an outdated client.

Reference states (the delta codec's cross-round anchor) follow the same
token/generation discipline through :func:`install_reference` /
:func:`resident_reference`: the transport ships the round's broadcast state to
pickling-backend workers through one shared-memory arena, and the first ship
task each worker runs materializes it into this registry — every later ship
of the round (and the same worker's next rounds, each replacing the last
under the same token) resolves the reference locally instead of re-attaching
the segment.  The generation is the reference's round index, so a task can
never decode a residual against another round's state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    import numpy as np

    from repro.fl.client import FLClient

__all__ = ["install_fleet", "resident_client", "discard_fleet",
           "install_reference", "resident_reference", "discard_reference"]

#: token -> (generation, clients-by-id); one generation per token at a time,
#: so re-installing under the same token frees the previous roster's memory
_FLEETS: "dict[str, tuple[int, dict[int, FLClient]]]" = {}


def install_fleet(token: str, generation: int,
                  clients: "Mapping[int, FLClient]") -> None:
    """Make a client fleet resident in this process (pool-initializer hook).

    Module-level and picklable so a process pool can run it as its worker
    initializer with ``(token, generation, clients)`` as initargs — the one
    place the fleet crosses the pickle boundary per run.
    """
    _FLEETS[token] = (int(generation), dict(clients))


def resident_client(token: str, generation: int, client_id: int) -> "FLClient":
    """Resolve a resident-fleet reference to the worker's client replica.

    Raises :class:`LookupError` for an unknown token, a stale generation, or
    an unknown client id — a resident train task must never silently train
    the wrong (or an outdated) client.
    """
    entry = _FLEETS.get(token)
    if entry is None:
        raise LookupError(
            f"no resident fleet {token!r} in this worker — the pool was "
            f"created without the fleet initializer, or the fleet was "
            f"discarded while tasks referencing it were still in flight")
    installed, clients = entry
    if installed != generation:
        raise LookupError(
            f"resident fleet {token!r} is at generation {installed}, task "
            f"expects {generation} — the client roster changed without the "
            f"coordinator re-installing or deactivating residency")
    try:
        return clients[client_id]
    except KeyError:
        raise LookupError(
            f"client {client_id} is not part of resident fleet {token!r} "
            f"(generation {generation})") from None


def discard_fleet(token: str) -> None:
    """Drop a fleet from this process's registry (idempotent).

    Callers run this when a persistent scope exits.  Thread workers share the
    caller's registry, so this frees the references; process workers' copies
    die with the pool itself.
    """
    _FLEETS.pop(token, None)


#: token -> (generation, reference state); one generation per token at a time,
#: so each round's install frees the previous round's resident copy
_REFERENCES: "dict[str, tuple[int, dict[str, np.ndarray]]]" = {}


def install_reference(token: str, generation: int,
                      state: "Mapping[str, np.ndarray]") -> None:
    """Make a delta reference state resident in this process.

    Workers call this with the state materialized from the transport's shared
    arena; installing the next generation under the same token replaces (and
    frees) the previous round's copy, so worker memory stays one reference
    per transport regardless of run length.
    """
    _REFERENCES[token] = (int(generation), dict(state))


def resident_reference(token: str, generation: int) -> "dict[str, np.ndarray]":
    """Resolve a resident reference, enforcing the generation tag.

    Raises :class:`LookupError` for an unknown token or a stale generation —
    the transport treats that as a cache miss and re-materializes from the
    arena, and nothing can ever decode against another round's reference.
    """
    entry = _REFERENCES.get(token)
    if entry is None:
        raise LookupError(f"no resident reference {token!r} in this worker")
    installed, state = entry
    if installed != generation:
        raise LookupError(
            f"resident reference {token!r} is at generation {installed}, "
            f"task expects {generation}")
    return state


def discard_reference(token: str) -> None:
    """Drop a resident reference from this process's registry (idempotent)."""
    _REFERENCES.pop(token, None)
