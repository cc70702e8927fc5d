"""Per-tensor compression plans and the plan-policy registry.

FedSZ plans a lossy tensor in one of two ways, and each is a policy here:

* ``uniform`` — Algorithm 1: one EBLC and one bound for every weight tensor
  above the threshold (the paper's operating point is SZ2 at REL 1e-2),
* ``profiled`` — Section IV's Problems 1 and 2: pick the EBLC and bound per
  link by measuring the candidates; lives in :mod:`repro.core.profiling` and
  is registered here through a lazy factory.

The module holds:

* :class:`TensorPlan` — one lossy tensor's full compression decision: codec
  registry name, error bound, bound mode, and codec-specific options,
* :class:`CompressionPlan` — the ordered per-tensor plans for one state dict,
  with a compact wire form (:func:`pack_plan` / :func:`unpack_plan`) that the
  pipeline embeds in the bitstream manifest, so streams whose tensors use
  different codecs (a ``profiled`` plan's) are self-describing,
* :class:`CompressionPolicy` — the interface mapping the lossy partition to a
  plan, and the registry (:func:`get_policy` / :func:`available_policies`)
  that ``FedSZConfig.policy`` names.

Policies may attach machine-readable *provenance* — why each tensor got its
plan — under the reserved :data:`PLAN_PROVENANCE_KEY` options key; the
pipeline strips it before constructing codecs, so it rides the manifest's plan
summary without affecting the bitstream payloads (documented in FORMATS.md).

Layering: this module sits *below* :mod:`repro.core.pipeline` (which consumes
plans) and imports only the compressor base types, so policies never create
import cycles.
"""

from __future__ import annotations

import abc
import json
import math
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.compressors.base import ErrorBoundMode

__all__ = [
    "PLAN_PROVENANCE_KEY",
    "TensorPlan",
    "CompressionPlan",
    "pack_plan",
    "unpack_plan",
    "CompressionPolicy",
    "UniformPolicy",
    "available_policies",
    "get_policy",
]

#: Bound-mode wire codes (u8 in the manifest plan block).
_MODE_CODES = {ErrorBoundMode.ABS: 0, ErrorBoundMode.REL: 1}
_CODE_MODES = {code: mode for mode, code in _MODE_CODES.items()}

#: Reserved ``TensorPlan.options`` key carrying policy provenance metadata.
#: Every other options key is forwarded to the codec factory; this one is
#: stripped by the pipeline before codec construction, so policies can record
#: *why* a tensor got its plan (the profiled policy's modeled times, Eqn.-1
#: verdict, ...) in the manifest's plan summary without perturbing payloads.
PLAN_PROVENANCE_KEY = "__provenance__"


@dataclass(frozen=True)
class TensorPlan:
    """The complete compression decision for one lossy tensor.

    ``options`` are forwarded to the codec factory and must be
    JSON-serializable (they ride along in the manifest's plan summary).
    """

    name: str
    codec: str
    error_bound: float
    mode: ErrorBoundMode = ErrorBoundMode.REL
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("TensorPlan needs a non-empty tensor name")
        if not self.codec:
            raise ValueError(f"TensorPlan for {self.name!r} needs a codec name")
        if not (isinstance(self.error_bound, (int, float))
                and math.isfinite(self.error_bound) and self.error_bound > 0):
            raise ValueError(f"TensorPlan for {self.name!r} needs a positive finite "
                             f"error bound, got {self.error_bound!r}")
        if isinstance(self.mode, str):
            object.__setattr__(self, "mode", ErrorBoundMode(self.mode))
        object.__setattr__(self, "error_bound", float(self.error_bound))
        object.__setattr__(self, "options", dict(self.options))
        try:
            json.dumps(self.options, sort_keys=True)
        except TypeError as exc:
            # fail at plan construction with the tensor named, not midway
            # through a compress inside pack_plan
            raise ValueError(f"TensorPlan options for {self.name!r} must be "
                             f"JSON-serializable: {exc}") from exc


class CompressionPlan:
    """Ordered per-tensor plans for one state dict's lossy partition."""

    def __init__(self, entries: "Mapping[str, TensorPlan] | None" = None) -> None:
        self.entries: "OrderedDict[str, TensorPlan]" = OrderedDict()
        for name, plan in (entries or {}).items():
            if name != plan.name:
                raise ValueError(f"plan keyed {name!r} describes tensor {plan.name!r}")
            self.entries[name] = plan

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TensorPlan]:
        return iter(self.entries.values())

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __getitem__(self, name: str) -> TensorPlan:
        return self.entries[name]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompressionPlan) and self.entries == other.entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompressionPlan({list(self.entries.values())!r})"

    @property
    def tensor_names(self) -> list[str]:
        """Planned tensor names in bitstream order."""
        return list(self.entries)

    @property
    def codecs(self) -> list[str]:
        """Sorted distinct codec names the plan uses."""
        return sorted({plan.codec for plan in self})

    def bounds(self) -> "OrderedDict[str, float]":
        """Per-tensor error-bound values, in plan order."""
        return OrderedDict((name, plan.error_bound) for name, plan in self.entries.items())


# ---------------------------------------------------------------------------
# Wire form: the plan summary block embedded in the v4 manifest.
# ---------------------------------------------------------------------------

def _plan_corrupt(detail: str) -> ValueError:
    return ValueError(f"corrupt FedSZ plan summary: {detail}")


def _require(buf: bytes, offset: int, needed: int, what: str) -> None:
    if needed < 0 or offset + needed > len(buf):
        raise _plan_corrupt(f"{what} needs {needed} bytes at offset {offset}, "
                            f"but only {max(len(buf) - offset, 0)} remain")


def pack_plan(plan: CompressionPlan) -> bytes:
    """Serialize ``plan`` into the manifest's plan-summary block.

    Layout (little-endian)::

        u32  number of entries
        per entry:
          u16 + utf-8   tensor name
          u8  + ascii   codec registry name
          f64           error-bound value
          u8            bound mode (0 = abs, 1 = rel)
          u16 + utf-8   codec options as canonical JSON ("" when empty)
    """
    out = [struct.pack("<I", len(plan))]
    for entry in plan:
        name = entry.name.encode("utf-8")
        try:
            codec = entry.codec.encode("ascii")
        except UnicodeEncodeError:
            raise ValueError(f"codec name {entry.codec!r} of {entry.name!r} "
                             f"cannot be serialized (must be ASCII)") from None
        options = json.dumps(entry.options, sort_keys=True,
                             separators=(",", ":")).encode("utf-8") \
            if entry.options else b""
        if len(name) > 0xFFFF:
            raise ValueError(f"tensor name too long to serialize: {entry.name[:32]!r}...")
        if len(codec) > 0xFF:
            raise ValueError(f"codec name too long to serialize: {entry.codec!r}")
        if len(options) > 0xFFFF:
            raise ValueError(f"options of {entry.name!r} too large to serialize")
        out.append(struct.pack("<H", len(name)) + name)
        out.append(struct.pack("<B", len(codec)) + codec)
        out.append(struct.pack("<dB", entry.error_bound, _MODE_CODES[entry.mode]))
        out.append(struct.pack("<H", len(options)) + options)
    return b"".join(out)


def unpack_plan(buf: bytes, offset: int = 0) -> tuple[CompressionPlan, int]:
    """Parse a plan-summary block; returns the plan and the next offset.

    Every declared length is bounds-checked and every field validated, so a
    truncated or corrupted block raises :class:`ValueError` (never
    ``struct.error`` / ``UnicodeDecodeError`` / ``KeyError``).
    """
    _require(buf, offset, 4, "entry count")
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    entries: "OrderedDict[str, TensorPlan]" = OrderedDict()
    for i in range(count):
        _require(buf, offset, 2, f"name length of entry {i}")
        (name_len,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        _require(buf, offset, name_len, f"name of entry {i}")
        try:
            name = buf[offset:offset + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _plan_corrupt(f"entry {i} name is not valid UTF-8") from exc
        offset += name_len

        _require(buf, offset, 1, f"codec length of entry {i}")
        codec_len = buf[offset]
        offset += 1
        _require(buf, offset, codec_len, f"codec of entry {i}")
        try:
            codec = buf[offset:offset + codec_len].decode("ascii")
        except UnicodeDecodeError as exc:
            raise _plan_corrupt(f"entry {i} codec is not valid ASCII") from exc
        offset += codec_len

        _require(buf, offset, 9, f"bound of entry {i}")
        bound, mode_code = struct.unpack_from("<dB", buf, offset)
        offset += 9
        if mode_code not in _CODE_MODES:
            raise _plan_corrupt(f"entry {i} has unknown bound-mode code {mode_code}")

        _require(buf, offset, 2, f"options length of entry {i}")
        (opt_len,) = struct.unpack_from("<H", buf, offset)
        offset += 2
        _require(buf, offset, opt_len, f"options of entry {i}")
        options: dict = {}
        if opt_len:
            try:
                options = json.loads(buf[offset:offset + opt_len].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _plan_corrupt(f"entry {i} options are not valid JSON") from exc
            if not isinstance(options, dict):
                raise _plan_corrupt(f"entry {i} options are not a JSON object")
        offset += opt_len

        if name in entries:
            raise _plan_corrupt(f"duplicate plan entry for tensor {name!r}")
        try:
            entries[name] = TensorPlan(name, codec, bound, _CODE_MODES[mode_code], options)
        except ValueError as exc:
            raise _plan_corrupt(f"entry {i} ({name!r}) is invalid: {exc}") from exc
    return CompressionPlan(entries), offset


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class CompressionPolicy(abc.ABC):
    """Maps a lossy partition to a :class:`CompressionPlan`."""

    #: registry name; subclasses override
    name: str = "base"

    def for_network(self, network) -> "CompressionPolicy":
        """Resolve this policy against one client's link.

        Bandwidth-aware policies (``profiled``) return a variant bound to
        ``network`` — the hook the round engine uses to give every client of a
        heterogeneous fleet its own per-link plan.  The default is a no-op:
        ``uniform`` decides independently of the link.
        """
        return self

    @abc.abstractmethod
    def build_plan(self, tensors: "Mapping[str, np.ndarray]", config) -> CompressionPlan:
        """Plan every tensor of the lossy partition, in partition order.

        Keeps no per-call state on ``self``, so one policy instance can build
        plans from several round-engine threads at once.
        """


class UniformPolicy(CompressionPolicy):
    """One codec, one bound for every tensor — the paper's Algorithm 1."""

    name = "uniform"

    def build_plan(self, tensors: "Mapping[str, np.ndarray]", config) -> CompressionPlan:
        return CompressionPlan(OrderedDict(
            (name, TensorPlan(name, config.lossy_compressor, config.error_bound,
                              config.error_mode))
            for name in tensors))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _profiled_policy_factory(**kwargs: object) -> CompressionPolicy:
    """Lazy factory for the ``profiled`` policy.

    :mod:`repro.core.profiling` sits above this module (it imports the codec
    registry and the network model), so the registry resolves it on first use
    instead of importing it here and closing a cycle.
    """
    from repro.core.profiling import ProfiledPolicy

    return ProfiledPolicy(**kwargs)


_POLICIES: dict[str, Callable[..., CompressionPolicy]] = {
    UniformPolicy.name: UniformPolicy,
    "profiled": _profiled_policy_factory,
}


def available_policies() -> list[str]:
    """Names of the registered plan policies."""
    return sorted(_POLICIES)


def get_policy(name: str, **kwargs: object) -> CompressionPolicy:
    """Instantiate a plan policy by registry name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown plan policy {name!r}; "
                         f"available: {available_policies()}") from None
    return factory(**kwargs)
