"""Per-tensor compression plans and the pluggable policy registry.

FedSZ's evaluation (Tables I and V) shows the EBLC tradeoff is per-workload:
SZx is by far the fastest while SZ2/SZ3 win on ratio, and the paper's
future-work section proposes tuning the compression hyper-parameters per
tensor.  This module is that tuning layer:

* :class:`TensorPlan` — one lossy tensor's full compression decision: codec
  registry name, error bound, bound mode, and codec-specific options,
* :class:`CompressionPlan` — the ordered per-tensor plans for one state dict,
  with a compact wire form (:func:`pack_plan` / :func:`unpack_plan`) that the
  pipeline embeds in the version-4 bitstream manifest so mixed-codec streams
  are self-describing,
* :class:`CompressionPolicy` — the strategy interface mapping the lossy
  partition to a plan, with per-name overrides applied uniformly, and a
  registry (:func:`register_policy` / :func:`get_policy`) mirroring the codec
  registries:

  - ``uniform`` — one codec, one bound for every tensor (the paper's
    Algorithm 1 and the historic pipeline behaviour),
  - ``size-adaptive`` — per-tensor bounds shrunk on small, high-leverage
    tensors (absorbs :class:`AdaptiveBoundPolicy`),
  - ``mixed-codec`` — a fast codec (SZx by default) below an element-count
    cutoff, a high-ratio codec above it,
  - ``profiled`` — measured Pareto selection per link bandwidth (Problems 1
    and 2, Section IV); lives in :mod:`repro.core.profiling` and is
    registered here through a lazy factory.

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
from dataclasses import dataclass, field, replace
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
    "AdaptiveBoundPolicy",
    "SizeAdaptivePolicy",
    "MixedCodecPolicy",
    "available_policies",
    "get_policy",
    "register_policy",
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

    def evolve(self, **changes: object) -> "TensorPlan":
        """Copy of this plan with ``changes`` applied (validated again)."""
        return replace(self, **changes)


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

_OVERRIDABLE_FIELDS = frozenset({"codec", "error_bound", "mode", "options"})


def _require_registered_codec(codec: str, where: str) -> None:
    """Eagerly resolve a policy-configured codec name against the registry.

    A typo'd codec must fail where the policy is constructed (the CLI renders
    that as a one-line error), not midway through compressing a state dict —
    and never silently, as it would when no tensor happens to select it.
    """
    from repro.compressors.registry import available_lossy

    if codec not in available_lossy():
        raise ValueError(f"unknown lossy compressor {codec!r} in {where}; "
                         f"available: {available_lossy()}")


def _require_positive_bound(value: "float | None", where: str) -> None:
    """Eagerly validate a policy-configured bound value (``None`` = deferred
    to the pipeline config, which validates its own ``error_bound``)."""
    if value is None:
        return
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{where} must be a positive finite error bound, "
                         f"got {value!r}")


class CompressionPolicy(abc.ABC):
    """Maps a lossy partition to a :class:`CompressionPlan`.

    ``overrides`` is a per-tensor-name escape hatch available on every policy:
    ``{"classifier.weight": {"codec": "sz3", "error_bound": 1e-4}}`` pins that
    tensor's plan fields regardless of what the policy decided.
    """

    #: registry name; subclasses override
    name: str = "base"

    def __init__(self, overrides: "Mapping[str, Mapping[str, object]] | None" = None) -> None:
        self.overrides = {name: dict(changes) for name, changes in (overrides or {}).items()}
        for name, changes in self.overrides.items():
            unknown = set(changes) - _OVERRIDABLE_FIELDS
            if unknown:
                raise ValueError(
                    f"override for {name!r} sets unknown plan fields {sorted(unknown)}; "
                    f"allowed: {sorted(_OVERRIDABLE_FIELDS)}")
            codec = changes.get("codec")
            if codec is not None:
                _require_registered_codec(codec, f"override for {name!r}")

    def _prepare(self, tensors: "Mapping[str, np.ndarray]", config,
                 delta: bool = False) -> object:
        """Whole-partition pre-pass; its result is handed to every
        :meth:`_plan_tensor` call.  Kept off ``self`` so one policy instance
        can build plans from several round-engine threads at once.

        ``delta`` marks the tensors as cross-round residuals (the delta
        codec's wire dicts) rather than raw state — content-profiling
        policies separate the two populations; everyone else ignores it.
        """
        return None

    def for_network(self, network) -> "CompressionPolicy":
        """Resolve this policy against one client's link.

        Bandwidth-aware policies (``profiled``) return a variant bound to
        ``network`` — the hook the round engine uses to give every client of a
        heterogeneous fleet its own per-link plan.  The default is a no-op:
        most policies decide independently of the link.
        """
        return self

    @abc.abstractmethod
    def _plan_tensor(self, name: str, array: np.ndarray, config,
                     context: object) -> TensorPlan:
        """The policy's decision for one tensor (before overrides)."""

    def build_plan(self, tensors: "Mapping[str, np.ndarray]", config,
                   delta: bool = False) -> CompressionPlan:
        """Plan every tensor of the lossy partition, then apply overrides.

        Overrides naming tensors absent from the partition raise — a typo'd
        name silently shipping the tensor at the default plan would defeat
        the override's purpose.  ``delta`` flags residual-tensor input (see
        :meth:`_prepare`).
        """
        unmatched = sorted(set(self.overrides) - set(tensors))
        if unmatched:
            raise ValueError(
                f"plan overrides name tensors absent from the lossy partition: "
                f"{unmatched}; lossy tensors: {sorted(tensors)}")
        tensors = OrderedDict((name, np.asarray(array)) for name, array in tensors.items())
        context = self._prepare(tensors, config, delta)
        entries: "OrderedDict[str, TensorPlan]" = OrderedDict()
        for name, array in tensors.items():
            plan = self._plan_tensor(name, array, config, context)
            changes = self.overrides.get(name)
            if changes:
                plan = plan.evolve(**changes)
            entries[name] = plan
        return CompressionPlan(entries)


class UniformPolicy(CompressionPolicy):
    """One codec, one bound for every tensor — the paper's Algorithm 1."""

    name = "uniform"

    def _plan_tensor(self, name: str, array: np.ndarray, config,
                     context: object) -> TensorPlan:
        return TensorPlan(name, config.lossy_compressor, config.error_bound,
                          config.error_mode)


@dataclass
class AdaptiveBoundPolicy:
    """Maps tensor names/shapes to per-tensor relative error bounds.

    Tensors are ranked by their share of the parameter count: the largest
    tensor keeps the base bound and smaller tensors get bounds shrunk by
    ``(size / largest_size) ** size_exponent`` (clamped at ``min_bound``), so
    small, high-leverage tensors are perturbed least.  This is the bound math
    behind the ``size-adaptive`` plan policy (the paper's first future-work
    direction, Section VIII-B: tune the bound per tensor to limit accuracy
    loss); it remains usable standalone.
    """

    base_bound: float = 1e-2
    min_bound: float = 1e-4
    #: exponent on the relative tensor size; 0 disables size-based adaptation
    size_exponent: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.min_bound <= self.base_bound:
            raise ValueError("need 0 < min_bound <= base_bound")
        if self.size_exponent < 0:
            raise ValueError("size_exponent must be non-negative")

    def bounds_for(self, tensors: "Mapping[str, np.ndarray]") -> "OrderedDict[str, float]":
        """Per-tensor relative bounds for the lossy partition ``tensors``.

        The largest tensor keeps the base bound; smaller tensors get bounds
        shrunk by ``(size / largest_size) ** size_exponent`` (clamped at
        ``min_bound``), so the tensors whose individual elements matter most
        are perturbed least.
        """
        if not tensors:
            return OrderedDict()
        largest = max(v.size for v in tensors.values())
        bounds: "OrderedDict[str, float]" = OrderedDict()
        for name, value in tensors.items():
            share = value.size / largest if largest else 1.0
            scale = share ** self.size_exponent if self.size_exponent else 1.0
            bounds[name] = float(np.clip(self.base_bound * scale, self.min_bound, self.base_bound))
        return bounds


class SizeAdaptivePolicy(CompressionPolicy):
    """Per-tensor bounds from :class:`AdaptiveBoundPolicy`, one codec.

    ``base_bound=None`` tracks the pipeline config's ``error_bound`` so the
    policy composes with any operating point without re-stating it.
    """

    name = "size-adaptive"

    def __init__(self, base_bound: float | None = None, min_bound: float = 1e-4,
                 size_exponent: float = 0.5,
                 overrides: "Mapping[str, Mapping[str, object]] | None" = None) -> None:
        super().__init__(overrides)
        self.base_bound = base_bound
        self.min_bound = float(min_bound)
        self.size_exponent = float(size_exponent)
        _require_positive_bound(base_bound, "size-adaptive base_bound")
        _require_positive_bound(self.min_bound, "size-adaptive min_bound")
        if self.size_exponent < 0:
            raise ValueError("size_exponent must be non-negative")
        if base_bound is not None:
            # the full relationship (min <= base) is checkable eagerly too
            AdaptiveBoundPolicy(base_bound, min(self.min_bound, base_bound),
                                self.size_exponent)

    def _bound_policy(self, config) -> AdaptiveBoundPolicy:
        base = self.base_bound if self.base_bound is not None else config.error_bound
        return AdaptiveBoundPolicy(base, min(self.min_bound, base), self.size_exponent)

    def _prepare(self, tensors: "Mapping[str, np.ndarray]", config,
                 delta: bool = False) -> object:
        # bounds depend on the whole partition (relative tensor sizes)
        return self._bound_policy(config).bounds_for(tensors)

    def _plan_tensor(self, name: str, array: np.ndarray, config,
                     context: object) -> TensorPlan:
        return TensorPlan(name, config.lossy_compressor, context[name],
                          config.error_mode)


class MixedCodecPolicy(CompressionPolicy):
    """Fast codec below an element-count cutoff, high-ratio codec above it.

    The paper's Table I tradeoff in plan form: SZx's throughput advantage
    matters most on the many small tensors where per-tensor overhead dominates,
    while SZ2/SZ3's ratio advantage compounds on the few large tensors that
    hold most of the bytes.  ``large_codec=None`` tracks the config's
    ``lossy_compressor``.
    """

    name = "mixed-codec"

    def __init__(self, small_codec: str = "szx", large_codec: str | None = None,
                 size_cutoff: int = 1 << 16,
                 small_bound: float | None = None, large_bound: float | None = None,
                 overrides: "Mapping[str, Mapping[str, object]] | None" = None) -> None:
        super().__init__(overrides)
        if size_cutoff < 0:
            raise ValueError("size_cutoff must be non-negative")
        if not small_codec:
            raise ValueError("small_codec must be a codec name")
        _require_registered_codec(small_codec, "mixed-codec small tier")
        if large_codec is not None:
            _require_registered_codec(large_codec, "mixed-codec large tier")
        _require_positive_bound(small_bound, "mixed-codec small_bound")
        _require_positive_bound(large_bound, "mixed-codec large_bound")
        self.small_codec = str(small_codec)
        self.large_codec = str(large_codec) if large_codec is not None else None
        self.size_cutoff = int(size_cutoff)
        self.small_bound = small_bound
        self.large_bound = large_bound

    def _plan_tensor(self, name: str, array: np.ndarray, config,
                     context: object) -> TensorPlan:
        small = array.size < self.size_cutoff
        codec = self.small_codec if small \
            else (self.large_codec or config.lossy_compressor)
        bound = (self.small_bound if small else self.large_bound)
        if bound is None:
            bound = config.error_bound
        return TensorPlan(name, codec, bound, config.error_mode)


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
    SizeAdaptivePolicy.name: SizeAdaptivePolicy,
    MixedCodecPolicy.name: MixedCodecPolicy,
    "profiled": _profiled_policy_factory,
}


def available_policies() -> list[str]:
    """Names of the registered plan policies."""
    return sorted(_POLICIES)


def register_policy(name: str, factory: Callable[..., CompressionPolicy],
                    overwrite: bool = False) -> None:
    """Register a new plan-policy factory under ``name``."""
    if name in _POLICIES and not overwrite:
        raise ValueError(f"plan policy {name!r} already registered")
    _POLICIES[name] = factory


def get_policy(name: str, **kwargs: object) -> CompressionPolicy:
    """Instantiate a plan policy by registry name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown plan policy {name!r}; "
                         f"available: {available_policies()}") from None
    return factory(**kwargs)
