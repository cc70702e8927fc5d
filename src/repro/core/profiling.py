"""Measured codec selection: the profiling subsystem behind Problems 1 and 2.

Section IV of the paper picks the EBLC and error bound by *measuring* every
candidate against the link bandwidth (Eqns. 2-3).  This module turns that
one-off experiment into a reusable subsystem:

* :class:`CodecProfiler` — benchmarks every ``(codec, bound, mode)`` candidate
  on a deterministic, seeded contiguous sample of each tensor, fanning the
  candidate grid out over an :class:`~repro.utils.parallel.ExecutionBackend`.
  Timings come from the wall clock by default, or from an injectable
  :class:`CostModel` so tests and single-core CI containers stay fully
  deterministic.  Profiles are cached in memory by exact content fingerprint:
  re-profiling the same bytes is a dictionary lookup, and the cache key
  excludes the tensor name so weight-tied tensors share one measurement.
* :class:`TensorProfile` — the measurements for one tensor, with the Pareto
  frontier over (ratio up, runtime down) and per-link end-to-end time
  estimates (Eqn. 1, optionally :class:`~repro.core.network.DeviceProfile`
  scaled).
* :class:`ProfiledPolicy` — the ``profiled`` plan policy: per tensor, pick the
  candidate minimizing ``t_C + t_D + S'/B`` under an accuracy-proxy bound cap;
  when no candidate beats shipping the raw bytes (Figure 8's above-crossover
  regime) the tensor falls back to the lossless ``verbatim`` tier.  Every
  decision is recorded as provenance in the plan summary
  (:data:`~repro.core.plan.PLAN_PROVENANCE_KEY`), so a decoded bitstream
  explains itself.

Determinism contract: with a :class:`CostModel` injected, profiles — and
therefore plans and bitstreams — depend only on tensor bytes and the profiler
configuration, never on wall clock, worker count, execution backend, or the
order in which concurrent clients reach the cache.
:mod:`repro.core.selection` is a thin wrapper over this module.
"""

from __future__ import annotations

import abc
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.compressors.base import ErrorBoundMode
from repro.core.network import DeviceProfile, NetworkModel, end_to_end_seconds
from repro.core.plan import PLAN_PROVENANCE_KEY, CompressionPolicy, TensorPlan
from repro.utils.parallel import ExecutionBackend, get_backend

__all__ = [
    "CandidateMeasurement",
    "TensorProfile",
    "CostModel",
    "AnalyticCostModel",
    "CodecProfiler",
    "ProfiledPolicy",
]

#: The EBLC grid the paper evaluates (Table I); ``verbatim`` is deliberately
#: absent — shipping uncompressed is the baseline every candidate must beat,
#: not a candidate itself.
DEFAULT_CANDIDATES = ("sz2", "sz3", "szx", "zfp")
#: Error-bound grid of Problem 2 around the paper's recommended 1e-2 point.
DEFAULT_ERROR_BOUNDS = (1e-4, 1e-3, 1e-2)

# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateMeasurement:
    """One ``(codec, bound, mode)`` candidate's measured sample roundtrip."""

    codec: str
    error_bound: float
    mode: ErrorBoundMode
    sample_bytes: int
    compressed_bytes: int
    compress_seconds: float
    decompress_seconds: float
    max_abs_error: float

    @property
    def ratio(self) -> float:
        """Sample compression ratio (original / compressed)."""
        return self.sample_bytes / self.compressed_bytes if self.compressed_bytes \
            else float("inf")

    @property
    def runtime(self) -> float:
        """Total compression + decompression runtime on the sample."""
        return self.compress_seconds + self.decompress_seconds


@dataclass(frozen=True)
class TensorProfile:
    """Cached, reusable measurements of one tensor against the candidate grid.

    All timings are sample-scale; the estimate methods scale them to the full
    tensor by the byte ratio (per-element cost is what the sample measures)
    and optionally to an edge device via :class:`DeviceProfile`.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    nbytes: int
    sample_elements: int
    sample_bytes: int
    measurements: tuple[CandidateMeasurement, ...]

    @property
    def scale_factor(self) -> float:
        """Full-tensor bytes per sampled byte (1.0 when the sample is whole)."""
        return self.nbytes / self.sample_bytes if self.sample_bytes else 1.0

    def estimated_compressed_bytes(self, measurement: CandidateMeasurement) -> float:
        """Projected full-tensor payload size at the sample's ratio."""
        return self.nbytes / measurement.ratio

    def estimated_roundtrip_seconds(self, measurement: CandidateMeasurement,
                                    device: DeviceProfile | None = None,
                                    ) -> tuple[float, float]:
        """Full-tensor ``(t_C, t_D)``, optionally device-scaled."""
        compress = measurement.compress_seconds * self.scale_factor
        decompress = measurement.decompress_seconds * self.scale_factor
        if device is not None:
            compress, decompress = device.scale(compress), device.scale(decompress)
        return compress, decompress

    def estimated_seconds(self, measurement: CandidateMeasurement,
                          bandwidth_mbps: float, latency_s: float = 0.0,
                          device: DeviceProfile | None = None) -> float:
        """Eqn. (1) left-hand side for this tensor under ``measurement``."""
        compress, decompress = self.estimated_roundtrip_seconds(measurement, device)
        return end_to_end_seconds(compress, decompress,
                                  self.estimated_compressed_bytes(measurement),
                                  bandwidth_mbps, latency_s)

    def uncompressed_seconds(self, bandwidth_mbps: float, latency_s: float = 0.0) -> float:
        """Eqn. (1) right-hand side: shipping the tensor raw."""
        return end_to_end_seconds(0.0, 0.0, self.nbytes, bandwidth_mbps, latency_s)

    def pareto_frontier(self) -> tuple[CandidateMeasurement, ...]:
        """Non-dominated candidates over (ratio maximized, runtime minimized).

        A candidate is dominated when another achieves at least its ratio in
        at most its runtime, with one of the two strictly better.  The
        frontier keeps grid order, so ties resolve deterministically.
        """
        frontier = []
        for m in self.measurements:
            dominated = any(
                other.ratio >= m.ratio and other.runtime <= m.runtime
                and (other.ratio > m.ratio or other.runtime < m.runtime)
                for other in self.measurements)
            if not dominated:
                frontier.append(m)
        return tuple(frontier)

    def best_for_link(self, bandwidth_mbps: float, latency_s: float = 0.0,
                      device: DeviceProfile | None = None,
                      max_bound: float | None = None,
                      ) -> tuple[CandidateMeasurement | None, float]:
        """The candidate minimizing end-to-end time on a link, if one wins.

        Returns ``(measurement, modeled_seconds)`` for the fastest candidate
        that both satisfies Eqn. (1) strictly (beats shipping raw) and — when
        ``max_bound`` is given — stays at or under the accuracy-proxy bound
        cap, or ``(None, uncompressed_seconds)`` when no candidate qualifies.
        """
        baseline = self.uncompressed_seconds(bandwidth_mbps, latency_s)
        best: CandidateMeasurement | None = None
        best_seconds = baseline
        for m in self._allowed(max_bound):
            if m.ratio < 1.0:
                continue  # Problem 1's ratio constraint: never inflate
            modeled = self.estimated_seconds(m, bandwidth_mbps, latency_s, device)
            if modeled < best_seconds:
                best, best_seconds = m, modeled
        return best, best_seconds

    def _allowed(self, max_bound: float | None) -> tuple[CandidateMeasurement, ...]:
        """Measurements under the bound cap; the tightest grid bound when the
        cap excludes the whole grid (the most accurate option available)."""
        if max_bound is None:
            return self.measurements
        allowed = tuple(m for m in self.measurements
                        if m.error_bound <= max_bound * (1 + 1e-12))
        if allowed:
            return allowed
        tightest = min(m.error_bound for m in self.measurements)
        return tuple(m for m in self.measurements if m.error_bound == tightest)


# ---------------------------------------------------------------------------
# Cost models (the injectable clock)
# ---------------------------------------------------------------------------

class CostModel(abc.ABC):
    """Replaces the wall clock when profiling must be deterministic.

    The profiler still performs the real sample roundtrip (ratio and max
    error are measured, they are deterministic), but asks the cost model for
    the timings instead of :func:`time.perf_counter` — so profiles, plans,
    and bitstreams become pure functions of the tensor bytes.  Implementations
    must be picklable: candidate tasks cross process boundaries.
    """

    #: short name recorded in plan provenance
    label: str = "cost-model"

    @abc.abstractmethod
    def roundtrip_seconds(self, codec: str, original_bytes: int,
                          compressed_bytes: int) -> tuple[float, float]:
        """Modeled ``(compress_seconds, decompress_seconds)`` for one call."""


@dataclass(frozen=True)
class AnalyticCostModel(CostModel):
    """Throughput-table cost model mirroring Table I's ordering.

    SZx is by far the fastest, ZFP next, SZ2/SZ3 trade throughput for ratio,
    and ``verbatim`` is a memcpy.  The absolute numbers are representative
    workstation MB/s — what matters for plan selection is the *ordering* and
    the compute/transfer balance, both of which the table preserves; scale to
    an edge device with :class:`~repro.core.network.DeviceProfile`.
    """

    compress_mbps: Mapping[str, float] = field(default_factory=lambda: {
        "szx": 400.0, "zfp": 150.0, "sz2": 60.0, "sz3": 35.0, "verbatim": 4000.0})
    decompress_mbps: Mapping[str, float] = field(default_factory=lambda: {
        "szx": 500.0, "zfp": 200.0, "sz2": 80.0, "sz3": 50.0, "verbatim": 8000.0})
    #: throughput assumed for codecs absent from the tables
    default_mbps: float = 50.0
    #: fixed per-call setup cost (python + header overhead)
    overhead_seconds: float = 5e-5

    label = "analytic"

    def roundtrip_seconds(self, codec: str, original_bytes: int,
                          compressed_bytes: int) -> tuple[float, float]:
        compress = self.overhead_seconds + original_bytes / 1e6 / \
            self.compress_mbps.get(codec, self.default_mbps)
        decompress = self.overhead_seconds + original_bytes / 1e6 / \
            self.decompress_mbps.get(codec, self.default_mbps)
        return compress, decompress


def resolve_cost_model(cost_model: "CostModel | str | None") -> "CostModel | None":
    """Normalize the user-facing knob: ``"analytic"``, ``"measured"``/``None``
    (wall clock), or a :class:`CostModel` instance."""
    if cost_model is None or isinstance(cost_model, CostModel):
        return cost_model
    if cost_model == "analytic":
        return AnalyticCostModel()
    if cost_model == "measured":
        return None
    raise ValueError(f"unknown cost model {cost_model!r}; pass 'analytic', "
                     f"'measured', or a CostModel instance")


# ---------------------------------------------------------------------------
# The profiler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _CandidateTask:
    """Picklable argument struct for :func:`_measure_candidate_task`."""

    codec: str
    error_bound: float
    mode: ErrorBoundMode
    sample: np.ndarray
    cost_model: "CostModel | None"


def _measure_candidate_task(task: _CandidateTask) -> CandidateMeasurement:
    """Roundtrip one candidate on one sample; the unit of profiler fan-out.

    Module-level over an explicit struct so the candidate grid satisfies the
    process backend's picklability contract.  Ratio and max error come from
    the real roundtrip; timings from the wall clock or the injected cost
    model (see :class:`CostModel`).
    """
    from repro.compressors.registry import get_lossy

    compressor = get_lossy(task.codec, error_bound=task.error_bound, mode=task.mode)
    sample = task.sample
    if task.cost_model is None:
        start = time.perf_counter()
        payload = compressor.compress(sample)
        mid = time.perf_counter()
        recon = compressor.decompress(payload)
        compress_s, decompress_s = mid - start, time.perf_counter() - mid
    else:
        payload = compressor.compress(sample)
        recon = compressor.decompress(payload)
        compress_s, decompress_s = task.cost_model.roundtrip_seconds(
            task.codec, int(sample.nbytes), len(payload))
    max_err = float(np.max(np.abs(sample.astype(np.float64)
                                  - recon.astype(np.float64)))) if sample.size else 0.0
    return CandidateMeasurement(
        codec=task.codec, error_bound=float(task.error_bound), mode=task.mode,
        sample_bytes=int(sample.nbytes), compressed_bytes=len(payload),
        compress_seconds=compress_s, decompress_seconds=decompress_s,
        max_abs_error=max_err)


class CodecProfiler:
    """Benchmarks the candidate grid on seeded samples of tensors, with a cache.

    * **Sampling** — tensors above ``sample_limit`` elements are profiled on a
      *contiguous* window at a seeded offset (contiguity preserves the local
      smoothness the prediction-based codecs exploit; a strided sample would
      systematically underestimate their ratio).  The offset depends only on
      ``(seed, tensor content)``, so profiling is reproducible run to run and
      independent of tensor naming.  ``sample_limit=None`` profiles whole
      tensors (what :func:`~repro.core.selection.select_compressor` does).
    * **Caching** — profiles are keyed by content fingerprint (shape, dtype,
      CRC-32 of the sample bytes); re-profiling identical bytes never
      re-measures, and the hit/miss counters make that observable.  The key
      deliberately excludes the tensor name, so tied or duplicated tensors
      share one measurement.  The cache lives in memory only, and a tensor
      whose bytes changed is measured again, so a profile never depends on
      which tensor happened to be measured first.
    * **Fan-out** — uncached ``tensor x candidate`` pairs dispatch as one flat
      :meth:`ExecutionBackend.map` batch of picklable tasks; results are
      order-stable, so profiles are identical on any backend at any worker
      count.

    Instances are thread-safe (the round engine profiles several clients
    concurrently) and picklable (policies embedding a profiler cross process
    boundaries; the cache travels along, pre-warming the worker).
    """

    def __init__(self, candidates: Sequence[str] | None = None,
                 error_bounds: Iterable[float] | None = None,
                 mode: ErrorBoundMode | str = ErrorBoundMode.REL,
                 sample_limit: int | None = 65536, seed: int = 0,
                 cost_model: "CostModel | str | None" = None,
                 backend: "str | ExecutionBackend" = "thread",
                 workers: int | None = 1) -> None:
        from repro.compressors.registry import available_lossy

        self.candidates = tuple(candidates) if candidates is not None else DEFAULT_CANDIDATES
        if not self.candidates:
            raise ValueError("candidates must name at least one codec")
        unknown = [c for c in self.candidates if c not in available_lossy()]
        if unknown:
            raise ValueError(f"unknown candidate codecs {unknown}; "
                             f"available: {available_lossy()}")
        bounds = tuple(float(b) for b in (error_bounds if error_bounds is not None
                                          else DEFAULT_ERROR_BOUNDS))
        if not bounds:
            raise ValueError("error_bounds must be non-empty")
        if any(not np.isfinite(b) or b <= 0 for b in bounds):
            raise ValueError(f"error bounds must be positive and finite, got {bounds}")
        self.error_bounds = bounds
        self.mode = ErrorBoundMode(mode)
        if sample_limit is not None and sample_limit < 1:
            raise ValueError("sample_limit must be >= 1 (or None for whole tensors)")
        self.sample_limit = sample_limit
        self.seed = int(seed)
        self.cost_model = resolve_cost_model(cost_model)
        self.backend = get_backend(backend)
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache: dict[tuple, tuple[CandidateMeasurement, ...]] = {}
        self._lock = threading.Lock()

    # -- pickling: locks don't cross process boundaries, the cache does ------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def grid(self) -> tuple[tuple[str, float], ...]:
        """The ``(codec, bound)`` grid in measurement order (candidate-major)."""
        return tuple((codec, bound) for codec in self.candidates
                     for bound in self.error_bounds)

    def cache_info(self) -> dict:
        """Hit/miss counters and resident profile count."""
        with self._lock:
            return {"hits": self.cache_hits, "misses": self.cache_misses,
                    "profiles": len(self._cache)}

    def sample(self, name: str, array: np.ndarray) -> np.ndarray:
        """The deterministic sample of ``array`` the grid is measured on.

        The window offset is seeded by ``(profiler seed, content prefix,
        size)`` — *not* by ``name`` — so byte-identical tensors sample the
        same window under any name, which is what lets the content-keyed
        cache unify weight-tied tensors.
        """
        flat = np.ascontiguousarray(np.asarray(array)).ravel()
        limit = self.sample_limit
        if limit is None or flat.size <= limit:
            return flat
        prefix = zlib.crc32(flat[:1024].tobytes())
        rng = np.random.default_rng([self.seed, prefix, flat.size])
        start = int(rng.integers(0, flat.size - limit + 1))
        return flat[start:start + limit]

    def _fingerprint(self, array: np.ndarray, sample: np.ndarray,
                     delta: bool = False) -> tuple:
        return (tuple(np.asarray(array).shape), str(sample.dtype),
                int(sample.size), zlib.crc32(sample.tobytes()), bool(delta))

    def profile_tensors(self, tensors: "Mapping[str, np.ndarray]",
                        backend: "str | ExecutionBackend | None" = None,
                        workers: int | None = None, delta: bool = False,
                        ) -> "OrderedDict[str, TensorProfile]":
        """Profile every tensor, measuring only the fingerprints not yet cached.

        All uncached ``tensor x candidate`` work dispatches as one flat
        backend map, so a whole state dict profiles with full fan-out instead
        of per-tensor batches.  ``backend``/``workers`` override the
        profiler's own dispatch configuration for this call (``None`` =
        inherit) — the hook the profiled policy uses to honour the pipeline
        config's execution knobs on a shared profiler.  Profiles are
        identical whatever runs them.  ``delta`` folds into the fingerprint,
        keeping residual-tensor profiles disjoint from full-state ones.
        """
        samples: "OrderedDict[str, np.ndarray]" = OrderedDict()
        keys: dict[str, tuple] = {}
        missing: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        for name, array in tensors.items():
            array = np.asarray(array)
            sample = self.sample(name, array)
            samples[name] = sample
            keys[name] = key = self._fingerprint(array, sample, delta)
            with self._lock:
                if key in self._cache or key in missing:
                    self.cache_hits += 1
                    continue
                self.cache_misses += 1
                missing[key] = sample

        if missing:
            tasks = [_CandidateTask(codec, bound, self.mode, sample, self.cost_model)
                     for sample in missing.values()
                     for codec, bound in self.grid]
            exec_backend = get_backend(backend) if backend is not None else self.backend
            results = exec_backend.map(_measure_candidate_task, tasks,
                                       workers=workers if workers is not None
                                       else self.workers)
            grid_size = len(self.grid)
            with self._lock:
                for i, key in enumerate(missing):
                    self._cache[key] = tuple(results[i * grid_size:(i + 1) * grid_size])

        profiles: "OrderedDict[str, TensorProfile]" = OrderedDict()
        for name, array in tensors.items():
            array = np.asarray(array)
            sample = samples[name]
            with self._lock:
                measurements = self._cache[keys[name]]
            profiles[name] = TensorProfile(
                name=name, shape=tuple(array.shape), dtype=str(array.dtype),
                nbytes=int(array.nbytes), sample_elements=int(sample.size),
                sample_bytes=int(sample.nbytes), measurements=measurements)
        return profiles

    def profile_tensor(self, name: str, array: np.ndarray) -> TensorProfile:
        """Profile one tensor (cache-aware convenience wrapper)."""
        return self.profile_tensors({name: array})[name]


# ---------------------------------------------------------------------------
# The profiled plan policy
# ---------------------------------------------------------------------------

class ProfiledPolicy(CompressionPolicy):
    """Per-link plan selection from measured profiles (registry: ``profiled``).

    For every lossy tensor the policy asks the profiler for its grid
    measurements and picks the candidate minimizing the Eqn.-1 end-to-end
    time ``t_C + t_D + S'/B`` on *this* link, subject to

    * the accuracy proxy of Problem 2: candidate bounds above ``max_bound``
      (default: the pipeline config's ``error_bound``) are excluded, and
    * the feasibility constraint of Problem 1: the winner must strictly beat
      shipping the tensor uncompressed, at ratio >= 1.

    When no candidate qualifies — the link is faster than the Figure-8
    crossover — the tensor ships through the lossless ``verbatim`` tier
    instead of paying for compression that slows the round down.  Every
    decision is recorded under :data:`PLAN_PROVENANCE_KEY` in the tensor's
    plan options, which the manifest's plan summary carries to the decoder.

    ``cost_model`` defaults to ``"analytic"``: deterministic plans (and
    therefore bit-identical seeded simulations on any backend at any worker
    count) out of the box; pass ``"measured"`` to profile with the wall clock.
    ``for_network`` returns per-link variants that share this policy's
    profiler, so a heterogeneous fleet profiles each distinct update once.

    ``backend``/``workers`` steer the candidate-grid fan-out; left ``None``
    they inherit the pipeline config's ``backend``/``pipeline_workers`` at
    plan-build time, so the one execution knob that drives every other
    fan-out stage drives profiling too.
    """

    name = "profiled"

    def __init__(self, network: NetworkModel | None = None,
                 bandwidth_mbps: float | None = None, latency_s: float | None = None,
                 candidates: Sequence[str] | None = None,
                 error_bounds: Iterable[float] | None = None,
                 max_bound: float | None = None,
                 device: DeviceProfile | None = None,
                 cost_model: "CostModel | str | None" = "analytic",
                 sample_limit: int | None = 65536, seed: int = 0,
                 profiler: CodecProfiler | None = None,
                 fallback_codec: str = "verbatim",
                 backend: "str | ExecutionBackend | None" = None,
                 workers: int | None = None,
                 overrides: "Mapping[str, Mapping[str, object]] | None" = None) -> None:
        super().__init__(overrides)
        self.backend = get_backend(backend) if backend is not None else None
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        if network is not None:
            if bandwidth_mbps is not None or latency_s is not None:
                raise ValueError("pass either network or bandwidth_mbps/latency_s, "
                                 "not both")
            bandwidth_mbps = network.bandwidth_mbps
            latency_s = network.latency_s
        self.bandwidth_mbps = float(bandwidth_mbps) if bandwidth_mbps is not None else 10.0
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        self.latency_s = float(latency_s) if latency_s is not None else 0.0
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if max_bound is not None and (not np.isfinite(max_bound) or max_bound <= 0):
            raise ValueError(f"max_bound must be a positive finite bound, got {max_bound!r}")
        self.max_bound = float(max_bound) if max_bound is not None else None
        self.device = device
        if profiler is not None:
            if candidates is not None or error_bounds is not None:
                raise ValueError("candidates/error_bounds belong to the profiler; "
                                 "configure them there when passing one explicitly")
            self.profiler = profiler
        else:
            self.profiler = CodecProfiler(candidates=candidates,
                                          error_bounds=error_bounds,
                                          sample_limit=sample_limit, seed=seed,
                                          cost_model=cost_model)
        from repro.compressors.registry import available_lossy

        if fallback_codec not in available_lossy():
            raise ValueError(f"unknown fallback codec {fallback_codec!r}; "
                             f"available: {available_lossy()}")
        self.fallback_codec = fallback_codec

    def for_network(self, network: NetworkModel) -> "ProfiledPolicy":
        """A variant of this policy bound to ``network``'s bandwidth/latency.

        The variant shares this policy's profiler (and therefore its cache):
        a fleet of per-client policies measures each distinct tensor content
        once and re-plans it per link.
        """
        if (network.bandwidth_mbps == self.bandwidth_mbps
                and network.latency_s == self.latency_s):
            return self
        return ProfiledPolicy(network=network, max_bound=self.max_bound,
                              device=self.device, profiler=self.profiler,
                              fallback_codec=self.fallback_codec,
                              backend=self.backend, workers=self.workers,
                              overrides=self.overrides)

    # ------------------------------------------------------------------
    def _provenance(self, profile: TensorProfile,
                    measurement: CandidateMeasurement | None,
                    modeled_seconds: float) -> dict:
        cost_model = self.profiler.cost_model
        base = {
            "policy": self.name,
            "bandwidth_mbps": self.bandwidth_mbps,
            "latency_s": self.latency_s,
            "uncompressed_seconds": profile.uncompressed_seconds(
                self.bandwidth_mbps, self.latency_s),
            "modeled_seconds": modeled_seconds,
            "sample_elements": profile.sample_elements,
            "cost_model": "measured" if cost_model is None else cost_model.label,
            "device": self.device.name if self.device is not None else None,
        }
        if measurement is None:
            base.update({"worthwhile": False, "fallback": True, "estimated_ratio": 1.0})
        else:
            base.update({"worthwhile": True, "fallback": False,
                         "estimated_ratio": measurement.ratio})
        return base

    def _prepare(self, tensors: "Mapping[str, np.ndarray]", config,
                 delta: bool = False) -> object:
        # inherit the pipeline's execution knobs unless explicitly overridden,
        # so the config's one backend switch also steers profiling fan-out
        backend = self.backend if self.backend is not None \
            else getattr(config, "backend", None)
        workers = self.workers if self.workers is not None \
            else getattr(config, "pipeline_workers", None)
        profiles = self.profiler.profile_tensors(tensors, backend=backend,
                                                 workers=workers, delta=delta)
        cap = self.max_bound if self.max_bound is not None else config.error_bound
        choices: dict[str, TensorPlan] = {}
        for name, profile in profiles.items():
            measurement, modeled = profile.best_for_link(
                self.bandwidth_mbps, self.latency_s, device=self.device,
                max_bound=cap)
            provenance = self._provenance(profile, measurement, modeled)
            if measurement is None:
                # above the crossover: ship the tensor losslessly rather than
                # pay for compression that slows the round down
                choices[name] = TensorPlan(
                    name, self.fallback_codec, cap, config.error_mode,
                    options={PLAN_PROVENANCE_KEY: provenance})
            else:
                choices[name] = TensorPlan(
                    name, measurement.codec, measurement.error_bound,
                    measurement.mode,
                    options={PLAN_PROVENANCE_KEY: provenance})
        return choices

    def _plan_tensor(self, name: str, array: np.ndarray, config,
                     context: object) -> TensorPlan:
        return context[name]
