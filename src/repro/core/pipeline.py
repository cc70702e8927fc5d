"""The plan-driven FedSZ compression/decompression pipeline (Figure 1).

Client side (:meth:`FedSZCompressor.compress_with_report`):

1. partition the ``state_dict`` into lossy and lossless tensors,
2. ask the configured plan policy (:mod:`repro.core.plan`) for a
   :class:`~repro.core.plan.CompressionPlan` — one
   :class:`~repro.core.plan.TensorPlan` (codec, bound, mode, options) per
   lossy tensor; the ``uniform`` policy is Algorithm 1's one codec and one
   bound, the ``profiled`` policy picks both per link by measurement
   (Problems 1 and 2),
3. compress every lossy tensor per its plan entry, fanning the tensors out
   over the configured execution backend (serial / thread / process, see
   :mod:`repro.utils.parallel`) when ``pipeline_workers > 1`` (``1`` is the
   sequential reference path; the bitstream is bit-identical at any worker
   count on any backend).  Each unit of work is a module-level task function
   over an explicit ``(TensorPlan, ndarray, compressor)`` struct, so the same
   tasks run unchanged on a thread pool or across a process boundary,
4. serialize the lossless partition into a single buffer and compress it with
   the configured lossless codec,
5. pack everything into one version-7 bitstream: each ``lossy::`` payload is
   prefixed with its codec id and the manifest embeds the full plan summary,
   so streams whose tensors use different codecs roundtrip with no
   out-of-band state.

Server side (:meth:`FedSZCompressor.decompress_state_dict`) parses the
manifest plan, dispatches every lossy payload to the codec named by its
per-payload tag (cross-checked against the plan), decodes tensors on the same
worker pool, and returns a ``state_dict`` ready for FedAvg aggregation.

Reporting is per-call: :meth:`compress_with_report` and
:meth:`decompress_with_report` return a fresh :class:`FedSZReport` alongside
their result, which is what the concurrent round engine aggregates per client.
``last_report`` remains as a single-slot convenience for single-threaded
scripts and the historic benchmarks.
"""

from __future__ import annotations

import os
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.compressors.base import ErrorBoundMode, LossyCompressor
from repro.compressors.lossless import LosslessCodec, get_lossless
from repro.compressors.registry import available_lossy, get_lossy
from repro.core.config import FedSZConfig
from repro.core.partition import PartitionedState, partition_state_dict
from repro.core.plan import (
    PLAN_PROVENANCE_KEY,
    CompressionPlan,
    CompressionPolicy,
    TensorPlan,
    get_policy,
    pack_plan,
    unpack_plan,
)
from repro.utils.parallel import get_backend, map_parallel
from repro.utils.serialization import pack_arrays, pack_bytes_dict, unpack_arrays, unpack_bytes_dict

__all__ = ["FedSZCompressor", "FedSZReport"]

#: bumped to 7 for the HUF4 entropy stage: SZ2 and SZ3 bodies embed a tuple
#: Huffman stream and no lossless pass wraps them.  (8 is SZ2's reference
#: grid, which only a stream coded against a reference carries, so the
#: manifest stays at 7 and a stream without one keeps its v7 bytes.)  6 added
#: the SZ2 body's predictor field (hybrid block prediction or a zero
#: predictor with no side fields).  4 made the format plan-driven:
#: every ``lossy::`` payload is prefixed with its codec id and the manifest
#: carries the full per-tensor plan summary, so one bitstream may mix codecs
#: and bounds.  (5 is the delta frame's ``FDL5`` magic, 3 added the chunked
#: Huffman entropy stage, 2 the SZ3 anchor dtype flag / ZFP verbatim trailer /
#: SZx verbatim escape — see FORMATS.md.)
_FORMAT_VERSION = 7
#: Outer-bitstream keys owned by the format itself.  Tensor names may not
#: collide with them (or with the ``lossy::`` namespace prefix) — a state dict
#: using them is rejected at compression time instead of risking a bitstream
#: whose reserved entries are ambiguous to a decoder.
_RESERVED_KEYS = ("__manifest__", "__lossless__")
_LOSSY_PREFIX = "lossy::"
_MANIFEST_HEADER = struct.Struct("<IQ")


def _decode_or_valueerror(decode, payload: bytes, entry: str):
    """Run an inner-payload decoder, normalizing its failures to ValueError.

    The outer container is fully bounds-checked, but bytes corrupted *inside*
    an entry surface as whatever the backend raises (``zlib.error``,
    ``struct.error``, ``IndexError``, ...).  The documented contract is that a
    corrupt bitstream raises :class:`ValueError`, so everything else is
    wrapped.
    """
    try:
        return decode(payload)
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"corrupt FedSZ bitstream: entry {entry!r} failed to "
                         f"decode ({type(exc).__name__}: {exc})") from exc


def _check_tensor_names(state: dict) -> None:
    reserved = [name for name in state
                if name in _RESERVED_KEYS or name.startswith(_LOSSY_PREFIX)]
    if reserved:
        raise ValueError(
            f"tensor names {reserved!r} collide with reserved FedSZ bitstream keys "
            f"({', '.join(_RESERVED_KEYS)}, and the {_LOSSY_PREFIX!r} prefix); rename them")


def _compress_tensor_task(task: "tuple[TensorPlan, np.ndarray, LossyCompressor, "
                                "np.ndarray | None]") -> bytes:
    """Compress one tensor per its plan entry into a tagged payload.

    Module-level with an explicit ``(TensorPlan, ndarray, compressor,
    reference)`` argument struct so the per-tensor fan-out satisfies the
    process backend's picklability contract (compressor instances hold only
    plain configuration state and pickle cheaply; the bitstream bytes come
    back as the result).  ``reference`` is the receiver's copy of the tensor
    or ``None``.
    """
    plan, array, compressor, reference = task
    return _tag_payload(plan.codec, compressor.compress(array, reference))


def _decompress_tensor_task(task: "tuple[str, bytes, LossyCompressor, np.ndarray | None]"
                            ) -> np.ndarray:
    """Decode one tagged lossy payload body back into its tensor.

    The ``(entry_key, body, decoder, reference)`` struct is picklable for the
    process backend; failures are normalized to :class:`ValueError` *inside*
    the task so the documented corruption contract holds identically across
    backends (exceptions cross the process boundary already wrapped).
    """
    key, body, decoder, reference = task
    return _decode_or_valueerror(
        lambda payload: decoder.decompress(payload, reference), body, key)


def _tag_payload(codec: str, body: bytes) -> bytes:
    """Prefix a lossy payload with its codec id (u8 length + ASCII name)."""
    try:
        tag = codec.encode("ascii")
    except UnicodeEncodeError:
        raise ValueError(f"codec name {codec!r} cannot be used as a payload tag "
                         f"(must be ASCII)") from None
    if not 1 <= len(tag) <= 0xFF:
        raise ValueError(f"codec name {codec!r} cannot be used as a payload tag")
    return struct.pack("<B", len(tag)) + tag + body


def _split_tagged_payload(payload: bytes, entry: str) -> tuple[str, bytes]:
    """Parse the codec-id prefix off a ``lossy::`` payload."""
    if len(payload) < 1:
        raise ValueError(f"corrupt FedSZ bitstream: entry {entry!r} is empty")
    tag_len = payload[0]
    if tag_len < 1 or 1 + tag_len > len(payload):
        raise ValueError(f"corrupt FedSZ bitstream: entry {entry!r} has a "
                         f"truncated codec tag")
    try:
        codec = payload[1:1 + tag_len].decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValueError(f"corrupt FedSZ bitstream: entry {entry!r} codec tag "
                         f"is not ASCII") from exc
    return codec, payload[1 + tag_len:]


@dataclass
class FedSZReport:
    """Per-update compression statistics (feeds Tables I and V and Figure 6)."""

    original_bytes: int
    compressed_bytes: int
    lossy_original_bytes: int
    lossy_compressed_bytes: int
    lossless_original_bytes: int
    lossless_compressed_bytes: int
    compress_seconds: float
    decompress_seconds: float = 0.0
    #: the per-tensor plan this call applied (compress side) or decoded from
    #: the manifest (decompress side); per-call like the rest of the report,
    #: so it is race-free where ``last_plan`` is a shared single slot
    plan: "CompressionPlan | None" = None

    @property
    def ratio(self) -> float:
        """Overall compression ratio of the client update."""
        return self.original_bytes / self.compressed_bytes if self.compressed_bytes else float("inf")

    @property
    def lossy_ratio(self) -> float:
        """Compression ratio of the lossy partition alone."""
        if not self.lossy_compressed_bytes:
            return float("inf") if self.lossy_original_bytes else 1.0
        return self.lossy_original_bytes / self.lossy_compressed_bytes

    @property
    def lossless_ratio(self) -> float:
        """Compression ratio of the lossless partition alone."""
        if not self.lossless_compressed_bytes:
            return float("inf") if self.lossless_original_bytes else 1.0
        return self.lossless_original_bytes / self.lossless_compressed_bytes

    @property
    def throughput_mbps(self) -> float:
        """Compression throughput over the whole update (MB/s)."""
        if self.compress_seconds <= 0:
            return float("inf")
        return self.original_bytes / 1e6 / self.compress_seconds


class FedSZCompressor:
    """Compress and decompress model state dictionaries per the FedSZ scheme.

    ``policy`` (a :class:`~repro.core.plan.CompressionPolicy` instance or
    registry name) decides each lossy tensor's codec/bound/options; it
    defaults to ``config.policy`` instantiated with ``config.policy_options``.

    Thread-safety: the bitstreams produced and consumed by a shared instance
    are deterministic under concurrent use (the round engine encodes several
    clients on a worker pool) and :meth:`compress_with_report` /
    :meth:`decompress_with_report` return per-call statistics that are safe to
    collect from any thread.  ``last_report`` is a single slot — after a
    parallel round it holds the statistics of one arbitrary client; read it
    only from single-threaded contexts.
    """

    def __init__(self, config: FedSZConfig | None = None,
                 lossy: LossyCompressor | None = None,
                 lossless: LosslessCodec | None = None,
                 policy: "CompressionPolicy | str | None" = None) -> None:
        self.config = config or FedSZConfig()
        self.lossy = lossy if lossy is not None else get_lossy(
            self.config.lossy_compressor,
            error_bound=self.config.error_bound,
            mode=self.config.error_mode,
        )
        self.lossless = lossless if lossless is not None else get_lossless(
            self.config.lossless_codec)
        if policy is None:
            policy = self.config.policy
        self.policy = policy if isinstance(policy, CompressionPolicy) \
            else get_policy(policy, **self.config.policy_options)
        # When an explicit lossy instance is injected, plans must describe what
        # actually runs: policies see a config reflecting the instance's codec
        # name and operating point rather than the (possibly default) config
        # fields it overrode.
        if lossy is not None and isinstance(lossy, LossyCompressor):
            self._plan_config = self.config.replace(
                lossy_compressor=self.lossy.name,
                error_bound=self.lossy.error_bound.value,
                error_mode=self.lossy.error_bound.mode)
        else:
            self._plan_config = self.config
        self.last_report: FedSZReport | None = None
        self.last_plan: CompressionPlan | None = None
        self._decoder_cache: dict[str, LossyCompressor] = {}
        #: per-tensor REL-bound resolution scales ``{name: value_range}`` set
        #: by the delta codec for one encode.  A REL bound resolved against a
        #: *residual* tensor's tiny range would silently tighten the
        #: quantization step ~10x below what the user asked for (and forfeit
        #: the delta size win); these scales pin the resolution to the true
        #: state's range instead, so a residual ship carries exactly the
        #: absolute tolerance a full-state ship of the same tensor would.
        #: ``None`` (always, outside an armed delta encode) changes nothing.
        self.bound_scales: "dict[str, float] | None" = None

    # ------------------------------------------------------------------
    def _pipeline_workers(self) -> int:
        """Effective per-tensor fan-out for this host.

        Tensor compression is pure CPU work, so on a GIL-bound (thread)
        backend workers beyond the core count are strict oversubscription
        (measured ~25% slower on a single-core host) and the knob is clamped
        to the cores actually available; a process pool's workers run truly
        concurrently, so there the requested count is honoured.  The bitstream
        is bit-identical at any worker count either way.
        """
        backend = get_backend(self.config.backend)
        workers = self.config.pipeline_workers
        if backend.gil_bound:
            workers = min(workers, os.cpu_count() or 1)
        # let the backend have the final say (serial always resolves to 1),
        # so this number is the fan-out that actually runs
        return backend.resolve_workers(max(1, workers), max(1, workers))

    def _compressor_for(self, plan: TensorPlan) -> LossyCompressor:
        """A lossy compressor configured exactly as ``plan`` prescribes.

        The reserved provenance options entry is metadata *about* the plan,
        not a codec option, and is stripped before construction.
        """
        options = {key: value for key, value in plan.options.items()
                   if key != PLAN_PROVENANCE_KEY}
        if plan.codec == self.lossy.name and not options:
            # reuse the (possibly injected) instance so non-registry
            # compressors keep working; cloning re-binds only the bound
            return self.lossy.with_error_bound(plan.error_bound, plan.mode)
        return get_lossy(plan.codec, error_bound=plan.error_bound, mode=plan.mode,
                         **options)

    def _scaled_compressor_for(self, plan: TensorPlan, name: str) -> LossyCompressor:
        """:meth:`_compressor_for`, with a REL bound resolved against
        ``bound_scales[name]`` when the delta codec set one for this encode.
        """
        compressor = self._compressor_for(plan)
        if self.bound_scales is not None \
                and ErrorBoundMode(plan.mode) is ErrorBoundMode.REL:
            scale = self.bound_scales.get(name)
            if scale is not None:
                # resolve the plan's REL bound against the provided scale (the
                # true state's range on a delta ship) rather than this
                # tensor's own range; the payload header records the absolute
                # bound actually used, so decode needs nothing extra
                compressor = compressor.with_error_bound(
                    float(plan.error_bound) * scale, ErrorBoundMode.ABS)
        return compressor

    def _decoder_for(self, codec: str) -> LossyCompressor:
        """A decoder for ``codec`` (payloads are self-describing, so the
        instance's bound and entropy chunk size are irrelevant)."""
        if codec == self.lossy.name:
            return self.lossy
        decoder = self._decoder_cache.get(codec)
        if decoder is None:
            if codec not in available_lossy():
                raise ValueError(f"corrupt or unsupported FedSZ bitstream: unknown "
                                 f"codec {codec!r}; available: {available_lossy()}")
            decoder = get_lossy(codec)
            self._decoder_cache[codec] = decoder
        return decoder

    # ------------------------------------------------------------------
    def compress_with_report(self, state: dict[str, np.ndarray],
                             reference: "dict[str, np.ndarray] | None" = None
                             ) -> tuple[bytes, FedSZReport]:
        """Compress ``state`` into one FedSZ bitstream; returns per-call stats.

        The per-tensor plan is fanned out over the configured execution
        backend when ``config.pipeline_workers > 1``; the bitstream is
        bit-identical at any worker count on any backend.  Also updates the
        ``last_report``/``last_plan`` convenience slots.

        ``reference`` is a state the decoder will hold too (a federated
        client's copy of the round's broadcast).  Each lossy tensor is
        offered its same-named reference tensor, which SZ2 may code against
        (its reference grid); such a stream decodes only through
        :meth:`decompress_with_report` with the same ``reference``.  Without
        one, the bitstream is the plain one.
        """
        _check_tensor_names(state)
        start = time.perf_counter()
        partition = partition_state_dict(state, self.config)
        plan = self.policy.build_plan(partition.lossy, self._plan_config)
        if plan.tensor_names != list(partition.lossy):
            # a third-party policy reordering or dropping tensors must fail
            # here, not as a confusing corruption error on every decode
            raise ValueError(
                f"policy {type(self.policy).__name__} returned a plan for "
                f"{plan.tensor_names!r} but the lossy partition is "
                f"{list(partition.lossy)!r}; plans must cover every lossy "
                f"tensor in partition order")

        reference = reference or {}
        tasks = [(plan[name], array,
                  self._scaled_compressor_for(plan[name], name), reference.get(name))
                 for name, array in partition.lossy.items()]
        results = map_parallel(_compress_tensor_task, tasks,
                               max_workers=self._pipeline_workers(),
                               backend=self.config.backend)
        lossy_payloads: "OrderedDict[str, bytes]" = OrderedDict(
            zip(partition.lossy, results))

        lossless_raw = pack_arrays(dict(partition.lossless))
        lossless_payload = self.lossless.compress(lossless_raw)

        manifest = _MANIFEST_HEADER.pack(_FORMAT_VERSION, len(state)) + pack_plan(plan)
        bitstream = pack_bytes_dict({
            "__manifest__": manifest,
            "__lossless__": lossless_payload,
            **{f"lossy::{name}": payload for name, payload in lossy_payloads.items()},
        })
        elapsed = time.perf_counter() - start
        report = FedSZReport(
            original_bytes=partition.total_bytes,
            compressed_bytes=len(bitstream),
            lossy_original_bytes=partition.lossy_bytes,
            lossy_compressed_bytes=sum(len(p) for p in lossy_payloads.values()),
            lossless_original_bytes=partition.lossless_bytes,
            lossless_compressed_bytes=len(lossless_payload),
            compress_seconds=elapsed,
            plan=plan,
        )
        self.last_report = report
        self.last_plan = plan
        return bitstream, report

    def compress_state_dict(self, state: dict[str, np.ndarray]) -> bytes:
        """Compress a full state dict into a single FedSZ bitstream."""
        bitstream, _ = self.compress_with_report(state)
        return bitstream

    # ------------------------------------------------------------------
    def _parse_manifest(self, manifest: bytes) -> tuple[int, CompressionPlan]:
        if len(manifest) < _MANIFEST_HEADER.size:
            raise ValueError(f"corrupt FedSZ manifest: {len(manifest)} bytes")
        version, n_entries = _MANIFEST_HEADER.unpack_from(manifest, 0)
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported FedSZ bitstream version {version} "
                             f"(this build reads version {_FORMAT_VERSION}; see FORMATS.md)")
        plan, offset = unpack_plan(manifest, _MANIFEST_HEADER.size)
        if offset != len(manifest):
            raise ValueError(f"corrupt FedSZ manifest: {len(manifest) - offset} "
                             f"trailing bytes after the plan summary")
        return n_entries, plan

    def decompress_with_report(self, bitstream: bytes,
                               reference: "dict[str, np.ndarray] | None" = None) \
            -> tuple["OrderedDict[str, np.ndarray]", FedSZReport]:
        """Reconstruct the state dict from a FedSZ bitstream, with statistics.

        ``reference`` is the state the stream was coded against, if any (see
        :meth:`compress_with_report`); a payload coded against a reference
        tensor raises :class:`ValueError` when its same-named tensor here is
        missing or differs in dtype or element count.

        Dispatch is per tensor: each ``lossy::`` payload names its codec,
        which must agree with the manifest plan; decoding fans out over the
        configured execution backend when ``config.pipeline_workers > 1`` (the
        tag/plan cross-check runs up front on the caller's thread, only the
        inner payload decode is dispatched).  The report covers
        the decode side only — ``compress_seconds`` is 0, so its
        ``throughput_mbps`` (a compress-side metric) reads ``inf`` and should
        not be aggregated from decode-only reports.
        """
        start = time.perf_counter()
        entries = unpack_bytes_dict(bitstream)
        manifest = entries.pop("__manifest__", None)
        if manifest is None:
            raise ValueError("not a FedSZ bitstream: missing manifest")
        n_entries, plan = self._parse_manifest(manifest)

        lossless_payload = entries.pop("__lossless__", b"")
        lossless_arrays = unpack_arrays(_decode_or_valueerror(
            self.lossless.decompress, lossless_payload, "__lossless__")) \
            if lossless_payload else {}

        lossy_entries: list[tuple[str, bytes]] = []
        for key, payload in entries.items():
            if not key.startswith(_LOSSY_PREFIX):
                raise ValueError(f"unexpected entry {key!r} in FedSZ bitstream")
            lossy_entries.append((key, payload))
        payload_names = [key[len(_LOSSY_PREFIX):] for key, _ in lossy_entries]
        if payload_names != plan.tensor_names:
            raise ValueError(
                f"corrupt FedSZ bitstream: manifest plans tensors "
                f"{plan.tensor_names!r} but the stream carries {payload_names!r}")

        lossy_compressed = sum(len(payload) for _, payload in lossy_entries)

        reference = reference or {}
        tasks = []
        for key, payload in lossy_entries:
            name = key[len(_LOSSY_PREFIX):]
            codec, body = _split_tagged_payload(payload, key)
            if codec != plan[name].codec:
                raise ValueError(f"corrupt FedSZ bitstream: entry {key!r} is "
                                 f"tagged {codec!r} but the manifest plan says "
                                 f"{plan[name].codec!r}")
            tasks.append((key, body, self._decoder_for(codec), reference.get(name)))
        arrays = map_parallel(_decompress_tensor_task, tasks,
                              max_workers=self._pipeline_workers(),
                              backend=self.config.backend)

        state: "OrderedDict[str, np.ndarray]" = OrderedDict(zip(payload_names, arrays))
        for name, array in lossless_arrays.items():
            if name in state:
                raise ValueError(f"corrupt FedSZ bitstream: tensor {name!r} appears "
                                 f"in both partitions")
            state[name] = array
        if len(state) != n_entries:
            raise ValueError(f"corrupt FedSZ bitstream: manifest declares {n_entries} "
                             f"tensors but {len(state)} were decoded")
        elapsed = time.perf_counter() - start
        lossy_original = sum(int(state[name].nbytes) for name in payload_names)
        report = FedSZReport(
            original_bytes=sum(int(v.nbytes) for v in state.values()),
            compressed_bytes=len(bitstream),
            lossy_original_bytes=lossy_original,
            lossy_compressed_bytes=lossy_compressed,
            lossless_original_bytes=sum(int(v.nbytes) for v in lossless_arrays.values()),
            lossless_compressed_bytes=len(lossless_payload),
            compress_seconds=0.0,
            decompress_seconds=elapsed,
            plan=plan,
        )
        return state, report

    def decompress_state_dict(self, bitstream: bytes,
                              reference: "dict[str, np.ndarray] | None" = None
                              ) -> "OrderedDict[str, np.ndarray]":
        """Reconstruct the state dict from a FedSZ bitstream (coded against
        ``reference``, if any)."""
        state, report = self.decompress_with_report(bitstream, reference)
        previous = self.last_report
        if previous is not None:
            # replace instead of mutating in place so a concurrent reader never
            # sees a half-updated report (see the thread-safety note above)
            self.last_report = replace(previous,
                                       decompress_seconds=report.decompress_seconds)
        return state

    # ------------------------------------------------------------------
    def roundtrip(self, state: dict[str, np.ndarray]) -> tuple["OrderedDict[str, np.ndarray]", FedSZReport]:
        """Compress then decompress ``state``; returns the reconstruction and report."""
        payload, report = self.compress_with_report(state)
        recon, decode_report = self.decompress_with_report(payload)
        report = replace(report, decompress_seconds=decode_report.decompress_seconds)
        self.last_report = report
        return recon, report

    def partition(self, state: dict[str, np.ndarray]) -> PartitionedState:
        """Expose the partitioning decision for inspection (Table III)."""
        return partition_state_dict(state, self.config)
