"""Cross-round residual shipping: the error-feedback delta codec.

Eqn. 1's wire term is ``S'/B``, so the payload size ``S'`` is a lever of
its own.  Round-over-round client states differ by tiny, low-entropy
residuals, so this module ships ``state − reference`` (the last
server-acknowledged global state) instead of the raw state, wrapped in a
small versioned frame:

Frame format (FDL5; FORMATS.md, versions 5 and 8)::

    4s   magic b"FDL5"
    u8   mode (0 = full state, 1 = delta against the armed reference,
               2 = full state coded against the armed reference)
    u64  reference generation (the round index the reference was produced by)

followed by the *inner* codec's ordinary bitstream — of the raw state in
the full modes, of the residual dict in delta mode.  Mode 2 offers the
reference to the inner FedSZ codec, whose SZ2 tensors code their zero-grid
indices against the reference's (SZ2's reference grid): it reconstructs
exactly what mode 0 would, in a fraction of the bytes, but decodes only
against the same reference.  The generation tag makes a stale reference fail
loudly at decode time instead of silently reconstructing against the wrong
state, and both referenced modes check the decoded tensors' names, shapes
and dtypes against the reference's.  The coordinator degrades a client whose
accumulator cannot be trusted to a full-state ship (mode 2): its reference
is the round's broadcast, which sender and receiver hold whatever the
client's history.  Mode 0 is what an unarmed codec ships; it needs no
reference at all.

Error feedback
--------------

Lossy-compressing residuals naively lets quantization error accumulate across
rounds.  The classic fix is a per-client accumulator that carries each
round's error into the next residual::

    residual_t = (state_t - reference_t) + acc_{t-1}          (shipped)
    recon_t    = reference_t + decode(Q(residual_t))          (server view)
    acc_t      = (state_t - recon_t) + acc_{t-1}              (held back)

The second and third lines are algebraically the same quantity
(``residual_t − decode(Q(residual_t))``), but computing ``acc_t`` from the
*reconstructed* state makes it exact float64 arithmetic over values both
sides agree on — one canonical kernel (:func:`advance_accumulator`), run
coordinator-side only, so every worker count produces the same accumulator
bit for bit.  A full-state ship resets the accumulator to the
plain reconstruction error (pass ``acc=None``).

All three kernels treat non-float tensors exactly: their residuals are
native-dtype differences (integer wraparound is its own inverse), they ride
the inner codec's lossless partition, and they carry no accumulator.

Bound semantics: a REL error bound is a fidelity request about the *state*
tensor, so on a delta ship it is resolved against the state's value range
(:func:`_rel_scales` → the encode's ``bound_scales``), not the residual's
much smaller one.  A residual therefore carries exactly the absolute
per-element tolerance the same tensor's full-state ship would — and because
the residual spans only a few of those quantization steps, its entropy (and
payload) collapses, which is where the delta size win comes from.

The codec itself is stateless between rounds: the coordinator *arms* it per
ship with the reference, generation, and accumulator, and advances the
accumulator from the reconstruction after the ship.  Transport workers
share the armed codec and only read its reference, so any worker count
stays bit-identical to the one-worker path.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict

import numpy as np

from repro.compressors.base import value_range
from repro.core.network import NetworkModel
from repro.fl.codec import FedSZUpdateCodec, UpdateCodec
from repro.utils.serialization import pack_arrays, unpack_arrays

__all__ = ["DeltaUpdateCodec", "DeltaChannel", "DeltaTracker", "FRAME_MAGIC",
           "MODE_FULL", "MODE_DELTA", "MODE_REFERENCE", "pack_frame", "parse_frame",
           "ef_residual", "reconstruct", "advance_accumulator",
           "pack_sidecar", "restore_sidecar"]

FRAME_MAGIC = b"FDL5"
_FRAME = struct.Struct("<4sBQ")  # magic, mode, generation
MODE_FULL = 0
MODE_DELTA = 1
MODE_REFERENCE = 2


def pack_frame(mode: int, generation: int) -> bytes:
    """Serialize the 13-byte FDL5 delta frame."""
    return _FRAME.pack(FRAME_MAGIC, mode, generation)


def parse_frame(payload: bytes) -> tuple[int, int, int]:
    """Parse and validate an FDL5 frame; returns ``(mode, generation, offset)``."""
    if len(payload) < _FRAME.size:
        raise ValueError(f"truncated delta frame: {len(payload)} of "
                         f"{_FRAME.size} bytes")
    magic, mode, generation = _FRAME.unpack_from(payload, 0)
    if magic != FRAME_MAGIC:
        raise ValueError("not a delta-framed update (bad FDL5 magic)")
    if mode not in (MODE_FULL, MODE_DELTA, MODE_REFERENCE):
        raise ValueError(f"corrupt delta frame: unknown mode {mode}")
    return mode, generation, _FRAME.size


def _mismatch(reference: dict, state: dict) -> "str | None":
    """Why ``state`` does not have the reference's tensor names, shapes and
    dtypes, or ``None`` when it does."""
    if state.keys() != reference.keys():
        return f"tensors {sorted(state.keys() ^ reference.keys())!r} are not in both"
    for name, array in state.items():
        ref = reference[name]
        if array.shape != ref.shape or array.dtype != ref.dtype:
            return (f"tensor {name!r} is {array.dtype}{list(array.shape)}, the "
                    f"reference's {ref.dtype}{list(ref.shape)}")
    return None


def _check_decoded(reference: dict, decoded: dict) -> dict:
    """``decoded``, if it has the reference's names, shapes and dtypes."""
    problem = _mismatch(reference, decoded)
    if problem is not None:
        raise ValueError(f"corrupt delta-framed update: {problem}")
    return decoded


# ---------------------------------------------------------------------------
# canonical kernels — the only places delta arithmetic happens
def ef_residual(state: dict, reference: dict,
                acc: "dict | None") -> "OrderedDict[str, np.ndarray]":
    """The residual dict a client ships: ``(state − reference) + acc``.

    Float tensors subtract in float64 (one ufunc that widens as it reads,
    no widened copy of either operand), add the float64 accumulator in
    place, and cast back to the state dtype so the wire dict is shaped and
    typed exactly like a full state (the inner codec plans it identically).
    Non-float tensors difference in native dtype (wraparound-exact, no
    accumulator).
    """
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, arr in state.items():
        ref = reference.get(name)
        if ref is None or ref.shape != arr.shape:
            raise ValueError(f"reference state does not match the update: "
                             f"tensor {name!r} missing or reshaped")
        if arr.dtype.kind == "f":
            res = np.subtract(arr, ref, dtype=np.float64)
            if acc is not None and name in acc:
                res += acc[name]
            out[name] = res.astype(arr.dtype)
        else:
            out[name] = np.subtract(arr, ref.astype(arr.dtype, copy=False))
    return out


def reconstruct(reference: dict,
                residual: dict) -> "OrderedDict[str, np.ndarray]":
    """Invert :func:`ef_residual` on the server: ``reference + residual``.

    Float tensors of one dtype add in that dtype: for float16, float32 and
    float64, one IEEE add equals the float64 add rounded to the narrower
    format, since 53 >= 2p + 2 bits makes that double rounding innocuous
    (Figueroa 1995).  Mixed float dtypes add in float64 and cast to the
    residual's dtype.
    """
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, res in residual.items():
        ref = reference.get(name)
        if ref is None or ref.shape != res.shape:
            raise ValueError(f"decoded residual does not match the reference: "
                             f"tensor {name!r} missing or reshaped")
        if res.dtype.kind == "f":
            if ref.dtype == res.dtype and res.dtype.itemsize <= 8:
                out[name] = np.add(ref, res)
            else:
                out[name] = np.add(ref, res, dtype=np.float64).astype(res.dtype)
        else:
            out[name] = np.add(ref.astype(res.dtype, copy=False), res)
    return out


def advance_accumulator(state: dict, recon: dict,
                        acc: "dict | None") -> dict[str, np.ndarray]:
    """Next round's accumulator: ``(state − recon) + acc`` in float64.

    ``recon`` is the state the *server* holds for this client after decoding
    (full or reconstructed-from-delta); passing ``acc=None`` resets the
    accumulator, which is exactly the full-ship semantics.  Only float
    tensors accumulate — everything else roundtrips exactly.
    """
    out: dict[str, np.ndarray] = {}
    for name, arr in state.items():
        if arr.dtype.kind != "f":
            continue
        err = np.subtract(arr, recon[name], dtype=np.float64)
        if acc is not None and name in acc:
            err += acc[name]
        out[name] = err
    return out


def _rel_scales(state: dict) -> dict[str, float]:
    """Per-tensor REL-bound resolution scales of the *true* state.

    A REL error bound is a fidelity request about the state tensor; resolving
    it against the residual's much smaller range would tighten the effective
    quantization step by the state/residual range ratio — silently exceeding
    the requested fidelity and forfeiting most of the delta size win.  These
    scales (mirroring :meth:`ErrorBound.absolute`'s REL resolution, including
    the constant-tensor fallback) let the inner pipeline quantize the residual
    under exactly the absolute tolerance a full-state ship would use.
    """
    scales: dict[str, float] = {}
    for name, arr in state.items():
        arr = np.asarray(arr)
        if arr.dtype.kind != "f" or arr.size == 0:
            continue
        lo, hi = arr.min(), arr.max()
        try:
            span = value_range(lo, hi)
        except ValueError:
            # no REL bound resolves against this range: a lossy ship of the
            # tensor raises at encode, as ErrorBound refuses the infinite
            # bound, and a lossless one never reads its scale
            span = math.inf
        if span == 0.0:
            span = max(abs(float(lo)), 1.0) * 1e-6
        scales[name] = span
    return scales


class DeltaChannel:
    """Per-client cross-round delta state, owned by the coordinator.

    ``ready`` gates delta eligibility: it only turns on after the client's
    first completed ship (so round 0 always ships full), and is dropped —
    together with the accumulator — whenever the reference can no longer be
    trusted (dropout, roster change, a resume that cannot restore the
    sidecar).  ``generation`` is the round index the
    client's server-acknowledged state was produced under; the frame tag is
    checked against it at decode.  ``degrade`` records why the most recent
    ship fell back to full mode (surfaced in ``RoundRecord``).
    """

    __slots__ = ("client_id", "ready", "generation", "acc", "degrade")

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        self.ready = False
        self.generation = -1
        self.acc: "dict[str, np.ndarray] | None" = None
        self.degrade: "str | None" = None

    def invalidate(self, reason: str) -> None:
        """Drop the reference and the accumulator."""
        self.ready = False
        self.generation = -1
        self.acc = None
        self.degrade = reason


class DeltaUpdateCodec(UpdateCodec):
    """Wrap an update codec with FDL5 delta framing and error feedback.

    The wrapper is armed per ship by the coordinator (:meth:`arm`) with the
    reference state, its generation, and the client's accumulator;
    :meth:`disarm` drops the references so a parked codec never pins a stale
    state dict in memory.  An armed full-state ship is a mode-2 frame, coded
    against the reference, when the inner codec is FedSZ and the state has
    the reference's tensor names, shapes and dtypes; otherwise, and always
    when unarmed, it is a mode-0 frame, which needs no reference.  The inner
    codec's entropy stage builds fresh Huffman tables for every ship,
    residual or full.  Every armed quantity lives in the wrapper and reaches
    the inner codec as an encode argument, so one client's wrapper may share
    its inner codec with the whole fleet.
    """

    def __init__(self, inner: UpdateCodec) -> None:
        self.inner = inner
        self.name = f"delta+{inner.name}"
        self._reference: "dict | None" = None
        self._generation = -1
        self._armed_delta = False
        self._acc: "dict | None" = None

    # -- arming --------------------------------------------------------
    def arm(self, reference: "dict | None", generation: int, *, delta: bool,
            acc: "dict | None" = None) -> None:
        """Arm this codec for one client's ship (encode *and* decode side)."""
        if delta and reference is None:
            raise ValueError("cannot arm a delta ship without a reference state")
        self._reference = reference
        self._generation = int(generation)
        self._armed_delta = bool(delta)
        self._acc = acc

    def disarm(self) -> None:
        """Release the armed reference and accumulator."""
        self._reference = None
        self._generation = -1
        self._armed_delta = False
        self._acc = None

    def _require_reference(self, generation: int) -> dict:
        if self._reference is None:
            raise ValueError("delta-framed update but no reference state is "
                             "armed; the sender and receiver disagree about "
                             "this client's acknowledged state")
        if generation != self._generation:
            raise ValueError(f"delta update against reference generation "
                             f"{generation} but generation {self._generation} "
                             f"is armed; refusing to decode against the wrong "
                             f"reference")
        return self._reference

    # -- codec surface -------------------------------------------------
    def encode(self, state: dict[str, np.ndarray]) -> bytes:
        payload, _ = self.encode_with_report(state)
        return payload

    def encode_with_report(self, state: dict[str, np.ndarray]):
        if self._armed_delta:
            residual = ef_residual(state, self._require_reference(
                self._generation), self._acc)
            if isinstance(self.inner, FedSZUpdateCodec):
                inner_payload, report = self.inner.encode_with_report(
                    residual, bound_scales=_rel_scales(state))
            else:
                inner_payload, report = self.inner.encode_with_report(residual)
            return pack_frame(MODE_DELTA, self._generation) + inner_payload, report
        reference = self._reference
        if reference is not None and isinstance(self.inner, FedSZUpdateCodec) \
                and _mismatch(reference, state) is None:
            inner_payload, report = self.inner.encode_with_report(state, reference)
            return pack_frame(MODE_REFERENCE, self._generation) + inner_payload, report
        inner_payload, report = self.inner.encode_with_report(state)
        return pack_frame(MODE_FULL, max(self._generation, 0)) + inner_payload, report

    def decode(self, payload: bytes) -> "OrderedDict[str, np.ndarray]":
        mode, generation, offset = parse_frame(payload)
        if mode == MODE_FULL:
            return self.inner.decode(payload[offset:])
        reference = self._require_reference(generation)
        if mode == MODE_DELTA:
            residual = self.inner.decode(payload[offset:])
            return reconstruct(reference, _check_decoded(reference, residual))
        if not isinstance(self.inner, FedSZUpdateCodec):
            raise ValueError(f"corrupt delta frame: mode {MODE_REFERENCE} needs a "
                             f"FedSZ inner codec, not {self.inner.name!r}")
        return _check_decoded(reference, self.inner.decode(payload[offset:], reference))

    def for_network(self, network: NetworkModel) -> "DeltaUpdateCodec":
        resolved = self.inner.for_network(network)
        if resolved is self.inner:
            return self
        return DeltaUpdateCodec(resolved)

    @property
    def profiler(self):
        return self.inner.profiler

    @property
    def last_report(self):
        return getattr(self.inner, "last_report", None)


# ---------------------------------------------------------------------------
# journal sidecar — the per-client state that must survive a crash
_SIDECAR_ACC = "acc::"
_SIDECAR_META = "meta::generation"


def pack_sidecar(channel: DeltaChannel) -> bytes:
    """Serialize a channel's durable state (generation and accumulator) with
    :func:`pack_arrays` — float64 accumulators roundtrip bit-exactly, so a
    resumed run re-encodes byte-identical payloads."""
    arrays: "OrderedDict[str, np.ndarray]" = OrderedDict()
    arrays[_SIDECAR_META] = np.array([channel.generation], dtype=np.int64)
    for name in sorted(channel.acc or {}):
        arrays[_SIDECAR_ACC + name] = channel.acc[name]
    return pack_arrays(arrays)


def restore_sidecar(channel: DeltaChannel, blob: bytes) -> None:
    """Invert :func:`pack_sidecar` onto ``channel``, marking it ready.

    The sidecar is read exactly: any key other than the generation and
    ``acc::<tensor>`` accumulators is corrupt.  Raises :class:`ValueError` on
    a corrupt blob — the caller degrades the client to a full-state ship
    instead of decoding against a wrong state.
    """
    arrays = unpack_arrays(blob)
    meta = arrays.pop(_SIDECAR_META, None)
    if meta is None or meta.size != 1:
        raise ValueError("corrupt delta sidecar: missing generation")
    acc: dict[str, np.ndarray] = {}
    for key, arr in arrays.items():
        if not key.startswith(_SIDECAR_ACC):
            raise ValueError(f"corrupt delta sidecar: unknown key {key!r}")
        acc[key[len(_SIDECAR_ACC):]] = np.asarray(arr, dtype=np.float64)
    channel.generation = int(meta[0])
    channel.acc = acc
    channel.ready = True
    channel.degrade = None


class DeltaTracker:
    """Coordinator-side owner of every client's :class:`DeltaChannel`.

    The tracker is the single mutation point for cross-round delta state:
    :meth:`begin_round` arms each participant's codec (delta when the
    channel is ready, full otherwise) and invalidates dropped clients;
    :meth:`complete_ship` runs the canonical error-feedback advance and
    returns the journal sidecar; :meth:`adopt_replayed` and :meth:`restore`
    rebuild channels from the journal so crash-resume re-encodes
    bit-identical payloads.  Invalidation reasons surfaced in
    ``RoundRecord.delta_degrades``: ``cold`` (first ship), ``dropout``,
    ``roster-change`` and ``resume-loss`` (sidecar missing/corrupt on
    resume).

    Dropout invalidation is protocol fidelity, not algebra: the reference is
    the *current* round's broadcast, so a returning client could in principle
    delta-ship immediately — but a real deployment cannot trust that a client
    that vanished kept its accumulator, so the reproduction doesn't either.
    """

    def __init__(self, codecs: "dict[int, DeltaUpdateCodec]") -> None:
        self.channels = {cid: DeltaChannel(cid) for cid in codecs}
        self._codecs = codecs
        self._signature: "object | None" = None
        self._round = -1
        self._round_modes: dict[int, bool] = {}
        self._round_degrades: dict[int, str] = {}
        self._armed_acc: "dict[int, dict | None]" = {}

    def begin_round(self, round_index: int, global_state: dict, plan,
                    roster_signature: object) -> None:
        """Arm every participant's codec against this round's broadcast."""
        if self._signature is not None and roster_signature != self._signature:
            for channel in self.channels.values():
                channel.invalidate("roster-change")
        self._signature = roster_signature
        for cid in plan.dropped:
            if cid in self.channels:
                self.channels[cid].invalidate("dropout")
        self._round = round_index
        self._round_modes = {}
        self._round_degrades = {}
        self._armed_acc = {}
        for cid in plan.participants:
            channel = self.channels.get(cid)
            if channel is None:
                continue  # mixed fleet: this client ships a plain codec
            delta = channel.ready
            self._codecs[cid].arm(global_state, round_index, delta=delta,
                                  acc=channel.acc)
            self._round_modes[cid] = delta
            if not delta:
                self._round_degrades[cid] = channel.degrade or "cold"
            self._armed_acc[cid] = channel.acc if delta else None

    def complete_ship(self, client_id: int, trained_state: dict,
                      recon_state: dict, sidecar: bool = True) -> "bytes | None":
        """Fold one arrival: advance the accumulator and (optionally) build
        the journal sidecar."""
        channel = self.channels.get(client_id)
        if channel is None:
            return None  # mixed fleet: nothing to track for a plain codec
        channel.acc = advance_accumulator(trained_state, recon_state,
                                          self._armed_acc.get(client_id))
        channel.ready = True
        channel.generation = self._round
        channel.degrade = None
        return pack_sidecar(channel) if sidecar else None

    def adopt_replayed(self, client_id: int, blob: "bytes | None") -> None:
        """Rebuild a channel from a replayed ship's journal sidecar."""
        channel = self.channels.get(client_id)
        if channel is None:
            return
        if blob is None:
            channel.invalidate("resume-loss")
            return
        try:
            restore_sidecar(channel, blob)
        except ValueError:
            channel.invalidate("resume-loss")

    def restore(self, delta_state: "dict[int, dict]", loader) -> None:
        """Rebuild every channel from the journal's per-client delta state.

        ``loader`` maps a sidecar path to its bytes (or ``None`` on any
        read/parse failure) — journal damage degrades to a full ship, never
        a wrong-reference decode.
        """
        for cid, info in delta_state.items():
            channel = self.channels.get(cid)
            if channel is None:
                continue
            path = info.get("sidecar")
            if path is not None:
                self.adopt_replayed(cid, loader(path))
            elif info.get("degrade") is not None:
                channel.invalidate(info["degrade"])
            # else: never shipped — leave the channel genuinely cold

    def round_summary(self) -> "tuple[list[int], dict[int, str]]":
        """This round's ``(delta_clients, delta_degrades)``."""
        delta_clients = sorted(cid for cid, mode in self._round_modes.items()
                               if mode)
        return delta_clients, dict(self._round_degrades)

    def disarm_all(self) -> None:
        """Release every armed codec (end of round)."""
        for codec in self._codecs.values():
            codec.disarm()
