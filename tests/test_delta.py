"""Cross-round residual shipping: delta codec, tracker, journal sidecar."""

from __future__ import annotations

import functools
import os
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import FedSZConfig
from repro.core.network import NetworkModel
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.fl.coordinator import deterministic_fields
from repro.fl.delta import (MODE_DELTA, MODE_FULL, MODE_REFERENCE,
                            DeltaChannel, DeltaTracker, DeltaUpdateCodec,
                            advance_accumulator, ef_residual, pack_frame,
                            pack_sidecar, parse_frame, reconstruct,
                            restore_sidecar)
from repro.nn import build_model
from repro.utils.serialization import pack_bytes_dict, unpack_bytes_dict


def _state(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return {
        "fc.weight": (scale * rng.standard_normal((64, 32))).astype(np.float32),
        "fc.bias": (scale * rng.standard_normal(8)).astype(np.float32),
        "steps": np.asarray(rng.integers(0, 100, size=4), dtype=np.int64),
    }


def _near(reference, seed, step=1e-4):
    """A trained-like state: every float tensor a small step from ``reference``."""
    rng = np.random.default_rng(seed)
    return {k: (v + step * rng.standard_normal(v.shape)).astype(v.dtype)
            if v.dtype.kind == "f" else v.copy() for k, v in reference.items()}


def _bits(state: dict) -> dict:
    return {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in state.items()}


def _config(**kw):
    kw.setdefault("error_bound", 1e-3)
    kw.setdefault("threshold", 16)
    return FedSZConfig(**kw)


class TestFrame:
    def test_roundtrip(self):
        payload = pack_frame(MODE_DELTA, 7)
        assert len(payload) == 13
        assert parse_frame(payload) == (MODE_DELTA, 7, 13)
        assert parse_frame(pack_frame(MODE_FULL, 0))[0] == MODE_FULL
        assert parse_frame(pack_frame(MODE_REFERENCE, 4)) == (MODE_REFERENCE, 4, 13)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="FDL5"):
            parse_frame(b"XXXX" + pack_frame(MODE_FULL, 0)[4:])

    def test_truncation_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            parse_frame(pack_frame(MODE_FULL, 0)[:12])

    def test_unknown_mode_rejected(self):
        for mode in (3, 9):
            bad = bytearray(pack_frame(MODE_FULL, 0))
            bad[4] = mode
            with pytest.raises(ValueError, match=f"unknown mode {mode}"):
                parse_frame(bytes(bad))


class TestKernels:
    def test_residual_reconstruct_roundtrip_exact_without_quantization(self):
        state, ref = _state(1), _state(2)
        res = ef_residual(state, ref, None)
        recon = reconstruct(ref, res)
        for name in state:
            assert recon[name].dtype == state[name].dtype
            if state[name].dtype.kind == "f":
                # float64 subtract/add cast through float32 is not exact in
                # general, but stays within one float32 ulp of the operands
                ulp = np.finfo(np.float32).eps * np.max(np.abs(state[name]))
                np.testing.assert_allclose(recon[name], state[name],
                                           rtol=0, atol=2 * ulp)
            else:
                np.testing.assert_array_equal(recon[name], state[name])

    def test_integer_residuals_wraparound_exact(self):
        state = {"steps": np.array([0, 255, 7], dtype=np.uint8)}
        ref = {"steps": np.array([255, 0, 200], dtype=np.uint8)}
        res = ef_residual(state, ref, None)
        assert res["steps"].dtype == np.uint8
        np.testing.assert_array_equal(reconstruct(ref, res)["steps"],
                                      state["steps"])

    def test_accumulator_carries_error_forward(self):
        state, ref = _state(3), _state(4)
        acc = {"fc.weight": np.full((64, 32), 0.25, dtype=np.float64)}
        res = ef_residual(state, ref, acc)
        plain = ef_residual(state, ref, None)
        np.testing.assert_allclose(
            res["fc.weight"].astype(np.float64) -
            plain["fc.weight"].astype(np.float64), 0.25, atol=1e-4)

    def test_advance_accumulator_is_float64_error_plus_carry(self):
        state, recon = _state(5), _state(6)
        carry = {"fc.bias": np.full(8, -1.5, dtype=np.float64)}
        acc = advance_accumulator(state, recon, carry)
        assert set(acc) == {"fc.weight", "fc.bias"}  # floats only
        assert acc["fc.bias"].dtype == np.float64
        expected = (state["fc.bias"].astype(np.float64)
                    - recon["fc.bias"].astype(np.float64)) - 1.5
        np.testing.assert_array_equal(acc["fc.bias"], expected)

    def test_mismatched_reference_raises(self):
        state = {"fc.weight": np.zeros((2, 2), dtype=np.float32)}
        with pytest.raises(ValueError, match="missing or reshaped"):
            ef_residual(state, {"fc.weight": np.zeros(3, dtype=np.float32)},
                        None)
        with pytest.raises(ValueError, match="missing or reshaped"):
            reconstruct({}, state)


class TestDeltaCodec:
    def _codec(self, **kw):
        return DeltaUpdateCodec(FedSZUpdateCodec(_config(**kw)))

    def test_unarmed_ships_full_frame(self):
        codec = self._codec()
        state = _state(7)
        payload = codec.encode(state)
        mode, generation, offset = parse_frame(payload)
        assert (mode, generation) == (MODE_FULL, 0)
        # the inner bitstream is byte-identical to the unwrapped codec's
        assert payload[offset:] == codec.inner.encode(state)
        recon = codec.decode(payload)
        bound = 1e-3 * (np.ptp(state["fc.weight"]))
        assert np.max(np.abs(recon["fc.weight"] - state["fc.weight"])) <= \
            bound * (1 + 1e-6) + 1e-12

    def test_armed_delta_respects_bound_on_residual(self):
        codec = self._codec()
        ref = _state(8)
        state = {k: (v + 0.01 * np.ones_like(v) if v.dtype.kind == "f" else v)
                 for k, v in ref.items()}
        codec.arm(ref, 3, delta=True)
        payload = codec.encode(state)
        assert parse_frame(payload)[:2] == (MODE_DELTA, 3)
        recon = codec.decode(payload)
        # a REL bound is a fidelity request about the *state* tensor: the
        # codec rescales it before compressing the (much smaller) residual
        bound = 1e-3 * np.ptp(state["fc.weight"])
        assert np.max(np.abs(recon["fc.weight"].astype(np.float64)
                             - state["fc.weight"])) <= bound * (1 + 1e-6) + 1e-12
        np.testing.assert_array_equal(recon["steps"], state["steps"])

    def test_delta_payload_smaller_than_full(self):
        codec = self._codec()
        ref = _state(9)
        rng = np.random.default_rng(10)
        # a sparse update: most of the residual quantizes to the predictable
        # code, which is where the ratio win comes from
        state = {}
        for k, v in ref.items():
            if v.dtype.kind == "f":
                mask = rng.random(v.shape) < 0.05
                state[k] = v + mask * rng.standard_normal(v.shape).astype(v.dtype)
            else:
                state[k] = v
        full = codec.encode(state)
        codec.arm(ref, 0, delta=True)
        assert len(codec.encode(state)) < len(full) / 2

    def test_generation_mismatch_fails_loudly(self):
        codec = self._codec()
        ref = _state(11)
        codec.arm(ref, 5, delta=True)
        payload = codec.encode(_state(12))
        codec.arm(ref, 6, delta=True)
        with pytest.raises(ValueError, match="generation"):
            codec.decode(payload)

    def test_unarmed_delta_decode_fails_loudly(self):
        codec = self._codec()
        ref = _state(13)
        codec.arm(ref, 1, delta=True)
        payload = codec.encode(_state(14))
        codec.disarm()
        with pytest.raises(ValueError, match="no reference"):
            codec.decode(payload)

    def test_detached_clone_needs_reattachment(self):
        codec = self._codec()
        ref = _state(19)
        codec.arm(ref, 1, delta=True)
        payload = codec.encode(_state(20))
        clone = codec.detached()
        with pytest.raises(ValueError, match="no reference"):
            clone.decode(payload)
        clone.attach_reference(ref)
        recon = clone.decode(payload)
        np.testing.assert_array_equal(recon["steps"], _state(20)["steps"])

    def test_armed_full_ship_codes_against_the_reference(self):
        # mode 2 reconstructs exactly what mode 0 does, in fewer bytes
        codec = self._codec()
        ref = _state(40)
        state = _near(ref, 41)
        plain = codec.encode(state)
        assert parse_frame(plain)[0] == MODE_FULL
        codec.arm(ref, 4, delta=False)
        payload = codec.encode(state)
        assert parse_frame(payload)[:2] == (MODE_REFERENCE, 4)
        assert len(payload) < len(plain)
        assert _bits(codec.decode(payload)) == _bits(codec.inner.decode(plain[13:]))

    def test_reference_frame_decodes_only_against_its_reference(self):
        codec = self._codec()
        ref = _state(42)
        codec.arm(ref, 4, delta=False)
        payload = codec.encode(_near(ref, 43))
        codec.arm(ref, 5, delta=False)
        with pytest.raises(ValueError, match="generation 4 but generation 5"):
            codec.decode(payload)
        codec.disarm()
        with pytest.raises(ValueError, match="no reference"):
            codec.decode(payload)

    def test_reference_frame_needs_a_fedsz_inner_codec(self):
        codec = self._codec()
        ref = _state(44)
        codec.arm(ref, 1, delta=False)
        payload = codec.encode(_near(ref, 45))
        raw = DeltaUpdateCodec(RawUpdateCodec())
        raw.arm(ref, 1, delta=False)
        with pytest.raises(ValueError, match="FedSZ inner codec"):
            raw.decode(payload)
        # an armed raw codec has nothing to code against the reference
        assert parse_frame(raw.encode(ref))[0] == MODE_FULL

    @pytest.mark.parametrize("extra", ["tensor", "dtype"])
    def test_state_unlike_the_reference_ships_mode_zero(self, extra):
        codec = self._codec()
        ref = _state(46)
        state = _near(ref, 47)
        if extra == "tensor":
            state["extra"] = np.zeros(3, np.float32)
        else:
            state["fc.bias"] = state["fc.bias"].astype(np.float64)
        codec.arm(ref, 2, delta=False)
        payload = codec.encode(state)
        assert parse_frame(payload)[0] == MODE_FULL
        assert payload[13:] == codec.inner.encode(state)

    @pytest.mark.parametrize("delta", [True, False], ids=["delta", "full"])
    def test_flipped_lossy_dtype_rejected(self, delta):
        # a float32 tensor whose lossy payload claims float64 decodes to the
        # right shape in the wrong dtype; the armed reference pins the dtype
        codec = self._codec()
        ref = _state(48)
        codec.arm(ref, 2, delta=delta)
        payload = codec.encode(_near(ref, 49, step=0.01))
        assert parse_frame(payload)[0] == (MODE_DELTA if delta else MODE_REFERENCE)
        entries = unpack_bytes_dict(payload[13:])
        tagged = bytearray(entries["lossy::fc.weight"])
        dtype_at = 1 + tagged[0]  # after the codec tag
        assert tagged[dtype_at] == 0  # float32
        tagged[dtype_at] = 1
        entries["lossy::fc.weight"] = bytes(tagged)
        with pytest.raises(ValueError, match="float64"):
            codec.decode(payload[:13] + pack_bytes_dict(entries))

    @pytest.mark.parametrize("backend, workers", [
        ("thread", 1), ("thread", 2), ("process", 1), ("process", 2)])
    def test_reference_ship_bit_identical_across_backends(self, backend, workers):
        # one tensor of several tiles, one of one tile, and the exact ones
        ref = dict(_state(50), **{"conv.weight": np.random.default_rng(51).standard_normal(
            (300, 256)).astype(np.float32)})
        state = _near(ref, 52)

        def ship(**kw):
            codec = self._codec(**kw)
            codec.arm(ref, 7, delta=False)
            payload = codec.encode(state)
            return payload, _bits(codec.decode(payload))

        payload, recon = ship(backend="serial")
        assert parse_frame(payload)[0] == MODE_REFERENCE
        assert ship(backend=backend, pipeline_workers=workers) == (payload, recon)

    def test_armed_codec_pickles_byte_identically(self):
        codec = self._codec()
        ref, state = _state(21), _state(22)
        codec.arm(ref, 3, delta=True)
        twin = pickle.loads(pickle.dumps(codec))
        assert twin.encode(state) == codec.encode(state)

    def test_error_feedback_bounds_multi_round_drift(self):
        # chained EF: the served reconstruction never drifts past a couple of
        # single-round quantization errors, even after many rounds
        codec = self._codec(error_bound=1e-2)
        rng = np.random.default_rng(23)
        ref = _state(24)
        acc = None
        worst = 0.0
        for round_index in range(6):
            state = {k: (v + 0.02 * rng.standard_normal(v.shape).astype(v.dtype)
                         if v.dtype.kind == "f" else v)
                     for k, v in ref.items()}
            codec.arm(ref, round_index, delta=True, acc=acc)
            recon = codec.decode(codec.encode(state))
            acc = advance_accumulator(state, recon, acc)
            bound = 1e-2 * np.ptp(state["fc.weight"])
            err = np.max(np.abs(recon["fc.weight"].astype(np.float64)
                                - state["fc.weight"]))
            worst = max(worst, err / bound)
            ref = recon  # the server acknowledges what it reconstructed
        assert worst <= 2.5


def _sidecar_with_stray_key(key: str = "misc::fc.weight") -> bytes:
    """A valid sidecar plus one array under ``key``."""
    from repro.utils.serialization import pack_arrays, unpack_arrays
    channel = DeltaChannel(0)
    channel.generation = 3
    channel.acc = {"fc.weight": np.zeros((2, 2))}
    arrays = unpack_arrays(pack_sidecar(channel))
    arrays[key] = np.ones(4, dtype=np.uint8)
    return pack_arrays(arrays)


class TestSidecar:
    def test_roundtrip_bit_exact(self):
        channel = DeltaChannel(0)
        channel.generation = 9
        channel.acc = {"fc.weight": np.random.default_rng(1).standard_normal(
            (4, 4)).astype(np.float64)}
        blob = pack_sidecar(channel)
        twin = DeltaChannel(0)
        restore_sidecar(twin, blob)
        assert twin.ready and twin.degrade is None
        assert twin.generation == 9
        np.testing.assert_array_equal(twin.acc["fc.weight"],
                                      channel.acc["fc.weight"])

    def test_corrupt_blob_raises(self):
        with pytest.raises(ValueError):
            restore_sidecar(DeltaChannel(0), b"not a sidecar")

    def test_missing_generation_raises(self):
        from repro.utils.serialization import pack_arrays
        with pytest.raises(ValueError, match="generation"):
            restore_sidecar(DeltaChannel(0), pack_arrays({}))

    # the sidecar holds the generation and the accumulators only; any other
    # key is corrupt, not skipped (a "cb::" code table from an older sidecar
    # included)
    @pytest.mark.parametrize("key", ["misc::fc.weight", "cb::sz2:fc.weight"])
    def test_stray_key_raises(self, key):
        channel = DeltaChannel(0)
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            restore_sidecar(channel, _sidecar_with_stray_key(key))
        assert not channel.ready


def _plan(participants, dropped=()):
    return SimpleNamespace(participants=list(participants),
                           dropped=list(dropped))


class TestTracker:
    def _tracker(self, n=2):
        codecs = {cid: DeltaUpdateCodec(RawUpdateCodec()) for cid in range(n)}
        return DeltaTracker(codecs), codecs

    def test_first_round_cold_then_ready(self):
        tracker, codecs = self._tracker()
        state = _state(30)
        tracker.begin_round(0, state, _plan([0, 1]), "sig")
        clients, degrades = tracker.round_summary()
        assert clients == [] and degrades == {0: "cold", 1: "cold"}
        for cid in (0, 1):
            tracker.complete_ship(cid, state, state, sidecar=False)
        tracker.begin_round(1, state, _plan([0, 1]), "sig")
        clients, degrades = tracker.round_summary()
        assert clients == [0, 1] and degrades == {}
        assert codecs[0]._armed_delta

    def test_dropout_invalidates_until_next_completed_ship(self):
        tracker, _ = self._tracker()
        state = _state(31)
        tracker.begin_round(0, state, _plan([0, 1]), "sig")
        for cid in (0, 1):
            tracker.complete_ship(cid, state, state, sidecar=False)
        tracker.begin_round(1, state, _plan([1], dropped=[0]), "sig")
        tracker.complete_ship(1, state, state, sidecar=False)
        tracker.begin_round(2, state, _plan([0, 1]), "sig")
        clients, degrades = tracker.round_summary()
        assert clients == [1]
        assert degrades == {0: "dropout"}

    def test_late_ship_invalidates(self):
        tracker, _ = self._tracker()
        state = _state(32)
        tracker.begin_round(0, state, _plan([0, 1]), "sig")
        tracker.complete_ship(0, state, state, sidecar=False)
        tracker.invalidate(1, "late")
        clients, degrades = tracker.round_summary()
        assert clients == [] and degrades[1] == "late"
        tracker.begin_round(1, state, _plan([0, 1]), "sig")
        clients, degrades = tracker.round_summary()
        assert clients == [0] and degrades == {1: "late"}

    def test_roster_change_invalidates_everyone(self):
        tracker, _ = self._tracker()
        state = _state(33)
        tracker.begin_round(0, state, _plan([0, 1]), "roster-a")
        for cid in (0, 1):
            tracker.complete_ship(cid, state, state, sidecar=False)
        tracker.begin_round(1, state, _plan([0, 1]), "roster-b")
        clients, degrades = tracker.round_summary()
        assert clients == []
        assert degrades == {0: "roster-change", 1: "roster-change"}

    def test_adopt_replayed_missing_sidecar_degrades(self):
        tracker, _ = self._tracker()
        state = _state(34)
        tracker.begin_round(0, state, _plan([0, 1]), "sig")
        tracker.adopt_replayed(0, None, late=False)
        tracker.adopt_replayed(1, b"garbage", late=False)
        assert tracker.channels[0].degrade == "resume-loss"
        assert tracker.channels[1].degrade == "resume-loss"
        assert not tracker.channels[0].ready

    def test_restore_paths(self):
        tracker, _ = self._tracker()
        good = DeltaChannel(0)
        good.generation = 2
        good.acc = {}
        blob = pack_sidecar(good)
        loader = {"ok": blob, "bad": b"junk", "gone": None}.get
        tracker.restore({0: {"sidecar": "ok", "degrade": None},
                         1: {"sidecar": None, "degrade": "dropout"}}, loader)
        assert tracker.channels[0].ready
        assert tracker.channels[0].generation == 2
        assert tracker.channels[1].degrade == "dropout"
        tracker.restore({0: {"sidecar": "bad", "degrade": None},
                         1: {"sidecar": "gone", "degrade": None}}, loader)
        assert tracker.channels[0].degrade == "resume-loss"
        assert tracker.channels[1].degrade == "resume-loss"

    def test_restore_stray_key_degrades(self):
        tracker, _ = self._tracker()
        tracker.restore({0: {"sidecar": "stray", "degrade": None}},
                        {"stray": _sidecar_with_stray_key()}.get)
        assert not tracker.channels[0].ready
        assert tracker.channels[0].degrade == "resume-loss"

    def test_restore_never_shipped_stays_cold(self):
        tracker, _ = self._tracker()
        tracker.restore({0: {"sidecar": None, "degrade": None}}, lambda p: None)
        assert not tracker.channels[0].ready
        assert tracker.channels[0].degrade is None


# ---------------------------------------------------------------------------
#: a narrow alexnet: its two dropout layers are what the resume tests
#: need, at a fraction of the full model's training time
NARROW_ALEXNET = {"width": 8, "hidden": 64}


def _factory(model="simplecnn"):
    return build_model(model, num_classes=10, in_channels=3, image_size=16,
                       seed=0, **(NARROW_ALEXNET if model == "alexnet" else {}))


@pytest.fixture(scope="module")
def delta_split():
    ds = make_dataset("cifar10", n_samples=240, image_size=16, seed=7)
    return train_test_split(ds, test_fraction=0.25, seed=3)


#: a link so slow that every ship misses the deadline and is absorbed one
#: round late
_LATE = dict(network=NetworkModel(bandwidth_mbps=0.001), round_deadline_s=1e-4,
             max_staleness=1)


def _make_sim(split, model="simplecnn", **kwargs):
    train, test = split
    defaults = dict(n_clients=3, seed=5, lr=0.1, batch_size=32,
                    codec=FedSZUpdateCodec(_config(error_bound=1e-2,
                                                   threshold=64)),
                    delta=True)
    defaults.update(kwargs)
    return FederatedSimulation(functools.partial(_factory, model), train, test,
                               **defaults)


class TestDeltaSimulation:
    def test_round_zero_full_then_residuals_shrink_bytes(self, delta_split):
        full = _make_sim(delta_split, delta=False).run(3)
        res = _make_sim(delta_split).run(3)
        assert res.rounds[0].delta_clients == []
        assert res.rounds[0].delta_degrades == {0: "cold", 1: "cold", 2: "cold"}
        for r in res.rounds[1:]:
            assert r.delta_clients == [0, 1, 2]
            assert r.transmitted_bytes < full.rounds[r.round_index].transmitted_bytes
        # the cold ships are full states coded against the broadcast
        assert res.rounds[0].transmitted_bytes < 0.75 * full.rounds[0].transmitted_bytes

    def test_bit_identical_across_backends(self, delta_split):
        ref = _make_sim(delta_split, backend="serial", max_workers=1).run(3)
        for kwargs in ({"backend": "thread", "max_workers": 4},
                       {"backend": "process", "max_workers": 2}):
            got = _make_sim(delta_split, **kwargs).run(3)
            assert deterministic_fields(got) == deterministic_fields(ref), kwargs

    def test_dropout_degrades_next_participation(self, delta_split):
        result = _make_sim(delta_split, dropout_prob=0.4, seed=9).run(5)
        dropped_before = set()
        saw_degrade = False
        for r in result.rounds:
            for cid in r.participants:
                if cid in dropped_before:
                    assert cid not in r.delta_clients
                    assert r.delta_degrades.get(cid) == "dropout"
                    saw_degrade = True
                dropped_before.discard(cid)
            dropped_before.update(r.dropped_clients)
        assert saw_degrade, "seed produced no dropout-then-return sequence"

    @pytest.mark.parametrize("model", ["simplecnn", "alexnet"])
    def test_journal_resume_bit_identical(self, tmp_path, delta_split, model):
        # alexnet trains through dropout: a resumed run rebuilds its replicas,
        # so the masks must come from the round, not from generator history
        reference_sim = _make_sim(delta_split, model)
        reference = reference_sim.run(4)
        _make_sim(delta_split, model, journal_dir=tmp_path / "j").run(2)
        resumed_sim = _make_sim(delta_split, model, journal_dir=tmp_path / "j",
                                resume=True)
        resumed = resumed_sim.run(4)
        assert deterministic_fields(resumed) == deterministic_fields(reference)
        ref_state = reference_sim.server.global_state()
        res_state = resumed_sim.server.global_state()
        assert all(np.array_equal(ref_state[k], res_state[k]) for k in ref_state)

    @pytest.mark.parametrize("model", ["simplecnn", "alexnet"])
    def test_kill_resume_drill_bit_identical(self, tmp_path, delta_split,
                                             monkeypatch, model):
        reference = _make_sim(delta_split, model).run(3)

        def fake_exit(code):
            raise SystemExit(code)

        monkeypatch.setattr(os, "_exit", fake_exit)
        monkeypatch.setenv("REPRO_JOURNAL_CRASH_AFTER", "5")
        with pytest.raises(SystemExit):
            _make_sim(delta_split, model, journal_dir=tmp_path / "j").run(3)
        monkeypatch.delenv("REPRO_JOURNAL_CRASH_AFTER")
        resumed = _make_sim(delta_split, model, journal_dir=tmp_path / "j",
                            resume=True).run(3)
        assert deterministic_fields(resumed) == deterministic_fields(reference)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_late_full_ships_replay_against_their_origin_snapshot(
            self, tmp_path, delta_split, backend):
        # every ship misses the deadline, so every round ships full states
        # coded against its broadcast, and the next round absorbs them; the
        # resume decodes round 0's journaled late ships against the initial
        # snapshot
        late = dict(_LATE, backend=backend, max_workers=2)
        reference_sim = _make_sim(delta_split, **late)
        reference = reference_sim.run(3)
        assert reference.rounds[0].late_clients == [0, 1, 2]
        assert reference.rounds[1].absorbed_clients == {0: 0, 1: 0, 2: 0}
        _make_sim(delta_split, journal_dir=tmp_path / "j", **late).run(1)
        resumed_sim = _make_sim(delta_split, journal_dir=tmp_path / "j",
                                resume=True, **late)
        resumed = resumed_sim.run(3)
        assert deterministic_fields(resumed) == deterministic_fields(reference)
        assert _bits(resumed_sim.server.global_state()) == \
            _bits(reference_sim.server.global_state())

    def test_late_replay_without_its_snapshot_degrades(self, tmp_path, delta_split):
        _make_sim(delta_split, journal_dir=tmp_path / "j", **_LATE).run(1)
        os.unlink(tmp_path / "j" / "snapshots" / "initial.fsza")
        # the resumed run lifts the deadline, so round 1 ships on time and
        # its record says why each client shipped a full state
        resumed = _make_sim(delta_split, journal_dir=tmp_path / "j", resume=True,
                            network=_LATE["network"], max_staleness=1).run(3)
        assert len(resumed.rounds) == 3
        assert resumed.rounds[0].late_clients == [0, 1, 2]
        assert resumed.rounds[1].absorbed_clients == {}
        assert resumed.rounds[1].delta_degrades == {0: "replay-loss", 1: "replay-loss",
                                                    2: "replay-loss"}
        assert resumed.rounds[2].delta_clients == [0, 1, 2]

    def test_missing_sidecars_degrade_to_full_ship(self, tmp_path, delta_split):
        _make_sim(delta_split, journal_dir=tmp_path / "j").run(2)
        for name in os.listdir(tmp_path / "j" / "updates"):
            if name.endswith(".delta"):
                os.unlink(tmp_path / "j" / "updates" / name)
        resumed = _make_sim(delta_split, journal_dir=tmp_path / "j",
                            resume=True).run(3)
        live = resumed.rounds[2]  # first live round after the resume
        assert live.delta_clients == []
        assert set(live.delta_degrades.values()) == {"resume-loss"}

    def test_delta_off_ships_unframed_payloads(self, delta_split):
        sim = _make_sim(delta_split, delta=False)
        assert not any(isinstance(codec, DeltaUpdateCodec)
                       for codec in sim.client_codecs)
        delta_sim = _make_sim(delta_split)
        assert all(isinstance(codec, DeltaUpdateCodec)
                   for codec in delta_sim.client_codecs)
        assert delta_sim.coordinator.codec_name == "delta+fedsz"
