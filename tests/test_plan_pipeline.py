"""Plan-driven per-tensor compression: policies, v4 wire format, parallelism.

Covers the format-4 pipeline refactor end to end:

* :class:`TensorPlan` / :class:`CompressionPlan` validation and the manifest
  plan-summary wire form (roundtrip, truncation at every byte, field fuzz),
* the policy registry (``uniform`` / ``size-adaptive`` / ``mixed-codec``,
  per-name overrides, third-party registration),
* hypothesis roundtrip properties for mixed-codec plans over every codec
  pair x dtype x bound mode, with the error bound verified per tensor,
* bit-identical bitstreams and reconstructions at ``pipeline_workers`` 1 vs 4,
* manifest truncation + bit-flip fuzz for the v4 bitstream,
* base lossy-payload header validation (truncation at every byte, unknown
  dtype codes, absurd ndim, non-finite bounds) for every registered codec,
* per-client ``FedSZReport`` collection in ``FederatedSimulation.run_round``.
"""

import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.base import ErrorBoundMode
from repro.compressors.registry import available_lossy, get_lossy
from repro.core import (
    AdaptiveBoundPolicy,
    CompressionPlan,
    FedSZCompressor,
    FedSZConfig,
    MixedCodecPolicy,
    SizeAdaptivePolicy,
    TensorPlan,
    UniformPolicy,
    available_policies,
    get_policy,
    register_policy,
)
from repro.core.partition import partition_state_dict
from repro.core.plan import pack_plan, unpack_plan
from repro.data import make_dataset, train_test_split
from repro.fl import FederatedSimulation, FedSZUpdateCodec, RawUpdateCodec
from repro.nn import build_model
from repro.utils.serialization import pack_bytes_dict, unpack_bytes_dict

CODECS = ("sz2", "sz3", "szx", "zfp")


# ---------------------------------------------------------------------------
# TensorPlan / CompressionPlan
# ---------------------------------------------------------------------------

class TestTensorPlan:
    def test_defaults_and_mode_normalization(self):
        plan = TensorPlan("w", "sz2", 1e-2, "abs")
        assert plan.mode is ErrorBoundMode.ABS
        assert plan.options == {}

    @pytest.mark.parametrize("kwargs", [
        dict(name="", codec="sz2", error_bound=1e-2),
        dict(name="w", codec="", error_bound=1e-2),
        dict(name="w", codec="sz2", error_bound=0.0),
        dict(name="w", codec="sz2", error_bound=-1e-3),
        dict(name="w", codec="sz2", error_bound=float("nan")),
        dict(name="w", codec="sz2", error_bound=float("inf")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TensorPlan(**kwargs)

    def test_evolve_revalidates(self):
        plan = TensorPlan("w", "sz2", 1e-2)
        assert plan.evolve(codec="szx").codec == "szx"
        with pytest.raises(ValueError):
            plan.evolve(error_bound=-1.0)

    def test_plan_key_must_match_entry_name(self):
        with pytest.raises(ValueError, match="keyed"):
            CompressionPlan({"other": TensorPlan("w", "sz2", 1e-2)})

    def test_plan_accessors(self):
        plan = CompressionPlan({
            "a": TensorPlan("a", "szx", 1e-2),
            "b": TensorPlan("b", "sz2", 1e-3),
        })
        assert plan.tensor_names == ["a", "b"]
        assert plan.codecs == ["sz2", "szx"]
        assert plan.bounds() == {"a": 1e-2, "b": 1e-3}
        assert "a" in plan and "z" not in plan
        assert len(plan) == 2


class TestPlanWireFormat:
    def _sample_plan(self):
        return CompressionPlan({
            "conv.weight": TensorPlan("conv.weight", "sz2", 1e-2, ErrorBoundMode.REL),
            "tête.weight": TensorPlan("tête.weight", "szx", 5e-4, ErrorBoundMode.ABS,
                                      {"block_size": 64}),
        })

    def test_roundtrip(self):
        plan = self._sample_plan()
        buf = pack_plan(plan)
        parsed, offset = unpack_plan(buf)
        assert offset == len(buf)
        assert parsed == plan
        assert parsed["tête.weight"].options == {"block_size": 64}

    def test_empty_plan_roundtrip(self):
        buf = pack_plan(CompressionPlan())
        parsed, offset = unpack_plan(buf)
        assert len(parsed) == 0 and offset == len(buf) == 4

    def test_truncation_at_every_byte_raises_valueerror(self):
        buf = pack_plan(self._sample_plan())
        for cut in range(len(buf)):
            with pytest.raises(ValueError):
                unpack_plan(buf[:cut])

    def test_unknown_mode_code_rejected(self):
        plan = CompressionPlan({"w": TensorPlan("w", "sz2", 1e-2)})
        buf = bytearray(pack_plan(plan))
        # mode byte sits after count(4) + name len(2)+1 + codec len(1)+3 + bound(8)
        mode_at = 4 + 2 + 1 + 1 + 3 + 8
        assert buf[mode_at] == 1  # REL
        buf[mode_at] = 7
        with pytest.raises(ValueError, match="mode"):
            unpack_plan(bytes(buf))

    def test_duplicate_entry_rejected(self):
        plan = CompressionPlan({"w": TensorPlan("w", "sz2", 1e-2)})
        one = pack_plan(plan)[4:]
        buf = struct.pack("<I", 2) + one + one
        with pytest.raises(ValueError, match="duplicate"):
            unpack_plan(buf)

    def test_non_object_options_rejected(self):
        options = b"[1,2]"
        entry = (struct.pack("<H", 1) + b"w" + struct.pack("<B", 3) + b"sz2"
                 + struct.pack("<dB", 1e-2, 1)
                 + struct.pack("<H", len(options)) + options)
        with pytest.raises(ValueError, match="JSON object"):
            unpack_plan(struct.pack("<I", 1) + entry)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class TestPolicyRegistry:
    def test_builtins_registered(self):
        assert {"uniform", "size-adaptive", "mixed-codec"} <= set(available_policies())

    def test_unknown_policy_raises_valueerror(self):
        with pytest.raises(ValueError, match="unknown plan policy"):
            get_policy("round-robin")

    def test_register_and_overwrite_rules(self):
        class _Custom(UniformPolicy):
            name = "custom-test-policy"

        register_policy("custom-test-policy", _Custom)
        try:
            assert isinstance(get_policy("custom-test-policy"), _Custom)
            with pytest.raises(ValueError, match="already registered"):
                register_policy("custom-test-policy", _Custom)
            register_policy("custom-test-policy", _Custom, overwrite=True)
        finally:
            from repro.core.plan import _POLICIES
            _POLICIES.pop("custom-test-policy", None)

    def test_override_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown plan fields"):
            UniformPolicy(overrides={"w": {"codex": "sz3"}})

    def test_override_unknown_codec_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown lossy compressor"):
            UniformPolicy(overrides={"w": {"codec": "fpzip"}})

    def test_override_naming_absent_tensor_rejected(self):
        # a typo'd override name must not silently ship the tensor on the
        # default plan
        policy = UniformPolicy(overrides={"clasifier.weight": {"error_bound": 1e-5}})
        tensors = {"classifier.weight": np.zeros(64, dtype=np.float32)}
        with pytest.raises(ValueError, match="absent from the lossy partition"):
            policy.build_plan(tensors, FedSZConfig())

    def test_non_json_options_rejected_at_plan_construction(self):
        with pytest.raises(ValueError, match="JSON-serializable"):
            TensorPlan("w", "sz2", 1e-2, options={"cutoff": np.int64(5)})


class TestPolicies:
    def _tensors(self):
        rng = np.random.default_rng(3)
        return {
            "small.weight": rng.normal(size=128).astype(np.float32),
            "large.weight": rng.normal(size=4096).astype(np.float32),
        }

    def test_uniform_matches_config(self):
        config = FedSZConfig(lossy_compressor="sz3", error_bound=2e-3,
                             error_mode=ErrorBoundMode.ABS)
        plan = UniformPolicy().build_plan(self._tensors(), config)
        for entry in plan:
            assert entry.codec == "sz3"
            assert entry.error_bound == pytest.approx(2e-3)
            assert entry.mode is ErrorBoundMode.ABS

    def test_size_adaptive_matches_adaptive_bound_policy(self):
        tensors = self._tensors()
        config = FedSZConfig(error_bound=1e-1)
        plan = SizeAdaptivePolicy(min_bound=1e-3).build_plan(tensors, config)
        expected = AdaptiveBoundPolicy(base_bound=1e-1, min_bound=1e-3).bounds_for(tensors)
        assert plan.bounds() == expected
        assert plan["small.weight"].error_bound < plan["large.weight"].error_bound

    def test_mixed_codec_cutoff(self):
        config = FedSZConfig(lossy_compressor="sz2")
        plan = MixedCodecPolicy(small_codec="szx", size_cutoff=1024) \
            .build_plan(self._tensors(), config)
        assert plan["small.weight"].codec == "szx"
        assert plan["large.weight"].codec == "sz2"

    def test_mixed_codec_tier_bounds(self):
        config = FedSZConfig(error_bound=1e-2)
        plan = MixedCodecPolicy(size_cutoff=1024, small_bound=1e-3) \
            .build_plan(self._tensors(), config)
        assert plan["small.weight"].error_bound == pytest.approx(1e-3)
        assert plan["large.weight"].error_bound == pytest.approx(1e-2)

    def test_policy_numeric_knobs_validated_at_construction(self):
        with pytest.raises(ValueError, match="small_bound"):
            MixedCodecPolicy(small_bound=-1.0)
        with pytest.raises(ValueError, match="large_bound"):
            MixedCodecPolicy(large_bound=float("nan"))
        with pytest.raises(ValueError, match="min_bound"):
            SizeAdaptivePolicy(min_bound=0.0)

    def test_non_ascii_codec_name_is_valueerror(self):
        plan = CompressionPlan({"w": TensorPlan("w", "codéc", 1e-2)})
        with pytest.raises(ValueError, match="ASCII"):
            pack_plan(plan)

    def test_mixed_codec_unknown_tier_codec_rejected_at_construction(self):
        # a typo must fail when the policy is built, not midway through a
        # compress (or silently, when no tensor falls below the cutoff)
        with pytest.raises(ValueError, match="unknown lossy compressor"):
            MixedCodecPolicy(small_codec="nope")
        with pytest.raises(ValueError, match="unknown lossy compressor"):
            MixedCodecPolicy(large_codec="nope")
        with pytest.raises(ValueError, match="unknown lossy compressor"):
            FedSZCompressor(FedSZConfig(policy="mixed-codec",
                                        policy_options={"small_codec": "nope"}))

    def test_per_name_overrides_apply_on_every_policy(self):
        overrides = {"large.weight": {"codec": "zfp", "error_bound": 7e-3}}
        config = FedSZConfig()
        for policy in (UniformPolicy(overrides=overrides),
                       SizeAdaptivePolicy(overrides=overrides),
                       MixedCodecPolicy(overrides=overrides)):
            plan = policy.build_plan(self._tensors(), config)
            assert plan["large.weight"].codec == "zfp"
            assert plan["large.weight"].error_bound == pytest.approx(7e-3)
            assert plan["small.weight"].codec != "zfp"


# ---------------------------------------------------------------------------
# Mixed-codec roundtrips (the acceptance-criteria scenario + hypothesis)
# ---------------------------------------------------------------------------

def _abs_tolerance(entry: TensorPlan, original: np.ndarray) -> float:
    """The absolute per-element tolerance a plan entry promises for a tensor."""
    if entry.mode is ErrorBoundMode.ABS:
        return entry.error_bound
    original = original.astype(np.float64)
    return entry.error_bound * float(original.max() - original.min())


def _assert_bounds_hold(plan: CompressionPlan, state: dict, recon: dict) -> None:
    for entry in plan:
        original = state[entry.name].astype(np.float64)
        err = float(np.max(np.abs(recon[entry.name].astype(np.float64) - original)))
        tol = _abs_tolerance(entry, state[entry.name])
        assert err <= tol * (1 + 1e-6) + 1e-9, \
            f"{entry.name} ({entry.codec}): error {err} above bound {tol}"


class TestMixedCodecRoundtrip:
    def test_szx_small_sz2_large_one_bitstream(self):
        """The ISSUE acceptance scenario: SZx small + SZ2 large in one v4 stream."""
        rng = np.random.default_rng(11)
        state = {
            "head.weight": rng.normal(0, 0.1, size=512).astype(np.float32),
            "body.weight": rng.normal(0, 0.1, size=(64, 512)).astype(np.float32),
            "head.bias": rng.normal(size=8).astype(np.float32),
        }
        config = FedSZConfig(lossy_compressor="sz2", error_bound=1e-2, threshold=64,
                             policy="mixed-codec",
                             policy_options={"small_codec": "szx", "size_cutoff": 1024})
        fedsz = FedSZCompressor(config)
        payload, report = fedsz.compress_with_report(state)
        assert fedsz.last_plan["head.weight"].codec == "szx"
        assert fedsz.last_plan["body.weight"].codec == "sz2"
        assert report.ratio > 1.0

        # a *fresh* decoder with default config needs no out-of-band state
        fresh = FedSZCompressor()
        recon = fresh.decompress_state_dict(payload)
        assert set(recon) == set(state)
        np.testing.assert_array_equal(recon["head.bias"], state["head.bias"])
        _assert_bounds_hold(fedsz.last_plan, state, recon)

    def test_codec_tag_disagreeing_with_plan_rejected(self):
        rng = np.random.default_rng(5)
        state = {"w.weight": rng.normal(size=256).astype(np.float32)}
        fedsz = FedSZCompressor(FedSZConfig(threshold=16))
        stream = fedsz.compress_state_dict(state)
        entries = unpack_bytes_dict(stream)
        payload = bytearray(entries["lossy::w.weight"])
        # retag the payload as szx while the manifest plan says sz2
        assert payload[1:4] == b"sz2"
        payload[1:4] = b"szx"
        entries["lossy::w.weight"] = bytes(payload)
        with pytest.raises(ValueError, match="tagged"):
            fedsz.decompress_state_dict(pack_bytes_dict(entries))

    def test_unknown_codec_tag_rejected(self):
        rng = np.random.default_rng(5)
        state = {"w.weight": rng.normal(size=256).astype(np.float32)}
        fedsz = FedSZCompressor(FedSZConfig(threshold=16))
        stream = fedsz.compress_state_dict(state)
        entries = unpack_bytes_dict(stream)
        # rewrite both the plan and the payload tag to a codec that is not
        # registered: self-consistent stream, unsupported codec
        manifest = bytearray(entries["__manifest__"])
        manifest = manifest.replace(b"sz2", b"xy9")
        entries["__manifest__"] = bytes(manifest)
        entries["lossy::w.weight"] = entries["lossy::w.weight"].replace(b"sz2", b"xy9", 1)
        with pytest.raises(ValueError, match="unknown codec"):
            fedsz.decompress_state_dict(pack_bytes_dict(entries))


@pytest.mark.parametrize("small_codec", CODECS)
@pytest.mark.parametrize("large_codec", CODECS)
class TestMixedCodecPairProperties:
    """Every codec pair, with hypothesis driving dtype, bound mode, and data."""

    @given(dtype=st.sampled_from([np.float32, np.float64]),
           mode=st.sampled_from([ErrorBoundMode.ABS, ErrorBoundMode.REL]),
           seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=4, deadline=None)
    def test_pair_roundtrips_with_per_tensor_bounds(self, small_codec, large_codec,
                                                    dtype, mode, seed):
        rng = np.random.default_rng(seed)
        state = {
            "tiny.weight": (rng.normal(0, 0.2, size=96) + rng.normal()).astype(dtype),
            "big.weight": rng.normal(0, 0.2, size=(24, 64)).astype(dtype),
            "norm.bias": rng.normal(size=6).astype(dtype),
        }
        bound = 5e-3 if mode is ErrorBoundMode.ABS else 1e-2
        config = FedSZConfig(lossy_compressor=large_codec, error_bound=bound,
                             error_mode=mode, threshold=64, policy="mixed-codec",
                             policy_options={"small_codec": small_codec,
                                             "size_cutoff": 512})
        fedsz = FedSZCompressor(config)
        payload, _ = fedsz.compress_with_report(state)
        plan = fedsz.last_plan
        assert plan["tiny.weight"].codec == small_codec
        assert plan["big.weight"].codec == large_codec

        recon = FedSZCompressor().decompress_state_dict(payload)
        assert set(recon) == set(state)
        for key in state:
            assert recon[key].dtype == state[key].dtype
            assert recon[key].shape == state[key].shape
        np.testing.assert_array_equal(recon["norm.bias"], state["norm.bias"])
        _assert_bounds_hold(plan, state, recon)


# ---------------------------------------------------------------------------
# Parallel pipeline determinism
# ---------------------------------------------------------------------------

class TestPipelineWorkers:
    @pytest.fixture(autouse=True)
    def _force_threaded_path(self, monkeypatch):
        """Exercise the real thread pool even on single-core test hosts (the
        pipeline clamps its fan-out to the cores actually available)."""
        import repro.core.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module.os, "cpu_count", lambda: 8)

    @pytest.mark.parametrize("policy", ["uniform", "mixed-codec"])
    def test_workers_bit_identical(self, small_state, policy):
        sequential = FedSZCompressor(FedSZConfig(policy=policy, pipeline_workers=1))
        threaded = FedSZCompressor(FedSZConfig(policy=policy, pipeline_workers=4))
        assert threaded._pipeline_workers() == 4
        payload = sequential.compress_state_dict(small_state)
        assert payload == threaded.compress_state_dict(small_state)
        recon_seq = sequential.decompress_state_dict(payload)
        recon_par = threaded.decompress_state_dict(payload)
        assert list(recon_seq) == list(recon_par)
        for key in recon_seq:
            np.testing.assert_array_equal(recon_seq[key], recon_par[key])

    def test_workers_clamped_to_host_cores(self, monkeypatch):
        import repro.core.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module.os, "cpu_count", lambda: 2)
        fedsz = FedSZCompressor(FedSZConfig(pipeline_workers=16))
        assert fedsz._pipeline_workers() == 2

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            FedSZConfig(pipeline_workers=0)

    def test_policy_reordering_or_dropping_tensors_fails_at_compress(self, small_state):
        class _Misbehaving(UniformPolicy):
            def build_plan(self, tensors, config, delta=False):
                plan = super().build_plan(tensors, config, delta=delta)
                entries = OrderedDict(sorted(plan.entries.items(), reverse=True))
                return CompressionPlan(entries)

        fedsz = FedSZCompressor(FedSZConfig(threshold=64), policy=_Misbehaving())
        with pytest.raises(ValueError, match="partition order"):
            fedsz.compress_state_dict(small_state)

    def test_per_call_reports_are_fresh_objects(self, small_state):
        fedsz = FedSZCompressor(FedSZConfig(threshold=256))
        _, first = fedsz.compress_with_report(small_state)
        _, second = fedsz.compress_with_report(small_state)
        assert first is not second
        assert second.compressed_bytes == first.compressed_bytes
        assert fedsz.last_report is second


# ---------------------------------------------------------------------------
# v4 manifest fuzz
# ---------------------------------------------------------------------------

@pytest.fixture
def v4_stream():
    rng = np.random.default_rng(23)
    state = {
        "conv.weight": rng.normal(size=(8, 16)).astype(np.float32),
        "conv.bias": rng.normal(size=8).astype(np.float32),
    }
    fedsz = FedSZCompressor(FedSZConfig(threshold=16, policy="mixed-codec",
                                        policy_options={"size_cutoff": 4096}))
    stream = fedsz.compress_state_dict(state)
    return fedsz, state, stream


class TestV4ManifestFuzz:
    def test_manifest_truncation_at_every_byte(self, v4_stream):
        fedsz, _, stream = v4_stream
        entries = unpack_bytes_dict(stream)
        manifest = entries["__manifest__"]
        for cut in range(len(manifest)):
            mutated = dict(entries)
            mutated["__manifest__"] = manifest[:cut]
            with pytest.raises(ValueError):
                fedsz.decompress_state_dict(pack_bytes_dict(mutated))

    def test_manifest_bit_flips_never_corrupt_silently(self, v4_stream):
        """Any manifest bit flip either raises ValueError or leaves the decode
        identical (flips confined to advisory plan metadata the payloads
        already self-describe)."""
        fedsz, state, stream = v4_stream
        clean = fedsz.decompress_state_dict(stream)
        entries = unpack_bytes_dict(stream)
        manifest = entries["__manifest__"]
        for i in range(len(manifest)):
            for bit in (0x01, 0x80):
                mutated = bytearray(manifest)
                mutated[i] ^= bit
                candidate = dict(entries)
                candidate["__manifest__"] = bytes(mutated)
                try:
                    recon = fedsz.decompress_state_dict(pack_bytes_dict(candidate))
                except ValueError:
                    continue
                assert set(recon) == set(clean)
                for key in clean:
                    np.testing.assert_array_equal(recon[key], clean[key])

    def test_plan_trailing_garbage_rejected(self, v4_stream):
        fedsz, _, stream = v4_stream
        entries = unpack_bytes_dict(stream)
        entries["__manifest__"] += b"\x00"
        with pytest.raises(ValueError, match="trailing"):
            fedsz.decompress_state_dict(pack_bytes_dict(entries))

    def test_plan_payload_name_mismatch_rejected(self, v4_stream):
        fedsz, _, stream = v4_stream
        entries = unpack_bytes_dict(stream)
        payload = entries.pop("lossy::conv.weight")
        entries["lossy::conv.wEight"] = payload
        with pytest.raises(ValueError):
            fedsz.decompress_state_dict(pack_bytes_dict(entries))


# ---------------------------------------------------------------------------
# Base lossy-payload header validation (every registered codec)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("codec", CODECS)
class TestLossyPayloadHeaderValidation:
    def _payload(self, codec):
        rng = np.random.default_rng(29)
        comp = get_lossy(codec, error_bound=1e-2)
        return comp, comp.compress(rng.normal(size=(5, 11)).astype(np.float32))

    def test_truncation_at_every_byte_raises_valueerror(self, codec):
        comp, payload = self._payload(codec)
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                comp.decompress(payload[:cut])

    def test_unknown_dtype_code_rejected(self, codec):
        comp, payload = self._payload(codec)
        with pytest.raises(ValueError, match="dtype code"):
            comp.decompress(b"\x07" + payload[1:])

    def test_absurd_ndim_rejected(self, codec):
        comp, payload = self._payload(codec)
        with pytest.raises(ValueError, match="ndim"):
            comp.decompress(payload[:1] + b"\xff" + payload[2:])

    def test_non_finite_bound_rejected(self, codec):
        comp, payload = self._payload(codec)
        mutated = bytearray(payload)
        bound_at = 2 + 8 * 2  # dtype + ndim + two u64 shape fields
        mutated[bound_at:bound_at + 8] = struct.pack("<d", float("nan"))
        with pytest.raises(ValueError, match="bound"):
            comp.decompress(bytes(mutated))

    def test_implausible_element_count_rejected(self, codec):
        comp, payload = self._payload(codec)
        mutated = bytearray(payload)
        mutated[2:18] = struct.pack("<QQ", 2 ** 40, 2 ** 40)
        with pytest.raises(ValueError, match="implausible"):
            comp.decompress(bytes(mutated))


# ---------------------------------------------------------------------------
# Per-client reports in the round engine
# ---------------------------------------------------------------------------

class TestRoundEngineClientReports:
    def _simulation(self, codec, workers=1, n_clients=3):
        dataset = make_dataset("cifar10", n_samples=120, image_size=8, seed=2)
        train, test = train_test_split(dataset, test_fraction=0.25, seed=3)

        def factory():
            return build_model("mlp", num_classes=10, image_size=8, seed=0)

        return FederatedSimulation(factory, train, test, n_clients=n_clients,
                                   codec=codec, seed=4, max_workers=workers)

    def test_fedsz_reports_cover_every_participant(self):
        sim = self._simulation(FedSZUpdateCodec(FedSZConfig(error_bound=1e-2)))
        record = sim.run_round(0)
        assert sorted(record.client_reports) == record.participants
        for report in record.client_reports.values():
            assert report.compressed_bytes > 0
            assert report.ratio > 1.0
            assert report.compress_seconds > 0

    def test_parallel_round_reports_are_per_client(self):
        """The old single-slot footgun: at 4 workers every client still gets
        its own accurate report."""
        sim = self._simulation(FedSZUpdateCodec(FedSZConfig(error_bound=1e-2)),
                               workers=4)
        record = sim.run_round(0)
        assert sorted(record.client_reports) == record.participants
        sizes = {cid: r.compressed_bytes for cid, r in record.client_reports.items()}
        assert record.transmitted_bytes == sum(sizes.values())

    def test_uncompressed_codec_collects_no_reports(self):
        record = self._simulation(RawUpdateCodec()).run_round(0)
        assert record.client_reports == {}


# ---------------------------------------------------------------------------
# Size-adaptive bounds are plan-driven
# ---------------------------------------------------------------------------

class TestAdaptiveIsPlanDriven:
    def test_adaptive_bounds_unchanged_from_policy_math(self, small_state):
        config = FedSZConfig(error_bound=1e-1, threshold=64)
        adaptive = FedSZCompressor(config, policy=SizeAdaptivePolicy(base_bound=1e-1))
        adaptive.compress_state_dict(small_state)
        lossy = partition_state_dict(small_state, config).lossy
        expected = AdaptiveBoundPolicy(base_bound=1e-1).bounds_for(dict(lossy))
        assert adaptive.last_plan.bounds() == expected
