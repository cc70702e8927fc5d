"""Tests for the extension features: adaptive bounds, DP codec, parallel training."""

import numpy as np
import pytest

from repro.core import (
    AdaptiveBoundPolicy,
    FedSZCompressor,
    FedSZConfig,
    SizeAdaptivePolicy,
)
from repro.data import partition_dataset
from repro.fl import FLClient, fedavg_aggregate, map_parallel, train_clients_parallel
from repro.nn import build_model
from repro.privacy import DPFedSZConfig, DPFedSZUpdateCodec


class TestAdaptiveBoundPolicy:
    def test_largest_tensor_keeps_base_bound(self):
        policy = AdaptiveBoundPolicy(base_bound=1e-2, min_bound=1e-4)
        tensors = {"big.weight": np.zeros(100_000, dtype=np.float32),
                   "small.weight": np.zeros(2_000, dtype=np.float32)}
        bounds = policy.bounds_for(tensors)
        assert bounds["big.weight"] == pytest.approx(1e-2)
        assert bounds["small.weight"] < 1e-2

    def test_bounds_clamped_to_min(self):
        policy = AdaptiveBoundPolicy(base_bound=1e-2, min_bound=5e-3, size_exponent=5.0)
        tensors = {"big.weight": np.zeros(10_000), "tiny.weight": np.zeros(8)}
        bounds = policy.bounds_for(tensors)
        assert bounds["tiny.weight"] == pytest.approx(5e-3)

    def test_zero_exponent_disables_adaptation(self):
        policy = AdaptiveBoundPolicy(base_bound=1e-2, size_exponent=0.0)
        tensors = {"a.weight": np.zeros(10), "b.weight": np.zeros(10_000)}
        bounds = list(policy.bounds_for(tensors).values())
        assert all(b == pytest.approx(1e-2) for b in bounds)

    def test_empty_input(self):
        assert AdaptiveBoundPolicy().bounds_for({}) == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBoundPolicy(base_bound=1e-3, min_bound=1e-2)
        with pytest.raises(ValueError):
            AdaptiveBoundPolicy(size_exponent=-1)


class TestSizeAdaptiveFedSZCompressor:
    def test_roundtrip_and_error_tighter_on_small_tensors(self, small_state):
        config = FedSZConfig(error_bound=1e-1, threshold=64)
        adaptive = FedSZCompressor(config, policy=SizeAdaptivePolicy(base_bound=1e-1,
                                                                     min_bound=1e-3))
        payload = adaptive.compress_state_dict(small_state)
        recon = adaptive.decompress_state_dict(payload)
        assert set(recon) == set(small_state)
        bounds = adaptive.last_plan.bounds()
        assert bounds, "policy bounds were not recorded"

        partition = adaptive.partition(small_state)
        sizes = {k: v.size for k, v in partition.lossy.items()}
        largest = max(sizes, key=sizes.get)
        smallest = min(sizes, key=sizes.get)
        if largest != smallest:
            assert bounds[smallest] <= bounds[largest]
            # the smaller tensor is reconstructed proportionally more accurately
            for name, bound in bounds.items():
                original = small_state[name].astype(np.float64)
                rng_val = float(original.max() - original.min()) or 1.0
                err = float(np.max(np.abs(recon[name].astype(np.float64) - original)))
                assert err <= bound * rng_val * (1 + 1e-6) + 1e-9

    def test_adaptive_payload_at_least_as_accurate_as_uniform(self, small_state):
        config = FedSZConfig(error_bound=1e-1, threshold=64)
        uniform = FedSZCompressor(config)
        adaptive = FedSZCompressor(config, policy=SizeAdaptivePolicy(base_bound=1e-1))
        uniform_recon, _ = uniform.roundtrip(small_state)
        adaptive_recon = adaptive.decompress_state_dict(adaptive.compress_state_dict(small_state))

        def total_error(recon):
            return sum(float(np.abs(recon[k].astype(np.float64) - small_state[k].astype(np.float64)).sum())
                       for k in small_state)

        assert total_error(adaptive_recon) <= total_error(uniform_recon) * 1.01


class TestDPFedSZCodec:
    def test_roundtrip_structure(self, small_state):
        codec = DPFedSZUpdateCodec(FedSZConfig(error_bound=1e-2),
                                   DPFedSZConfig(epsilon=1.0, clip_norm=1.0, seed=0))
        recon = codec.decode(codec.encode(small_state))
        assert set(recon) == set(small_state)
        for key in small_state:
            assert recon[key].shape == small_state[key].shape

    def test_noise_scale_matches_mechanism(self):
        codec = DPFedSZUpdateCodec(dp_config=DPFedSZConfig(epsilon=0.5, clip_norm=2.0))
        assert codec.noise_scale == pytest.approx(2 * 2.0 / 0.5)

    def test_smaller_epsilon_means_more_noise(self, small_state):
        def perturbation(epsilon):
            codec = DPFedSZUpdateCodec(FedSZConfig(error_bound=1e-3),
                                       DPFedSZConfig(epsilon=epsilon, clip_norm=1.0, seed=1))
            recon = codec.decode(codec.encode(small_state))
            return sum(float(np.abs(recon[k].astype(np.float64) - small_state[k].astype(np.float64)).mean())
                       for k in small_state if "weight" in k)

        assert perturbation(0.1) > perturbation(10.0)

    def test_metadata_left_untouched(self, small_state):
        codec = DPFedSZUpdateCodec(FedSZConfig(error_bound=1e-2),
                                   DPFedSZConfig(epsilon=1.0, seed=2))
        recon = codec.decode(codec.encode(small_state))
        # biases are in the lossless partition: no noise, bit-exact
        for key in small_state:
            if "bias" in key:
                np.testing.assert_array_equal(recon[key], small_state[key])

    def test_compression_still_effective(self, small_state):
        codec = DPFedSZUpdateCodec(FedSZConfig(error_bound=1e-2),
                                   DPFedSZConfig(epsilon=1.0, seed=3))
        payload = codec.encode(small_state)
        original = sum(v.nbytes for v in small_state.values())
        assert len(payload) < original
        assert codec.last_report is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DPFedSZConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            DPFedSZConfig(clip_norm=-1.0)


class TestParallelTraining:
    def test_map_parallel_preserves_order(self):
        assert map_parallel(lambda x: x * x, [1, 2, 3, 4], max_workers=3) == [1, 4, 9, 16]

    def test_map_parallel_empty_and_validation(self):
        assert map_parallel(lambda x: x, []) == []
        with pytest.raises(ValueError):
            map_parallel(lambda x: x, [1], max_workers=0)

    def test_parallel_matches_sequential_aggregate(self, tiny_dataset):
        shards = partition_dataset(tiny_dataset, 3, seed=0)

        def make_clients():
            return [FLClient(i, build_model("simplecnn", num_classes=10, image_size=16, seed=0),
                             shard, lr=0.1, seed=i) for i, shard in enumerate(shards)]

        reference_state = build_model("simplecnn", num_classes=10, image_size=16, seed=0).state_dict()

        sequential = train_clients_parallel(make_clients(), reference_state, epochs=1, max_workers=1)
        parallel = train_clients_parallel(make_clients(), reference_state, epochs=1, max_workers=3)

        agg_seq = fedavg_aggregate([u.state for u in sequential], [u.num_samples for u in sequential])
        agg_par = fedavg_aggregate([u.state for u in parallel], [u.num_samples for u in parallel])
        for key in agg_seq:
            np.testing.assert_allclose(agg_seq[key], agg_par[key], atol=1e-5)

    def test_updates_carry_client_ids(self, tiny_dataset):
        shards = partition_dataset(tiny_dataset, 2, seed=1)
        clients = [FLClient(i, build_model("mlp", num_classes=10, image_size=16, seed=0),
                            shard, lr=0.05, seed=i) for i, shard in enumerate(shards)]
        state = clients[0].model.state_dict()
        updates = train_clients_parallel(clients, state, epochs=1, max_workers=2)
        assert [u.client_id for u in updates] == [0, 1]
        assert all(u.train_seconds > 0 for u in updates)
