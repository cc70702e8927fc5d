"""Tests for the extension features: DP codec, parallel training."""

import numpy as np
import pytest

from repro.core import FedSZConfig
from repro.data import partition_dataset
from repro.fl import FLClient, fedavg_aggregate, map_parallel, train_clients_parallel
from repro.nn import build_model
from repro.privacy import DPFedSZConfig, DPFedSZUpdateCodec


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
