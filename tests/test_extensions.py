"""Tests for the extension features: parallel training."""

import numpy as np
import pytest

from repro.data import partition_dataset
from repro.fl import FLClient, fedavg_aggregate, map_parallel, train_clients_parallel
from repro.nn import build_model


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
