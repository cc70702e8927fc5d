"""Integration tests for clients, codecs, and the federated simulation."""

import numpy as np
import pytest
from nn_reference import held_arrays

from repro.core import FedSZConfig, NetworkModel
from repro.data import make_dataset, train_test_split
from repro.fl import (
    FLClient,
    FederatedSimulation,
    FedSZUpdateCodec,
    RawUpdateCodec,
)
from repro.nn import build_model


def _factory():
    return build_model("simplecnn", num_classes=10, in_channels=3, image_size=16, seed=0)


class TestClient:
    def test_train_local_returns_update(self, tiny_split):
        train, _ = tiny_split
        client = FLClient(0, _factory(), train, batch_size=32, lr=0.1)
        update = client.train_local(epochs=1)
        assert update.client_id == 0
        assert update.num_samples == len(train)
        assert update.train_seconds > 0
        assert np.isfinite(update.train_loss)
        assert set(update.state) == set(_factory().state_dict())

    def test_training_changes_weights(self, tiny_split):
        train, _ = tiny_split
        client = FLClient(0, _factory(), train, lr=0.1)
        before = client.model.state_dict()
        client.train_local(epochs=1)
        after = client.model.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before if "weight" in k)

    def test_receive_global_loads_state(self, tiny_split):
        train, _ = tiny_split
        client = FLClient(0, _factory(), train)
        target = {k: np.zeros_like(v) for k, v in client.model.state_dict().items()}
        client.receive_global(target)
        assert np.allclose(client.model.state_dict()["classifier.1.weight"], 0.0)

    def test_evaluate_returns_accuracy(self, tiny_split):
        train, test = tiny_split
        client = FLClient(0, _factory(), train)
        assert 0.0 <= client.evaluate(test) <= 1.0

    def test_evaluate_restores_entry_mode(self, tiny_split):
        # regression: evaluate used to force train(True) on exit even when
        # the model entered in evaluation mode
        train, test = tiny_split
        client = FLClient(0, _factory(), train)
        client.model.train(False)
        client.evaluate(test)
        assert client.model.training is False

    @pytest.mark.parametrize("name", ["alexnet", "resnet50", "mobilenetv2",
                                      "simplecnn", "mlp"])
    def test_train_local_returns_holding_no_backward_cache(self, tiny_split, name):
        # a replica waits between rounds: its last batch's im2col columns,
        # masks and pooling records must not wait with it (a ragged last
        # batch of 8 here, as on a 40-sample shard)
        train, _ = tiny_split
        model = build_model(name, num_classes=10, in_channels=3, image_size=16, seed=0)
        client = FLClient(0, model, train.subset(np.arange(40)), batch_size=32, lr=0.1)
        client.train_local(epochs=1)
        assert [(type(m).__name__, held_arrays(m)) for m in model.modules()
                if held_arrays(m)] == []

    def test_later_rounds_use_fresh_batch_order(self, tiny_split):
        # regression: every round used to replay the identical shuffle, so the
        # model saw the same batch sequence against an evolving state
        train, _ = tiny_split
        state = _factory().state_dict()
        losses = {}
        for round_index in (0, 1):
            client = FLClient(0, _factory(), train, batch_size=32, lr=0.1, seed=9)
            client.receive_global(state)
            losses[round_index] = client.train_local(
                epochs=1, round_index=round_index).train_loss
        assert losses[0] != losses[1]

    @pytest.mark.parametrize("round_index", [0, 1, 3])
    def test_dropout_masks_ignore_generator_history(self, tiny_split, round_index):
        # alexnet's dropout draws its masks from a generator outside the
        # state dict: a replica that already trained other rounds must train
        # this round exactly like a fresh replica (a resumed run holds a
        # fresh one)
        train, _ = tiny_split
        sub = train.subset(np.arange(64))

        def alexnet():
            # narrow: its two dropout layers are what the test needs
            return build_model("alexnet", num_classes=10, in_channels=3,
                               image_size=16, seed=0, width=8, hidden=64)

        state = alexnet().state_dict()
        used = FLClient(0, alexnet(), sub, batch_size=32, lr=0.1, seed=4)
        for earlier in (5, 6):
            used.receive_global(state)
            used.train_local(epochs=1, round_index=earlier)
        fresh = FLClient(0, alexnet(), sub, batch_size=32, lr=0.1, seed=4)
        trained = {}
        for label, client in (("used", used), ("fresh", fresh)):
            client.receive_global(state)
            trained[label] = client.train_local(epochs=1,
                                                round_index=round_index).state
        for key in state:
            np.testing.assert_array_equal(trained["used"][key], trained["fresh"][key])


class TestCodecs:
    def test_raw_codec_bit_exact(self, small_state):
        codec = RawUpdateCodec()
        recon = codec.decode(codec.encode(small_state))
        for key in small_state:
            np.testing.assert_array_equal(recon[key], small_state[key])

    def test_fedsz_codec_smaller_than_raw(self):
        state = build_model("alexnet").state_dict()
        raw = len(RawUpdateCodec().encode(state))
        fedsz = len(FedSZUpdateCodec(FedSZConfig(error_bound=1e-2)).encode(state))
        assert fedsz < raw / 2

    def test_fedsz_codec_reports_stats(self, small_state):
        codec = FedSZUpdateCodec(FedSZConfig(error_bound=1e-2))
        codec.encode(small_state)
        assert codec.last_report is not None
        assert codec.last_report.ratio > 1.0

    def test_codec_names(self):
        assert RawUpdateCodec().name == "uncompressed"
        assert FedSZUpdateCodec().name == "fedsz"


class TestSimulation:
    def test_rounds_record_expected_fields(self, tiny_split):
        train, test = tiny_split
        sim = FederatedSimulation(_factory, train, test, n_clients=2,
                                  codec=RawUpdateCodec(), lr=0.1, seed=0)
        result = sim.run(2)
        assert len(result.rounds) == 2
        record = result.rounds[0]
        assert 0.0 <= record.accuracy <= 1.0
        assert record.uncompressed_bytes > 0
        assert record.transmitted_bytes > 0
        assert record.communication_seconds > 0
        assert record.mean_train_seconds > 0
        assert len(record.client_losses) == 2

    def test_accuracy_improves_over_rounds(self, tiny_split):
        train, test = tiny_split
        sim = FederatedSimulation(_factory, train, test, n_clients=2,
                                  codec=RawUpdateCodec(), lr=0.15, seed=1)
        result = sim.run(6)
        assert result.final_accuracy > result.accuracies[0]
        assert result.final_accuracy > 0.3

    def test_fedsz_matches_uncompressed_accuracy_at_1e2(self, tiny_split):
        # the central claim of the paper in miniature: FedSZ at REL 1e-2 tracks
        # the uncompressed accuracy closely
        train, test = tiny_split
        raw = FederatedSimulation(_factory, train, test, n_clients=2,
                                  codec=RawUpdateCodec(), lr=0.15, seed=2).run(5)
        fedsz = FederatedSimulation(_factory, train, test, n_clients=2,
                                    codec=FedSZUpdateCodec(FedSZConfig(error_bound=1e-2)),
                                    lr=0.15, seed=2).run(5)
        assert abs(fedsz.final_accuracy - raw.final_accuracy) < 0.15
        assert fedsz.total_transmitted_bytes < raw.total_transmitted_bytes

    def test_huge_error_bound_destroys_accuracy(self, tiny_split):
        # Figure 5: beyond REL 1e-1 the model collapses
        train, test = tiny_split
        raw = FederatedSimulation(_factory, train, test, n_clients=2,
                                  codec=RawUpdateCodec(), lr=0.15, seed=3).run(5)
        crushed = FederatedSimulation(_factory, train, test, n_clients=2,
                                      codec=FedSZUpdateCodec(FedSZConfig(error_bound=0.9)),
                                      lr=0.15, seed=3).run(5)
        assert crushed.final_accuracy < raw.final_accuracy

    def test_compression_ratio_reported(self, tiny_split):
        train, test = tiny_split
        sim = FederatedSimulation(_factory, train, test, n_clients=2,
                                  codec=FedSZUpdateCodec(FedSZConfig(error_bound=1e-2)),
                                  lr=0.1, seed=0)
        result = sim.run(1)
        assert result.mean_compression_ratio > 1.5
        assert result.rounds[0].compression_ratio > 1.5

    def test_communication_time_scales_with_bandwidth(self, tiny_split):
        train, test = tiny_split
        slow = FederatedSimulation(_factory, train, test, n_clients=2, codec=RawUpdateCodec(),
                                   network=NetworkModel(bandwidth_mbps=10), seed=0).run(1)
        fast = FederatedSimulation(_factory, train, test, n_clients=2, codec=RawUpdateCodec(),
                                   network=NetworkModel(bandwidth_mbps=1000), seed=0).run(1)
        assert slow.total_communication_seconds > fast.total_communication_seconds * 10

    def test_dirichlet_partitioning_supported(self, tiny_split):
        train, test = tiny_split
        sim = FederatedSimulation(_factory, train, test, n_clients=3, codec=RawUpdateCodec(),
                                  partition_scheme="dirichlet", dirichlet_alpha=0.5, seed=0)
        assert len(sim.clients) == 3
        assert sum(c.num_samples for c in sim.clients) == len(train)

    def test_empty_result_properties(self):
        from repro.fl.simulation import SimulationResult
        result = SimulationResult(codec_name="x")
        assert result.final_accuracy == 0.0
        assert result.mean_compression_ratio == 1.0
        assert result.total_transmitted_bytes == 0
