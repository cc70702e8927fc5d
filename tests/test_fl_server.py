"""Tests for FedAvg aggregation and server behaviour."""

import tracemalloc

import numpy as np
import pytest

from repro.data import make_dataset
from repro.fl import FedAvgServer, evaluate_model, fedavg_aggregate
from repro.nn import build_model


def _states(values):
    return [{"layer.weight": np.full((2, 2), v, dtype=np.float32),
             "layer.bias": np.full(2, v, dtype=np.float32)} for v in values]


class TestFedAvgAggregate:
    def test_uniform_average(self):
        out = fedavg_aggregate(_states([1.0, 3.0]))
        np.testing.assert_allclose(out["layer.weight"], 2.0)

    def test_weighted_average_by_samples(self):
        out = fedavg_aggregate(_states([0.0, 4.0]), weights=[3, 1])
        np.testing.assert_allclose(out["layer.weight"], 1.0)

    def test_single_client_identity(self):
        state = _states([7.0])[0]
        out = fedavg_aggregate([state])
        np.testing.assert_allclose(out["layer.weight"], state["layer.weight"])

    def test_preserves_dtype_and_keys(self):
        out = fedavg_aggregate(_states([1.0, 2.0, 3.0]))
        assert set(out) == {"layer.weight", "layer.bias"}
        assert out["layer.weight"].dtype == np.float32

    def test_weights_normalized(self):
        a = fedavg_aggregate(_states([0.0, 2.0]), weights=[1, 1])
        b = fedavg_aggregate(_states([0.0, 2.0]), weights=[100, 100])
        np.testing.assert_allclose(a["layer.weight"], b["layer.weight"])

    def test_mismatched_keys_rejected(self):
        states = _states([1.0, 2.0])
        del states[1]["layer.bias"]
        with pytest.raises(ValueError):
            fedavg_aggregate(states)

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([])

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            fedavg_aggregate(_states([1.0, 2.0]), weights=[1])
        with pytest.raises(ValueError):
            fedavg_aggregate(_states([1.0, 2.0]), weights=[0, 0])
        with pytest.raises(ValueError):
            fedavg_aggregate(_states([1.0, 2.0]), weights=[-1, 2])

    def test_aggregating_identical_states_is_identity(self):
        state = build_model("simplecnn", image_size=16).state_dict()
        out = fedavg_aggregate([state, state, state], weights=[1, 2, 3])
        for key in state:
            np.testing.assert_allclose(out[key], state[key], atol=1e-6)


class TestServer:
    def test_aggregate_updates_global_model(self):
        model = build_model("mlp", num_classes=4, image_size=8)
        server = FedAvgServer(model)
        new_state = {k: v + 1.0 for k, v in model.state_dict().items()}
        server.aggregate([new_state])
        np.testing.assert_allclose(server.global_state()["net.1.weight"],
                                   new_state["net.1.weight"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_weight_leaves_global_model_untouched(self, bad):
        server = FedAvgServer(build_model("mlp", num_classes=4, image_size=8))
        before = server.global_state()
        update = {k: v + 1.0 for k, v in before.items()}
        with pytest.raises(ValueError, match="non-negative and not all zero"):
            server.aggregate([update, update], weights=[bad, 1.0])
        after = server.global_state()
        for key in before:
            assert np.array_equal(after[key], before[key]), key

    def test_evaluate_requires_dataset(self):
        server = FedAvgServer(build_model("mlp", num_classes=4, image_size=8))
        with pytest.raises(ValueError):
            server.evaluate()

    def test_evaluate_accuracy_in_unit_interval(self):
        ds = make_dataset("cifar10", n_samples=40, image_size=8)
        model = build_model("mlp", num_classes=10, image_size=8)
        server = FedAvgServer(model, test_dataset=ds)
        acc = server.evaluate()
        assert 0.0 <= acc <= 1.0

    def test_evaluate_model_function(self):
        ds = make_dataset("cifar10", n_samples=30, image_size=8)
        model = build_model("mlp", num_classes=10, image_size=8)
        acc = evaluate_model(model, ds)
        assert 0.0 <= acc <= 1.0
        assert model.training  # evaluation restores training mode

    def test_evaluate_model_preserves_eval_mode(self):
        # a model already in eval mode must not come back in training mode
        ds = make_dataset("cifar10", n_samples=30, image_size=8)
        model = build_model("mlp", num_classes=10, image_size=8).eval()
        evaluate_model(model, ds)
        assert all(not m.training for m in model.modules())

    def test_evaluate_empty_dataset_not_swapped_for_test_set(self):
        # an explicitly passed zero-length dataset must be evaluated as given,
        # not silently replaced by the configured (non-empty) test set
        ds = make_dataset("cifar10", n_samples=40, image_size=8)
        model = build_model("mlp", num_classes=10, image_size=8)
        server = FedAvgServer(model, test_dataset=ds)
        empty = ds.subset(np.zeros(0, dtype=np.int64))
        assert len(empty) == 0
        assert server.evaluate(empty) == 0.0

    def test_evaluate_model_is_inference_only(self):
        # alexnet on 100 32x32 samples, one batch: with backward caches kept
        # the traced peak read 133.4 MiB and 109.1 MiB stayed after the call;
        # inference only, it read 72.3 MiB with the einsum convolutions,
        # 60.6 MiB once each forward was one GEMM over a row copy of its
        # columns, and 43.0 MiB with the windows unfolded straight into the
        # rows (the stem's rows are 29.3 MiB)
        ds = make_dataset("cifar10", n_samples=100, image_size=32, seed=1)
        model = build_model("alexnet", num_classes=10, image_size=32)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            evaluate_model(model, ds)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 50 * 2**20
        assert kept - start <= 2**20
