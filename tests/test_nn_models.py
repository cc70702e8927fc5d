"""Tests for the model architectures and their Table III profiles."""

import numpy as np
import pytest
from nn_reference import as_oracle, held_arrays

from repro.fl import FLClient
from repro.nn import (
    CrossEntropyLoss,
    SGD,
    available_models,
    build_model,
    count_parameters,
    estimate_flops,
    model_profile,
    state_dict_nbytes,
)

PAPER_MODELS = ["alexnet", "mobilenetv2", "resnet50"]
ALL_MODELS = PAPER_MODELS + ["simplecnn", "mlp"]


class TestConstruction:
    def test_registry_contains_paper_models(self):
        assert set(available_models()) >= set(ALL_MODELS)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("vgg16")

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_forward_output_shape(self, name):
        model = build_model(name, num_classes=7, in_channels=3, image_size=32)
        x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert model(x).shape == (2, 7)

    @pytest.mark.parametrize("name", ["alexnet", "mobilenetv2", "simplecnn", "mlp"])
    def test_grayscale_28x28_input(self, name):
        model = build_model(name, num_classes=10, in_channels=1, image_size=28)
        x = np.random.default_rng(0).standard_normal((2, 1, 28, 28)).astype(np.float32)
        assert model(x).shape == (2, 10)

    def test_deterministic_construction_with_seed(self):
        a = build_model("simplecnn", seed=3).state_dict()
        b = build_model("simplecnn", seed=3).state_dict()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_different_seeds_differ(self):
        a = build_model("simplecnn", seed=1).state_dict()
        b = build_model("simplecnn", seed=2).state_dict()
        assert any(not np.array_equal(a[k], b[k]) for k in a)


class TestBackward:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_backward_fills_parameter_gradients_and_returns_no_input_gradient(self, name):
        # the stem fills its own gradients but skips dL/d(image), which nothing reads
        model = build_model(name, num_classes=5, in_channels=3, image_size=16)
        x = np.random.default_rng(0).standard_normal((2, 3, 16, 16)).astype(np.float32)
        out = model(x)
        model.zero_grad()
        assert model.backward(np.ones_like(out)) is None
        stems = [m for m in model.modules() if getattr(m, "_stem", False)]
        assert len(stems) == 1
        assert np.abs(stems[0].weight.grad).sum() > 0
        assert all(np.isfinite(p.grad).all() for p in model.parameters())

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_backward_populates_parameter_gradients(self, name):
        model = build_model(name, num_classes=5, in_channels=3, image_size=16)
        x = np.random.default_rng(1).standard_normal((2, 3, 16, 16)).astype(np.float32)
        y = np.array([0, 1])
        loss_fn = CrossEntropyLoss()
        loss_fn(model(x), y)
        model.zero_grad()
        model.backward(loss_fn.backward())
        grads = [np.abs(p.grad).sum() for p in model.parameters()]
        assert sum(g > 0 for g in grads) > len(grads) * 0.5

    def test_one_sgd_step_changes_weights(self):
        model = build_model("simplecnn", num_classes=3, image_size=16)
        before = model.state_dict()
        x = np.random.default_rng(2).standard_normal((4, 3, 16, 16)).astype(np.float32)
        loss_fn = CrossEntropyLoss()
        loss_fn(model(x), np.array([0, 1, 2, 0]))
        model.backward(loss_fn.backward())
        SGD(model.parameters(), lr=0.1).step()
        after = model.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before if "weight" in k)


class TestInferenceOnlyEval:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_eval_forward_drops_every_backward_cache(self, name):
        model = build_model(name, num_classes=5, in_channels=3, image_size=16)
        x = np.random.default_rng(3).standard_normal((2, 3, 16, 16)).astype(np.float32)
        model(x)
        assert any(held_arrays(m) for m in model.modules())
        model.eval()(x)
        assert [(type(m).__name__, held_arrays(m)) for m in model.modules()
                if held_arrays(m)] == []


class TestOracleIdentity:
    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_training_and_eval_logits_match_the_oracle(self, name, tiny_split):
        """Two ``train_local`` rounds and the eval logits keep every bit.

        The oracle is the same model with the argmax pooling and the einsum
        dense convolution of ``nn_reference``, and a stem that still returns
        dL/dx.  Both run in this process: GEMM bits depend on the host's
        BLAS kernels, so digests pinned on one CPU would not hold on another.
        """
        train, test = tiny_split
        train = train.subset(np.arange(64))
        models = [build_model(name, num_classes=10, image_size=16, seed=5) for _ in range(2)]
        as_oracle(models[1])
        clients = [FLClient(0, model, train, batch_size=16, lr=0.05, seed=9) for model in models]
        for round_index in range(2):
            new, oracle = (c.train_local(round_index=round_index).state for c in clients)
            assert list(new) == list(oracle)
            for key in new:
                assert new[key].tobytes() == oracle[key].tobytes(), key
        new, oracle = (model.eval()(test.images) for model in models)
        assert new.dtype == oracle.dtype and new.tobytes() == oracle.tobytes()


class TestTableIIIProfiles:
    def test_parameter_count_ordering_matches_paper(self):
        counts = {name: count_parameters(build_model(name)) for name in PAPER_MODELS}
        assert counts["alexnet"] > counts["resnet50"] > counts["mobilenetv2"]

    def test_state_size_ordering(self):
        sizes = {name: state_dict_nbytes(build_model(name)) for name in PAPER_MODELS}
        assert sizes["alexnet"] > sizes["resnet50"] > sizes["mobilenetv2"]

    def test_flops_positive_and_resnet_heaviest(self):
        flops = {name: estimate_flops(build_model(name), (3, 32, 32)) for name in PAPER_MODELS}
        assert all(v > 0 for v in flops.values())
        assert flops["resnet50"] > flops["mobilenetv2"]

    def test_model_profile_keys(self):
        profile = model_profile(build_model("mobilenetv2"), (3, 32, 32))
        assert set(profile) == {"parameters", "state_bytes", "flops"}

    def test_mobilenet_has_highest_buffer_share(self):
        # MobileNetV2's many BatchNorm layers make its non-weight share the
        # largest, which is why its lossy-compressible fraction is the lowest
        # in Table III.
        def weight_share(name: str) -> float:
            state = build_model(name).state_dict()
            total = sum(v.size for v in state.values())
            weights = sum(v.size for k, v in state.items() if "weight" in k and v.size > 1024)
            return weights / total

        shares = {name: weight_share(name) for name in PAPER_MODELS}
        assert shares["mobilenetv2"] < shares["resnet50"]
        assert shares["mobilenetv2"] < shares["alexnet"]

    def test_state_dict_mostly_float32(self):
        state = build_model("resnet50").state_dict()
        assert all(v.dtype == np.float32 for v in state.values())

    def test_alexnet_classifier_dominates_parameters(self):
        model = build_model("alexnet")
        classifier_params = sum(p.size for _, p in model.classifier.named_parameters())
        assert classifier_params > 0.5 * count_parameters(model)
