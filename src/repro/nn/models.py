"""Model architectures profiled by the paper, scaled for CPU training.

The paper evaluates AlexNet, MobileNetV2, and ResNet50 (Table III).  The
reproduction keeps each architecture's structural signature — AlexNet's large
fully-connected head, MobileNetV2's inverted residuals with depthwise
convolutions and many BatchNorm buffers, ResNet50's bottleneck residual
stages — but scales channel widths and block counts so that federated training
runs on a CPU with NumPy.  Two additional small models (:class:`SimpleCNN`,
:class:`MLP`) are provided for fast tests and examples.

The relative ordering of parameter counts (AlexNet > ResNet50 > MobileNetV2)
and of the lossy-compressible fraction of the state dict (AlexNet highest,
MobileNetV2 lowest, because BN buffers are a larger share of its state) matches
Table III of the paper.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.blocks import Bottleneck, ConvBNReLU, InvertedResidual
from repro.nn.layers import (
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.utils.rng import make_rng

__all__ = [
    "AlexNet",
    "MobileNetV2",
    "ResNet50",
    "SimpleCNN",
    "MLP",
    "available_models",
    "build_model",
    "count_parameters",
    "state_dict_nbytes",
    "estimate_flops",
]


class AlexNet(Module):
    """Scaled AlexNet: convolutional features followed by a large FC head.

    Most of the parameters live in the classifier, as in the original — this is
    why the paper reports 99.98% of AlexNet's state as lossy-compressible.
    """

    def __init__(self, num_classes: int = 10, in_channels: int = 3, image_size: int = 32,
                 width: int = 32, hidden: int = 384, seed: int | None = 0) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.features = Sequential(
            Conv2d(in_channels, width, 5, stride=1, padding=2, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(width, width * 2, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(width * 2, width * 3, 3, padding=1, rng=rng),
            ReLU(),
            Conv2d(width * 3, width * 2, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
        )
        self.features[0]._stem = True
        flat_dim = self._infer_flat_dim(in_channels, image_size)
        self.classifier = Sequential(
            Flatten(),
            Dropout(0.3, rng=rng),
            Linear(flat_dim, hidden, rng=rng),
            ReLU(),
            Dropout(0.3, rng=rng),
            Linear(hidden, hidden // 2, rng=rng),
            ReLU(),
            Linear(hidden // 2, num_classes, rng=rng),
        )

    def _infer_flat_dim(self, in_channels: int, image_size: int) -> int:
        probe = np.zeros((1, in_channels, image_size, image_size), dtype=np.float32)
        out = self.features(probe)
        return int(np.prod(out.shape[1:]))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.features(x))

    def backward(self, grad: np.ndarray) -> None:
        return self.features.backward(self.classifier.backward(grad))


class MobileNetV2(Module):
    """Scaled MobileNetV2: inverted residual blocks with depthwise convolutions."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, image_size: int = 32,
                 width: int = 16, seed: int | None = 0) -> None:
        super().__init__()
        rng = make_rng(seed)
        del image_size  # fully convolutional; kept for a uniform constructor signature
        w = width
        self.stem = ConvBNReLU(in_channels, w, kernel_size=3, stride=2, relu6=True, rng=rng)
        self.stem[0]._stem = True
        self.blocks = Sequential(
            InvertedResidual(w, w, stride=1, expand_ratio=1, rng=rng),
            InvertedResidual(w, w * 2, stride=2, expand_ratio=4, rng=rng),
            InvertedResidual(w * 2, w * 2, stride=1, expand_ratio=4, rng=rng),
            InvertedResidual(w * 2, w * 3, stride=2, expand_ratio=4, rng=rng),
            InvertedResidual(w * 3, w * 3, stride=1, expand_ratio=4, rng=rng),
            InvertedResidual(w * 3, w * 4, stride=1, expand_ratio=4, rng=rng),
        )
        self.head = ConvBNReLU(w * 4, w * 8, kernel_size=1, relu6=True, rng=rng)
        self.pool = GlobalAvgPool2d()
        self.classifier = Linear(w * 8, num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem(x)
        x = self.blocks(x)
        x = self.head(x)
        x = self.pool(x)
        return self.classifier(x)

    def backward(self, grad: np.ndarray) -> None:
        grad = self.classifier.backward(grad)
        grad = self.pool.backward(grad)
        grad = self.head.backward(grad)
        grad = self.blocks.backward(grad)
        return self.stem.backward(grad)


class ResNet50(Module):
    """Scaled ResNet50: four stages of bottleneck blocks with a stem convolution.

    The default configuration uses 2 bottlenecks per stage (8 total) instead of
    the original (3, 4, 6, 3) so CPU training fits the reproduction budget; the
    bottleneck structure, downsampling shortcuts, and BN placement are intact.
    """

    def __init__(self, num_classes: int = 10, in_channels: int = 3, image_size: int = 32,
                 width: int = 8, blocks_per_stage: tuple[int, int, int, int] = (2, 2, 2, 2),
                 seed: int | None = 0) -> None:
        super().__init__()
        rng = make_rng(seed)
        del image_size
        self.stem = ConvBNReLU(in_channels, width, kernel_size=3, stride=1, rng=rng)
        self.stem[0]._stem = True
        stages: list[Module] = []
        in_ch = width
        for stage_idx, n_blocks in enumerate(blocks_per_stage):
            mid = width * (2 ** stage_idx)
            for block_idx in range(n_blocks):
                stride = 2 if (stage_idx > 0 and block_idx == 0) else 1
                block = Bottleneck(in_ch, mid, stride=stride, rng=rng)
                stages.append(block)
                in_ch = block.out_channels
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.classifier = Linear(in_ch, num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem(x)
        x = self.stages(x)
        x = self.pool(x)
        return self.classifier(x)

    def backward(self, grad: np.ndarray) -> None:
        grad = self.classifier.backward(grad)
        grad = self.pool.backward(grad)
        grad = self.stages.backward(grad)
        return self.stem.backward(grad)


class SimpleCNN(Module):
    """Small two-conv CNN used by the fast tests and the quickstart example."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, image_size: int = 32,
                 width: int = 8, seed: int | None = 0) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.features = Sequential(
            Conv2d(in_channels, width, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(width, width * 2, 3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
        )
        self.features[0]._stem = True
        flat = width * 2 * (image_size // 4) * (image_size // 4)
        self.classifier = Sequential(Flatten(), Linear(flat, num_classes, rng=rng))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.classifier(self.features(x))

    def backward(self, grad: np.ndarray) -> None:
        return self.features.backward(self.classifier.backward(grad))


class MLP(Module):
    """Plain multi-layer perceptron on flattened inputs."""

    def __init__(self, num_classes: int = 10, in_channels: int = 3, image_size: int = 32,
                 hidden: int = 64, seed: int | None = 0) -> None:
        super().__init__()
        rng = make_rng(seed)
        in_features = in_channels * image_size * image_size
        self.net = Sequential(
            Flatten(),
            Linear(in_features, hidden, rng=rng),
            ReLU(),
            Linear(hidden, num_classes, rng=rng),
        )
        self.net[1]._stem = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def backward(self, grad: np.ndarray) -> None:
        return self.net.backward(grad)


_MODELS: dict[str, Callable[..., Module]] = {
    "alexnet": AlexNet,
    "mobilenetv2": MobileNetV2,
    "resnet50": ResNet50,
    "simplecnn": SimpleCNN,
    "mlp": MLP,
}


def available_models() -> list[str]:
    """Names accepted by :func:`build_model`."""
    return sorted(_MODELS)


def build_model(name: str, num_classes: int = 10, in_channels: int = 3, image_size: int = 32,
                seed: int | None = 0, **kwargs: object) -> Module:
    """Instantiate a model by registry name."""
    try:
        factory = _MODELS[name.lower()]
    except KeyError as exc:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}") from exc
    return factory(num_classes=num_classes, in_channels=in_channels, image_size=image_size,
                   seed=seed, **kwargs)


def count_parameters(model: Module) -> int:
    """Total number of trainable parameter elements."""
    return sum(p.size for p in model.parameters())


def state_dict_nbytes(model: Module) -> int:
    """Total size of the state dict in bytes (parameters + buffers)."""
    return sum(arr.nbytes for arr in model.state_dict().values())


def estimate_flops(model: Module, input_shape: tuple[int, int, int]) -> int:
    """Estimate multiply-accumulate FLOPs of one forward pass on one sample.

    A probe batch of one sample is pushed through the model; every Conv2d and
    Linear layer records its output shape, from which the standard
    ``2 * fan_in * output_elements`` cost is accumulated.
    """
    was_training = model.training
    model.eval()
    probe = np.zeros((1, *input_shape), dtype=np.float32)
    model(probe)
    model.train(was_training)

    flops = 0
    for _, module in model.named_modules():
        if isinstance(module, Conv2d) and getattr(module, "_last_output_shape", None):
            _, _, h_out, w_out = module._last_output_shape
            fan_in = (module.in_channels // module.groups) * module.kernel_size ** 2
            flops += 2 * fan_in * module.out_channels * h_out * w_out
        elif isinstance(module, Linear) and getattr(module, "_last_output_shape", None):
            flops += 2 * module.in_features * module.out_features
    return int(flops)

