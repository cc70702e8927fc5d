"""Minimal NumPy neural-network substrate with PyTorch-like state_dict semantics.

The FedSZ pipeline operates on a model's ``state_dict`` — an ordered mapping
from parameter/buffer names to arrays.  Since PyTorch is not available offline,
this subpackage provides a small but complete deep-learning stack:

* :class:`~repro.nn.module.Module` / :class:`~repro.nn.parameter.Parameter`
  with ``state_dict`` / ``load_state_dict`` / ``named_parameters`` semantics
  mirroring ``torch.nn.Module``,
* layers with explicit forward/backward passes (Linear, Conv2d incl. depthwise,
  BatchNorm2d, ReLU/ReLU6, pooling, dropout, flatten),
* residual and inverted-residual blocks,
* scaled-down AlexNet, MobileNetV2 and ResNet50 architectures plus small
  reference models,
* cross-entropy loss and an SGD(+momentum) optimizer.

Everything is implemented with vectorized NumPy (im2col convolutions) so the
federated experiments run on CPU within the reproduction's budget.
"""

from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    ReLU6,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.models import (
    MLP,
    AlexNet,
    MobileNetV2,
    ResNet50,
    SimpleCNN,
    available_models,
    build_model,
    count_parameters,
    estimate_flops,
    state_dict_nbytes,
)
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD
from repro.nn.parameter import Parameter

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "CrossEntropyLoss",
    "SGD",
    "AlexNet",
    "MobileNetV2",
    "ResNet50",
    "SimpleCNN",
    "MLP",
    "available_models",
    "build_model",
    "count_parameters",
    "estimate_flops",
    "state_dict_nbytes",
]
