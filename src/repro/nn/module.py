"""Module base class with PyTorch-style ``state_dict`` semantics.

A :class:`Module` owns parameters (trainable arrays), buffers (non-trainable
state such as BatchNorm running statistics), and child modules.  ``state_dict``
flattens the whole tree into an ordered ``{dotted.name: ndarray}`` mapping —
the exact object FedSZ's Algorithm 1 partitions and compresses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Module", "Sequential"]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- registration --------------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        """Attach a trainable parameter under ``name``."""
        self._parameters[name] = param
        return param

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        """Attach a non-trainable buffer (e.g. running statistics)."""
        self._buffers[name] = np.asarray(value, dtype=np.float32)
        return self._buffers[name]

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` for this module and every descendant."""
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, Parameter)`` over the whole tree."""
        for mod_name, module in self.named_modules(prefix):
            for par_name, param in module._parameters.items():
                full = f"{mod_name}.{par_name}" if mod_name else par_name
                yield full, param

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` over the whole tree."""
        for mod_name, module in self.named_modules(prefix):
            for buf_name, buf in module._buffers.items():
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                yield full, buf

    def parameters(self) -> list[Parameter]:
        """All parameters as a flat list (optimizer input)."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> list["Module"]:
        """All modules in the tree, including ``self``."""
        return [m for _, m in self.named_modules()]

    # -- state dict ------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Flatten parameters and buffers into ``{name: array copy}``.

        Parameter entries come first within each module, then buffers, matching
        the ordering PyTorch produces for the architectures used in the paper.
        """
        out: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for mod_name, module in self.named_modules():
            for par_name, param in module._parameters.items():
                full = f"{mod_name}.{par_name}" if mod_name else par_name
                out[full] = param.data.copy()
            for buf_name, buf in module._buffers.items():
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                out[full] = buf.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Copy arrays from ``state`` into the matching parameters/buffers."""
        own_params = dict(self.named_parameters())
        own_buffers = {name: (mod, buf_name)
                       for mod_name, mod in self.named_modules()
                       for buf_name in mod._buffers
                       for name in [f"{mod_name}.{buf_name}" if mod_name else buf_name]}
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if strict and (missing or unexpected):
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, value in state.items():
            if name in own_params:
                target = own_params[name]
                if target.data.shape != np.shape(value):
                    raise ValueError(f"shape mismatch for {name}: {target.data.shape} vs {np.shape(value)}")
                target.data = np.asarray(value, dtype=np.float32).copy()
                target.grad = np.zeros_like(target.data)
            elif name in own_buffers:
                mod, buf_name = own_buffers[name]
                if mod._buffers[buf_name].shape != np.shape(value):
                    raise ValueError(f"shape mismatch for buffer {name}")
                mod._buffers[buf_name] = np.asarray(value, dtype=np.float32).copy()

    # -- training state ---------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Switch the whole tree between training and evaluation behaviour."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Shortcut for ``train(False)``."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset every parameter gradient in the tree."""
        for param in self.parameters():
            param.zero_grad()

    # -- compute ---------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the module output (subclasses override)."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        """Backpropagate ``grad`` (dL/d output) and return dL/d input.

        Needs a training-mode forward first, whose cached record it
        releases, so each forward backs one backward.  A model returns
        ``None``: its stem layer fills its own parameter gradients but
        computes no gradient with respect to the input image, which nothing
        reads.
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Container applying child modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for idx, layer in enumerate(layers):
            self._modules[str(idx)] = layer

    def append(self, layer: Module) -> None:
        """Add a layer at the end of the container."""
        self._modules[str(len(self.layers))] = layer
        self.layers.append(layer)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray | None:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
            if grad is None:  # a stem layer: nothing before it needs a gradient
                break
        return grad
