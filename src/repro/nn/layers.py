"""Neural-network building blocks: ``Module`` base class and standard layers.

These back both the hierarchical GNN (paper Eq. 1-4) and the short-term
transformer temporal model.  ``Module`` provides parameter traversal,
train/eval mode switching, and — essential for this paper — *freezing*:
the continuous KG adaptive learning phase freezes every model weight and
updates only the KG token embeddings (Section III-D of the paper).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import StateError
from . import init
from .tensor import Tensor

__all__ = [
    "Module",
    "Parameter",
    "Dense",
    "BatchNorm",
    "LayerNorm",
    "Embedding",
    "Dropout",
    "Sequential",
    "ELU",
    "ReLU",
    "Tanh",
]


class Parameter(Tensor):
    """A tensor registered as a trainable model parameter."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with parameter traversal, mode switching and freezing."""

    #: Set by ``MissionGNNModel.sharer`` once models share it: frozen, eval, for good.
    shared = False

    def __init__(self) -> None:
        self.training = True
        self._buffer_names: list[str] = []

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all :class:`Parameter` objects reachable from this module."""
        seen: set[int] = set()
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, value in vars(self).items():
            name = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(name)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item

    # -- buffers (non-trainable persistent state, e.g. BN running stats) --
    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register ``value`` as persistent non-trainable state.

        Buffers are plain attributes (reassignment works as usual) but are
        included in :meth:`state_dict`, so deployment checkpoints carry
        them without side channels.
        """
        if not hasattr(self, "_buffer_names"):
            self._buffer_names = []
        if name not in self._buffer_names:
            self._buffer_names.append(name)
        setattr(self, name, value)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for key in getattr(self, "_buffer_names", ()):
            name = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            yield name, getattr(self, key)
        for key, value in vars(self).items():
            name = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(value, Module):
                yield from value.named_buffers(name)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_buffers(f"{name}.{i}")

    def buffers(self) -> Iterator[np.ndarray]:
        for _, buffer in self.named_buffers():
            yield buffer

    def _set_buffer_by_path(self, path: str, value: np.ndarray) -> None:
        parts = path.split(".")
        target: object = self
        for part in parts[:-1]:
            if isinstance(target, (list, tuple)):
                target = target[int(part)]
            else:
                target = getattr(target, part)
        current = getattr(target, parts[-1])
        if np.shape(current) != np.shape(value):
            raise ValueError(f"shape mismatch for buffer {path}: "
                             f"{np.shape(current)} vs {np.shape(value)}")
        setattr(target, parts[-1], value.copy())

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- mode -----------------------------------------------------------
    def _refuse_if_shared(self, action: str) -> None:
        if any(module.shared for module in self.modules()):
            raise StateError(
                f"cannot {action} weights that several models share")

    def train(self) -> "Module":
        self._refuse_if_shared("put back into training mode")
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # -- freezing (paper: "Froze Model" in Fig. 2C) ----------------------
    def freeze(self) -> "Module":
        """Stop gradient accumulation into every parameter of this module."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        self._refuse_if_shared("unfreeze")
        for param in self.parameters():
            param.requires_grad = True
        return self

    @property
    def frozen(self) -> bool:
        params = list(self.parameters())
        return bool(params) and not any(p.requires_grad for p in params)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- state dict (deployment: cloud-trained weights shipped to edge) --
    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameters plus registered buffers (e.g. BN running statistics)."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update({name: np.asarray(buffer).copy()
                      for name, buffer in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffer_names = {name for name, _ in self.named_buffers()}
        missing = set(params) - set(state)
        unexpected = set(state) - set(params) - buffer_names
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, param in params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{param.data.shape} vs {state[name].shape}")
            param.data = state[name].copy()
        # Buffers absent from ``state`` (parameter-only dicts from older
        # checkpoints) keep their current values.
        for name in buffer_names:
            if name in state:
                self._set_buffer_by_path(name, np.asarray(state[name]))

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Dense(Module):
    """Affine layer ``x @ W + b`` — the paper's Eq. 1 dense sub-layer."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return x.affine(self.weight, self.bias)


class BatchNorm(Module):
    """Batch normalization over the leading axes (feature axis last).

    The paper's GNN layer (Eq. 4) applies BatchNorm over all node embeddings
    before the ELU activation.  Running statistics make edge inference
    deterministic after deployment.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(f"expected feature dim {self.num_features}, got {x.shape[-1]}")
        axes = tuple(range(x.ndim - 1))
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            count = max(int(np.prod([x.shape[a] for a in axes])), 1)
            unbiased = var.data * count / max(count - 1, 1)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean.data.reshape(-1))
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * unbiased.reshape(-1))
        else:
            # Inference: the frozen running statistics and the affine
            # parameters fold into one scale-and-shift.  gamma/beta stay on
            # the tape, and continuous KG adaptation still backpropagates
            # through here into the token embeddings.
            return x.frozen_batch_norm(self.gamma, self.beta, self.running_mean,
                                       self.running_var, self.eps)
        normed = (x - mean) / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class LayerNorm(Module):
    """Layer normalization over the last axis (transformer sub-layer norm)."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        return x.layer_norm(self.gamma, self.beta, self.eps)


class Embedding(Module):
    """Lookup table mapping integer indices to vectors.

    This is the substrate of the KG token-embedding table — the *only*
    trainable state during continuous KG adaptive learning.
    """

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator,
                 std: float = 0.02):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal(rng, (num_embeddings, dim), std=std))

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return self.weight[indices]


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class ELU(Module):
    def __init__(self, alpha: float = 1.0):
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return x.elu(self.alpha)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.items = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.items:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]
