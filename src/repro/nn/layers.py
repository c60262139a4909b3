"""Neural-network modules: parameter containers and common layers.

The layer zoo intentionally mirrors the small subset of ``torch.nn`` that the
paper's architecture needs: linear layers and two-layer MLPs (reconstruction
layers Eq. 2 and selection layers Eq. 5 are both "a two-layer neural
network"), embeddings for relation types and task-graph edge attributes,
dropout and layer normalisation for the GNN stacks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Sequence

import numpy as np

from . import init as init_schemes
from .tensor import Tensor, is_grad_enabled

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "MLP",
    "Sequential",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "Identity",
]


class Parameter(Tensor):
    """A tensor that is registered as a trainable weight of a module."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class providing parameter registration and (de)serialisation.

    Subclasses assign :class:`Parameter` or :class:`Module` instances as
    attributes; :meth:`parameters` walks the tree.  ``training`` toggles
    behaviour of stochastic layers such as :class:`Dropout`.
    """

    def __init__(self):
        self.training = True

    # -- registration ---------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            if name.startswith("_modules_list"):
                for i, child in enumerate(value):
                    yield from child.named_parameters(f"{prefix}{name}.{i}.")
            elif isinstance(value, Parameter):
                yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters of this module and its children."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for name, value in vars(self).items():
            if name.startswith("_modules_list"):
                for child in value:
                    yield from child.modules()
            elif isinstance(value, Module):
                yield from value.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- training state --------------------------------------------------
    def train(self) -> "Module":
        """Put this module and all children in training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Put this module and all children in inference mode."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        """Reset the gradient of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -- serialisation ----------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every parameter array, keyed by dotted name."""
        return OrderedDict(
            (name, param.data.copy()) for name, param in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            value = np.asarray(value, dtype=np.float64)
            if own[name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{own[name].shape} vs {value.shape}"
                )
            own[name].data = value.copy()

    # -- call protocol -----------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module's output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Identity(Module):
    """Pass-through module."""

    def forward(self, x: Tensor) -> Tensor:
        """Return ``x`` unchanged."""
        return x


def row_invariant_product(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` whose every row depends only on that row of ``x``.

    numpy hands a one-row operand or a one-column weight to BLAS's
    matrix-vector routine, and there a row's value depends on the rows
    around it.  So a one-column weight becomes a per-row reduction, whose
    summation order depends only on the row, and a one-row input rides a
    two-row product and keeps row 0.  Every other shape stays one
    matrix-matrix product; at the models' widths its rows do not depend
    on how many rows share the call (``tests/test_batch_invariance.py``
    pins both).
    """
    if weight.shape[1] == 1:
        return np.einsum("ij,j->i", x, weight[:, 0]).reshape(-1, 1)
    if x.shape[0] == 1:
        return (np.concatenate([x, x]) @ weight)[:1]
    return x @ weight


class Linear(Module):
    """Affine transform ``x @ W + b``.

    Without gradients (serving, evaluation) each output row is a function
    of its input row alone (:func:`row_invariant_product`), so an encoded
    datapoint has the same bytes in a batch of any size.  The autodiff
    path keeps the plain product training was run with.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_schemes.xavier_uniform(rng, in_features, out_features)
        )
        self.bias = Parameter(init_schemes.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Affine map ``x @ weight + bias``."""
        if not is_grad_enabled() and x.ndim == 2:
            out = row_invariant_product(x.data, self.weight.data)
            if self.bias is not None:
                out = out + self.bias.data
            return Tensor(out)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


_ACTIVATIONS = {
    "relu": lambda x: x.relu(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "leaky_relu": lambda x: x.leaky_relu(),
    "identity": lambda x: x,
}


class MLP(Module):
    """Multi-layer perceptron with a configurable activation.

    The paper's reconstruction layer (Eq. 2) and selection layer (Eq. 5) are
    both instances of this module ("we use a two-layer neural network",
    Sec. V-F).
    """

    def __init__(self, dims: Sequence[int], activation: str = "relu",
                 final_activation: str | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.dims = tuple(dims)
        self.activation = activation
        self.final_activation = final_activation
        self._modules_list = [
            Linear(dims[i], dims[i + 1], rng=rng) for i in range(len(dims) - 1)
        ]

    def forward(self, x: Tensor) -> Tensor:
        """Apply each layer with the activation between hidden layers."""
        act = _ACTIVATIONS[self.activation]
        last = len(self._modules_list) - 1
        for i, layer in enumerate(self._modules_list):
            x = layer(x)
            if i < last:
                x = act(x)
        if self.final_activation is not None:
            x = _ACTIVATIONS[self.final_activation](x)
        return x


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._modules_list = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        """Apply the chained modules in order."""
        for module in self._modules_list:
            x = module(x)
        return x

    def __iter__(self):
        return iter(self._modules_list)

    def __len__(self):
        return len(self._modules_list)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            init_schemes.normal(rng, (num_embeddings, embedding_dim), std=0.1)
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        """Look up dense vectors for integer ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings})"
            )
        return self.weight.gather_rows(ids.reshape(-1)).reshape(
            tuple(ids.shape) + (self.embedding_dim,)
        )


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        """Randomly zero entries when training; identity in eval mode."""
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones((dim,)))
        self.beta = Parameter(np.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        """Normalise over the last dimension, then scale and shift."""
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta
