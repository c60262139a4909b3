"""Numpy-backed neural-network substrate (autograd, layers, optimisers).

Every op is thinly wrapped float64 numpy: a forward runs the numpy
expression directly, and a backward closure records its gradient.
"""

from . import functional
from .layers import (
    Dropout,
    Embedding,
    Identity,
    LayerNorm,
    Linear,
    MLP,
    Module,
    Parameter,
    Sequential,
)
from .optim import SGD, Adam, AdamW, Optimizer, StepLR, clip_grad_norm
from .serialization import load_state, save_state
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sequential",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "Identity",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "StepLR",
    "clip_grad_norm",
    "save_state",
    "load_state",
]
