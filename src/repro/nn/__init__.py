"""Numpy-backed neural-network substrate (autograd, layers, optimisers).

Compute kernels are routed through a pluggable backend seam
(:mod:`repro.nn.backend`): the default backend is bit-identical thinly
wrapped numpy; the accelerated ``fused`` backend (float32 fused message
passing) is opt-in per config. See ``docs/backends.md``.
"""

from . import functional
from .backend import (
    Backend,
    NumpyBackend,
    get_backend,
    make_backend,
    set_backend,
    use_backend,
)
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
    "Backend",
    "NumpyBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "make_backend",
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
