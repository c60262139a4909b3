"""Stateless differentiable functions used throughout the library."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "mse_loss",
    "binary_cross_entropy",
    "l2_normalize",
    "cosine_similarity",
    "pairwise_cosine",
    "one_hot",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (n, m) and integer ``labels`` (n,).

    This is the loss of Eqs. 12–13 in the paper (Neighbor Matching and
    Multi-Task pre-training objectives).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError("labels must be 1-D and match the logits batch size")
    log_probs = log_softmax(logits, axis=-1)
    rows = np.arange(labels.shape[0])
    picked = log_probs[rows, labels]
    return -picked.mean()


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error."""
    target = as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def binary_cross_entropy(probabilities: Tensor, targets) -> Tensor:
    """Mean BCE on probabilities in (0, 1)."""
    targets = as_tensor(targets).detach()
    eps = 1e-12
    clipped = probabilities.clip(eps, 1.0 - eps)
    loss = targets * clipped.log() + (1.0 - targets) * (1.0 - clipped).log()
    return -loss.mean()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise rows of ``x`` to unit L2 norm."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Cosine similarity between matching rows of ``a`` and ``b`` (Eq. 6/11)."""
    return (l2_normalize(a, axis=axis) * l2_normalize(b, axis=axis)).sum(axis=axis)


def pairwise_cosine(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity matrix between rows of ``a`` and ``b``.

    Returns a tensor of shape ``(a.shape[0], b.shape[0])``; this is how the
    Prompt Selector scores every (query, candidate-prompt) pair and how Eq. 11
    compares a query embedding against every label embedding.
    """
    return l2_normalize(a) @ l2_normalize(b).T


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Plain ndarray one-hot encoding (not differentiable, used for inputs)."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
