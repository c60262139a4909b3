"""Scatter/segment primitives shared by all GNN layers."""

from __future__ import annotations

import numpy as np

from ..nn import Tensor

__all__ = [
    "scatter_sum",
    "scatter_mean",
    "segment_softmax",
    "segment_count",
    "data_of",
]


def _as_index(index: np.ndarray) -> np.ndarray:
    """Shared int64 coercion for segment ids (bincount/ufunc.at require it)."""
    return np.asarray(index, dtype=np.int64)


def data_of(value) -> np.ndarray:
    """Unwrap a :class:`Tensor` (or coerce array-likes) to its ndarray.

    The single Tensor-unwrapping rule of the fused no-grad forwards in
    :mod:`repro.gnn.sage` and :mod:`repro.gnn.gat`.
    """
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def scatter_sum(values: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets (differentiable)."""
    return values.scatter_add(index, num_segments)


def segment_count(index: np.ndarray, num_segments: int) -> np.ndarray:
    """Number of rows per segment, clamped to a minimum of one."""
    counts = np.bincount(_as_index(index),
                         minlength=num_segments).astype(np.float64)
    return np.maximum(counts, 1.0)


def scatter_mean(values: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregate ``values`` rows per segment; empty segments yield zeros."""
    summed = scatter_sum(values, index, num_segments)
    counts = segment_count(index, num_segments)
    return summed / Tensor(counts.reshape(-1, *([1] * (values.ndim - 1))))


def segment_softmax(scores: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of ``scores`` normalised within each segment.

    This is the attention normalisation of GAT and of the task-graph
    attention GNN: scores of all edges pointing at the same target node sum
    to one.
    """
    index = _as_index(index)
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores")
    # Per-segment max for numerical stability (constant w.r.t. gradient).
    max_per_segment = np.full(num_segments, -np.inf)
    np.maximum.at(max_per_segment, index, scores.data)
    max_per_segment[~np.isfinite(max_per_segment)] = 0.0
    shifted = scores - Tensor(max_per_segment[index])
    exps = shifted.exp()
    denom = exps.reshape(-1, 1).scatter_add(index, num_segments)
    # Epsilon in the scores' dtype: a float64 literal here would promote a
    # float32 attention path to float64 from this op onward.
    eps = np.asarray(1e-16, dtype=scores.data.dtype)
    return exps / (denom.gather_rows(index).reshape(-1) + eps)

