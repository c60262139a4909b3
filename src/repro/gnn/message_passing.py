"""Scatter/segment primitives shared by all GNN layers.

Each differentiable :class:`~repro.nn.Tensor` primitive has a raw-ndarray
twin (``*_data``) used by the fused no-grad inference path: identical
arithmetic, identical op order — therefore bit-identical outputs — but no
tensor wrapping, and dtype-preserving (float32 inputs stay float32 instead
of silently upcasting the whole attention path to float64).
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor

__all__ = [
    "scatter_sum",
    "scatter_mean",
    "segment_softmax",
    "segment_count",
    "data_of",
    "scatter_sum_data",
    "segment_softmax_data",
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


# ----------------------------------------------------------------------
# Raw-ndarray twins — the fused no-grad inference path
# ----------------------------------------------------------------------
def scatter_sum_data(values: np.ndarray, index: np.ndarray,
                     num_segments: int) -> np.ndarray:
    """Bucket-sum rows of a plain ndarray; same summation order as
    :meth:`Tensor.scatter_add` (sequential ``np.add.at``), same zeros
    initialisation — bit-identical for float64 inputs."""
    index = _as_index(index)
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


def segment_softmax_data(scores: np.ndarray, index: np.ndarray,
                         num_segments: int) -> np.ndarray:
    """Raw-ndarray :func:`segment_softmax`; dtype-preserving."""
    index = _as_index(index)
    if scores.ndim != 1:
        raise ValueError("segment_softmax expects 1-D scores")
    max_per_segment = np.full(num_segments, -np.inf, dtype=scores.dtype)
    np.maximum.at(max_per_segment, index, scores)
    max_per_segment[~np.isfinite(max_per_segment)] = 0.0
    exps = np.exp(scores - max_per_segment[index])
    denom = np.zeros(num_segments, dtype=exps.dtype)
    np.add.at(denom, index, exps)
    eps = np.asarray(1e-16, dtype=scores.dtype)
    return exps / (denom[index] + eps)
