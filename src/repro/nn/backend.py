"""Pluggable tensor-compute backends: the seam between ops and kernels.

Every compute-heavy operation of the :class:`~repro.nn.Tensor` engine and
of the fused no-grad GNN forwards — gemm, the transcendental elementwise
kernels, reductions, and the gather/scatter/segment primitives message
passing is built from — is routed through a process-global
:class:`Backend` object instead of calling numpy directly.  The default
:class:`NumpyBackend` reproduces the exact numpy expressions the engine
used before the seam existed, so default runs are **bit-identical** to the
pre-backend code and every equivalence suite stays green.

The one accelerated backend, :class:`FusedBackend` (``"fused"``), replaces
the ``np.add.at`` / ``np.maximum.at`` scatter loops with CSR-matmul (or,
without scipy, sort + ``reduceat``) segment kernels and fuses the SAGE/GAT
message-passing aggregations (gather → weight → scatter in one pass, no
unsorted intermediate).  It trades bit-identity for speed within a
documented tolerance.

Any backend can run at ``float32`` compute precision: :meth:`Backend.tensor`
then coerces tensor payloads to float32 and :meth:`Backend.param` casts the
(float64) model weights on the way into each kernel, making inference
float32 end-to-end.  ``config.tensor_backend="fused"`` selects the fused
kernels at float32.

Accelerated backends are meant for ``no_grad()`` inference; the model
activates its configured backend only around no-grad forwards, so
training always runs on the exact float64 path.  The authoring guide —
contract, tolerance rules, and a worked example — lives in
``docs/backends.md``.
"""

from __future__ import annotations

import contextlib

import numpy as np

try:  # Optional accelerator for the fused backend's scatter kernels.
    from scipy import sparse as _sparse
except ImportError:  # pragma: no cover - scipy is optional by design
    _sparse = None

__all__ = [
    "Backend",
    "NumpyBackend",
    "FusedBackend",
    "BACKENDS",
    "get_backend",
    "set_backend",
    "use_backend",
    "make_backend",
]


class Backend:
    """The backend protocol: every kernel the tensor engine routes.

    Subclasses override kernels; anything not overridden inherits the
    reference numpy implementation from :class:`NumpyBackend` (the base
    implementations below), which is bit-identical to the pre-seam code.

    Attributes
    ----------
    name:
        Registry key (``config.tensor_backend`` value).
    exact:
        ``True`` when every kernel is bit-identical to the reference
        float64 path.  Exact backends may serve as equivalence-suite
        substitutes; accelerated backends are gated by tolerance instead
        (see ``docs/backends.md``).
    dtype:
        Compute precision.  ``np.float64`` is the exact default;
        ``np.float32`` halves memory traffic and roughly doubles gemm
        throughput at ~1e-6 relative error.
    """

    name = "backend"
    exact = True

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype != np.float64:
            self.exact = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, dtype={self.dtype})"

    # -- payload coercion ------------------------------------------------
    def tensor(self, data) -> np.ndarray:
        """Coerce a tensor payload to this backend's compute dtype.

        The reference expression is ``np.asarray(data, dtype=np.float64)``
        — exactly what ``Tensor.__init__`` always did — so the default
        backend is a no-op relative to history.
        """
        return np.asarray(data, dtype=self.dtype)

    def param(self, data: np.ndarray) -> np.ndarray:
        """A model weight as seen by this backend's kernels.

        Weights are stored float64 (training precision); a float32
        backend casts them on the way into each kernel.  ``np.asarray``
        returns the array itself when the dtype already matches, so the
        exact path adds no copy.
        """
        return np.asarray(data, dtype=self.dtype)

    # -- gemm ------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product ``a @ b`` in compute dtype."""
        if a.dtype != self.dtype:
            a = a.astype(self.dtype, copy=False)
        if b.dtype != self.dtype:
            b = b.astype(self.dtype, copy=False)
        return a @ b

    # -- transcendental elementwise kernels ------------------------------
    def exp(self, x: np.ndarray) -> np.ndarray:
        """Elementwise ``e**x``."""
        return np.exp(x)

    def log(self, x: np.ndarray) -> np.ndarray:
        """Elementwise natural log."""
        return np.log(x)

    def tanh(self, x: np.ndarray) -> np.ndarray:
        """Elementwise hyperbolic tangent."""
        return np.tanh(x)

    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        """Numerically-clipped logistic function (the engine's reference
        expression, including the ±60 clip)."""
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    # -- reductions ------------------------------------------------------
    def reduce_sum(self, x: np.ndarray, axis=None,
                   keepdims: bool = False) -> np.ndarray:
        """``x.sum(axis, keepdims)``."""
        return x.sum(axis=axis, keepdims=keepdims)

    def reduce_max(self, x: np.ndarray, axis=None,
                   keepdims: bool = False) -> np.ndarray:
        """``x.max(axis, keepdims)``."""
        return x.max(axis=axis, keepdims=keepdims)

    # -- gather / scatter / segment primitives ---------------------------
    def gather_rows(self, x: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Row gather ``x[index]`` (index may repeat)."""
        return x[index]

    def scatter_add(self, values: np.ndarray, index: np.ndarray,
                    num_segments: int) -> np.ndarray:
        """Sum rows of ``values`` into ``num_segments`` buckets.

        Reference kernel: zero-init + sequential ``np.add.at``, the exact
        summation order of :meth:`Tensor.scatter_add`.
        """
        out = np.zeros((num_segments,) + values.shape[1:],
                       dtype=values.dtype)
        np.add.at(out, index, values)
        return out

    def segment_count(self, index: np.ndarray,
                      num_segments: int) -> np.ndarray:
        """Rows per segment, clamped to ≥ 1, in compute dtype (float64 on
        the default path — the reference dtype of
        :func:`repro.gnn.message_passing.segment_count`)."""
        counts = np.bincount(index, minlength=num_segments).astype(self.dtype)
        return np.maximum(counts, 1.0)

    def segment_softmax(self, scores: np.ndarray, index: np.ndarray,
                        num_segments: int) -> np.ndarray:
        """Per-segment softmax with the reference max-shift stabilisation
        (``np.maximum.at`` + ``np.add.at``), dtype-preserving."""
        max_per_segment = np.full(num_segments, -np.inf, dtype=scores.dtype)
        np.maximum.at(max_per_segment, index, scores)
        max_per_segment[~np.isfinite(max_per_segment)] = 0.0
        exps = np.exp(scores - max_per_segment[index])
        denom = np.zeros(num_segments, dtype=exps.dtype)
        np.add.at(denom, index, exps)
        eps = np.asarray(1e-16, dtype=scores.dtype)
        return exps / (denom[index] + eps)

    # -- fused message-passing kernels -----------------------------------
    def sage_aggregate(self, h: np.ndarray, src: np.ndarray,
                       dst: np.ndarray, num_nodes: int,
                       edge_weights: np.ndarray | None = None,
                       rel_emb: np.ndarray | None = None) -> np.ndarray:
        """Mean-aggregated neighbour messages of one SAGE layer.

        ``out[u] = mean_{(v→u)} (w_uv · (h[v] [+ r_uv]))`` — the reference
        kernel materialises the per-edge message matrix and scatter-sums
        it with ``np.add.at``, matching the autodiff path op-for-op.
        """
        if rel_emb is not None and rel_emb.dtype != h.dtype:
            rel_emb = rel_emb.astype(h.dtype)
        if edge_weights is not None and edge_weights.dtype != h.dtype:
            edge_weights = edge_weights.astype(h.dtype)
        messages = h[src]
        if rel_emb is not None:
            messages = messages + rel_emb
        if edge_weights is not None:
            messages = messages * edge_weights.reshape(-1, 1)
        return (self.scatter_add(messages, dst, num_nodes)
                / self.segment_count(dst, num_nodes).reshape(-1, 1))

    def weighted_gather_scatter(self, values: np.ndarray, src: np.ndarray,
                                alpha: np.ndarray, dst: np.ndarray,
                                num_nodes: int) -> np.ndarray:
        """Attention aggregation ``sum_{(v→u)} alpha_uv · values[v]``
        (the per-head message step of GAT)."""
        return self.scatter_add(values[src] * alpha.reshape(-1, 1),
                                dst, num_nodes)

    def scatter_weighted(self, messages: np.ndarray, alpha: np.ndarray,
                         dst: np.ndarray, num_nodes: int) -> np.ndarray:
        """Weighted scatter-sum of pre-built per-edge ``messages`` (the
        task-graph attention aggregation)."""
        return self.scatter_add(messages * alpha.reshape(-1, 1),
                                dst, num_nodes)


class NumpyBackend(Backend):
    """The exact reference backend: thinly wrapped numpy, bit-identical
    to the pre-seam engine on every kernel."""

    name = "numpy"
    exact = True


def _segment_layout(index: np.ndarray, num_segments: int):
    """Sorted-segment layout: (order, unique segment ids, run starts).

    Shared by every reduceat-based kernel.  ``kind="stable"`` keeps
    equal-key rows in edge order, so per-segment summation order is the
    edge order — the same order ``np.add.at`` visits, just contiguous.
    """
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    uniq, starts = np.unique(sorted_index, return_index=True)
    return order, uniq, starts


class FusedBackend(Backend):
    """Fused segment kernels: CSR-matmul scatter with reduceat fallback.

    ``np.add.at`` / ``np.maximum.at`` process one row per iteration of a
    C loop.  When scipy is importable, every (edges, dim) scatter becomes
    one sparse CSR matrix–matrix product — the aggregation weights ride
    in the matrix values, so gather → weight → scatter collapses into a
    single C kernel with no per-edge intermediate.  Without scipy, the
    edge list is sorted by destination and contiguous runs are reduced
    with vectorised ``reduceat``.  Either way the per-segment summation
    and multiplication order differ from the reference kernel, so results
    agree to float rounding, not bit-for-bit — the accelerated-path
    tolerance contract.
    """

    name = "fused"
    exact = False

    @staticmethod
    def _csr(data: np.ndarray, cols: np.ndarray, index: np.ndarray,
             num_segments: int, num_cols: int):
        """CSR matrix with row ``index[i]`` ↦ column ``cols[i]`` carrying
        ``data[i]`` — left-multiplying it is a segment-sum by ``index``."""
        counts = np.bincount(index, minlength=num_segments)
        indptr = np.empty(num_segments + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(index, kind="stable")
        return _sparse.csr_matrix(
            (data[order], cols[order].astype(np.int64, copy=False), indptr),
            shape=(num_segments, num_cols))

    def scatter_add(self, values: np.ndarray, index: np.ndarray,
                    num_segments: int) -> np.ndarray:
        """Scatter-add rows via one CSR matmul (reduceat when scipy is absent)."""
        out = np.zeros((num_segments,) + values.shape[1:],
                       dtype=values.dtype)
        if index.size == 0:
            return out
        if _sparse is not None and values.ndim == 2:
            edge_ids = np.arange(index.size, dtype=np.int64)
            matrix = self._csr(np.ones(index.size, dtype=values.dtype),
                               edge_ids, index, num_segments, index.size)
            return matrix @ values
        order, uniq, starts = _segment_layout(index, num_segments)
        out[uniq] = np.add.reduceat(values[order], starts, axis=0)
        return out

    def segment_softmax(self, scores: np.ndarray, index: np.ndarray,
                        num_segments: int) -> np.ndarray:
        """Segment softmax over the sorted-segment layout."""
        if index.size == 0:
            return np.zeros(0, dtype=scores.dtype)
        order, uniq, starts = _segment_layout(index, num_segments)
        sorted_scores = scores[order]
        max_per_segment = np.zeros(num_segments, dtype=scores.dtype)
        max_per_segment[uniq] = np.maximum.reduceat(sorted_scores, starts)
        exps = np.exp(scores - max_per_segment[index])
        denom = np.zeros(num_segments, dtype=exps.dtype)
        denom[uniq] = np.add.reduceat(exps[order], starts)
        eps = np.asarray(1e-16, dtype=scores.dtype)
        return exps / (denom[index] + eps)

    def segment_count(self, index: np.ndarray,
                      num_segments: int) -> np.ndarray:
        """Per-segment occupancy counts."""
        counts = np.bincount(index, minlength=num_segments)
        return np.maximum(counts, 1).astype(self.dtype)

    def sage_aggregate(self, h: np.ndarray, src: np.ndarray,
                       dst: np.ndarray, num_nodes: int,
                       edge_weights: np.ndarray | None = None,
                       rel_emb: np.ndarray | None = None) -> np.ndarray:
        """Fused mean-aggregation of neighbour rows per destination node."""
        out = np.zeros((num_nodes, h.shape[1]), dtype=h.dtype)
        if dst.size == 0:
            return out
        if rel_emb is not None and rel_emb.dtype != h.dtype:
            rel_emb = rel_emb.astype(h.dtype)
        if edge_weights is not None and edge_weights.dtype != h.dtype:
            edge_weights = edge_weights.astype(h.dtype)
        counts = self.segment_count(dst, num_nodes).reshape(-1, 1)
        if _sparse is not None:
            # The whole gather → (+rel) → (*w) → scatter chain as sparse
            # matmuls: the edge weight rides in the matrix values, so the
            # per-edge message matrix is never materialised at all.
            weights = (edge_weights if edge_weights is not None
                       else np.ones(dst.size, dtype=h.dtype))
            out = self._csr(weights, src, dst, num_nodes, num_nodes) @ h
            if rel_emb is not None:
                edge_ids = np.arange(dst.size, dtype=np.int64)
                out += self._csr(weights, edge_ids, dst, num_nodes,
                                 dst.size) @ rel_emb
            return out / counts
        order, uniq, starts = _segment_layout(dst, num_nodes)
        # Gather straight into sorted edge order: the unsorted message
        # matrix of the reference kernel is never materialised.
        messages = h[src[order]]
        if rel_emb is not None:
            messages += rel_emb[order]
        if edge_weights is not None:
            messages *= edge_weights[order].reshape(-1, 1)
        out[uniq] = np.add.reduceat(messages, starts, axis=0)
        return out / counts

    def weighted_gather_scatter(self, values: np.ndarray, src: np.ndarray,
                                alpha: np.ndarray, dst: np.ndarray,
                                num_nodes: int) -> np.ndarray:
        """Fused gather, per-edge scale, and scatter in one CSR matmul."""
        out = np.zeros((num_nodes, values.shape[1]), dtype=values.dtype)
        if dst.size == 0:
            return out
        if _sparse is not None:
            alpha = alpha.astype(values.dtype, copy=False)
            return self._csr(alpha, src, dst, num_nodes,
                             values.shape[0]) @ values
        order, uniq, starts = _segment_layout(dst, num_nodes)
        messages = values[src[order]] * alpha[order].reshape(-1, 1)
        out[uniq] = np.add.reduceat(messages, starts, axis=0)
        return out

    def scatter_weighted(self, messages: np.ndarray, alpha: np.ndarray,
                         dst: np.ndarray, num_nodes: int) -> np.ndarray:
        """Scatter rows scaled by per-edge weights in one CSR matmul."""
        out = np.zeros((num_nodes, messages.shape[1]),
                       dtype=messages.dtype)
        if dst.size == 0:
            return out
        if _sparse is not None:
            edge_ids = np.arange(dst.size, dtype=np.int64)
            alpha = alpha.astype(messages.dtype, copy=False)
            return self._csr(alpha, edge_ids, dst, num_nodes,
                             dst.size) @ messages
        order, uniq, starts = _segment_layout(dst, num_nodes)
        weighted = messages[order] * alpha[order].reshape(-1, 1)
        out[uniq] = np.add.reduceat(weighted, starts, axis=0)
        return out


#: Backend names :func:`make_backend` and :func:`use_backend` accept.
BACKENDS = {
    cls.name: cls
    for cls in (NumpyBackend, FusedBackend)
}

_DEFAULT = NumpyBackend()
_ACTIVE: Backend = _DEFAULT


def get_backend() -> Backend:
    """The backend currently routing tensor kernels."""
    return _ACTIVE


def set_backend(backend: Backend | str | None) -> Backend:
    """Install ``backend`` (an instance, registry name, or ``None`` for
    the exact default) as the process-global backend; returns it."""
    global _ACTIVE
    if backend is None:
        backend = _DEFAULT
    elif isinstance(backend, str):
        backend = make_backend(backend)
    _ACTIVE = backend
    return backend


@contextlib.contextmanager
def use_backend(backend: Backend | str | None):
    """Scoped :func:`set_backend`: restores the previous backend on exit.

    The model wraps its no-grad forwards in this, so an accelerated
    backend never leaks into training or into another model's inference.
    """
    previous = _ACTIVE
    set_backend(backend)
    try:
        yield _ACTIVE
    finally:
        set_backend(previous)


def make_backend(name: str, dtype=np.float64) -> Backend:
    """Instantiate a registered backend at the given compute dtype.

    The exact default — ``("numpy", float64)`` — returns the shared
    default instance, so resolving it by name allocates nothing.
    """
    if name not in BACKENDS:
        raise ValueError(
            f"unknown tensor backend {name!r}; use one of {sorted(BACKENDS)}")
    dtype = np.dtype(dtype)
    if name == "numpy" and dtype == np.float64:
        return _DEFAULT
    return BACKENDS[name](dtype=dtype)
