"""Attention GNN over the bipartite task graph ``G^T`` (Eq. 10).

The task graph connects data nodes (prompts + queries) with label nodes.
Each edge carries two attributes — prompt vs. query, and T/F class match
(Sec. III-B) — embedded and injected into both the attention logits and the
messages, "the attention-based graph model following Prodigy" (Sec. V-A4).

Message passing runs over both edge directions so label embeddings aggregate
their connected prompts, and query embeddings absorb label context.

Training runs the autodiff layers over the symmetrised edge list.  Every
data node is wired to every label node (as in PRODIGY), so inference runs
:meth:`TaskGraphGNN.forward_grid` instead: the same attention computed as
dense (data, label) blocks, with no per-edge gathers or ``ufunc.at``
scatters, and byte-identical to the edge-list forward.
"""

from __future__ import annotations

import numpy as np

from ..nn import Embedding, LayerNorm, Linear, Module, Parameter, Tensor
from .message_passing import scatter_sum, segment_softmax

__all__ = ["TaskGraphGNN", "EDGE_ATTR_PROMPT_TRUE", "EDGE_ATTR_PROMPT_FALSE",
           "EDGE_ATTR_QUERY", "NUM_EDGE_ATTRS"]

EDGE_ATTR_PROMPT_TRUE = 0   # prompt→label edge, label matches ("T")
EDGE_ATTR_PROMPT_FALSE = 1  # prompt→label edge, label differs ("F")
EDGE_ATTR_QUERY = 2         # query→label edge, label unknown ("?")
NUM_EDGE_ATTRS = 3


class _TaskAttentionLayer(Module):
    """One residual attention layer over the task graph."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.query_proj = Linear(dim, dim, bias=False, rng=rng)
        self.key_proj = Linear(dim, dim, bias=False, rng=rng)
        self.value_proj = Linear(dim, dim, bias=False, rng=rng)
        # Zero-initialised output projection: the layer starts as a
        # (normalised) identity, so the untrained head already matches the
        # nearest-centroid geometry of the label initialisation and only
        # learns beneficial perturbations.
        self.out_proj = Linear(dim, dim, rng=rng)
        self.out_proj.weight.data[:] = 0.0
        self.attr_embedding = Embedding(NUM_EDGE_ATTRS, dim, rng=rng)
        self.attr_bias = Parameter(np.zeros(NUM_EDGE_ATTRS))
        self.norm = LayerNorm(dim)

    def forward(self, h: Tensor, src: np.ndarray, dst: np.ndarray,
                attr: np.ndarray, num_nodes: int) -> Tensor:
        queries = self.query_proj(h)
        keys = self.key_proj(h)
        values = self.value_proj(h)
        scale = 1.0 / np.sqrt(self.dim)
        logits = (
            (queries.gather_rows(dst) * keys.gather_rows(src)).sum(axis=-1)
            * scale
            + self.attr_bias.gather_rows(attr)
        )
        alpha = segment_softmax(logits, dst, num_nodes)
        messages = values.gather_rows(src) + self.attr_embedding(attr)
        weighted = messages * alpha.reshape(-1, 1)
        aggregated = scatter_sum(weighted, dst, num_nodes)
        return self.norm(h + self.out_proj(aggregated))

    def forward_grid(self, h: np.ndarray, attr: np.ndarray,
                     attr_t: np.ndarray) -> np.ndarray:
        """No-grad forward over the complete (data × label) grid.

        ``h`` holds the data rows, then the label rows; ``attr`` is the
        (data, label) attribute grid and ``attr_t`` its C-contiguous
        transpose.  Byte-identical to :meth:`forward` over the
        symmetrised edge list: the same elementwise ops per (data, label)
        pair, and every per-destination sum in ``np.add.at``'s order.
        """
        num_data = attr.shape[0]
        queries = h @ self.query_proj.weight.data
        keys = h @ self.key_proj.weight.data
        values = h @ self.value_proj.weight.data
        scale = 1.0 / np.sqrt(self.dim)
        bias = self.attr_bias.data
        embedding = self.attr_embedding.weight.data
        data, labels = slice(None, num_data), slice(num_data, None)
        # Data rows attend over the labels (a label × data grid), label
        # rows over the data nodes (a data × label grid).
        to_data = _attend_grid(queries[data], keys[labels], values[labels],
                               attr_t, bias, embedding, scale)
        to_labels = _attend_grid(queries[labels], keys[data], values[data],
                                 attr, bias, embedding, scale)
        aggregated = np.concatenate([to_data, to_labels])
        out = aggregated @ self.out_proj.weight.data + self.out_proj.bias.data
        x = h + out
        # LayerNorm, mirroring nn.LayerNorm op-for-op (sum/len mean, **0.5).
        mu = x.sum(axis=-1, keepdims=True) / float(x.shape[-1])
        centered = x - mu
        var = ((centered * centered).sum(axis=-1, keepdims=True)
               / float(x.shape[-1]))
        normed = centered / (var + self.norm.eps) ** 0.5
        return normed * self.norm.gamma.data + self.norm.beta.data


def _attend_grid(queries, keys, values, attr, bias, embedding, scale):
    """Attention of every destination over every source of a grid.

    Row ``s`` of ``keys``/``values`` is a source, row ``t`` of ``queries``
    a destination, and ``attr[s, t]`` the attribute of edge ``s → t``.
    Returns one aggregated message per destination.
    """
    # The q·k sum over the feature axis is a contiguous-axis sum per
    # pair, exactly as on per-edge rows.
    logits = ((queries[None] * keys[:, None]).sum(axis=-1) * scale
              + bias[attr])
    shift = logits.max(axis=0)
    shift[~np.isfinite(shift)] = 0.0
    exps = np.exp(logits - shift)
    eps = np.asarray(1e-16, dtype=logits.dtype)
    alpha = exps / (_sum_sources(exps) + eps)
    # One message row per (source, attribute), values[s] + embedding[a],
    # gathered onto the grid: one pass instead of a gather and an add.
    rows = values[:, None] + embedding[None]
    messages = rows[np.arange(keys.shape[0])[:, None], attr]
    messages *= alpha[..., None]
    return _sum_sources(messages)


def _sum_sources(grid: np.ndarray) -> np.ndarray:
    """Sum a C-contiguous grid over its leading (source) axis.

    ``np.add.at`` adds one source at a time, in order, onto +0.0.  numpy
    reduces a leading axis the same way — row by row — as long as each
    row holds more than one element; a one-element row would make the
    source axis the inner loop, which numpy sums pairwise.  Adding 0.0
    turns an all-(-0.0) sum into the +0.0 ``np.add.at`` returns.
    """
    if grid[0].size == 1:
        return np.add.accumulate(grid, axis=0)[-1] + 0.0
    return grid.sum(axis=0) + 0.0


class TaskGraphGNN(Module):
    """Stack of task-graph attention layers producing ``H`` (Eq. 10)."""

    def __init__(self, dim: int, num_layers: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("need at least one task-graph layer")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self._modules_list = [_TaskAttentionLayer(dim, rng)
                              for _ in range(num_layers)]

    def forward(self, h: Tensor, src: np.ndarray, dst: np.ndarray,
                attr: np.ndarray, num_nodes: int) -> Tensor:
        """Forward over an edge list (the training path)."""
        # Symmetrise: each edge acts in both directions with the same attr.
        src_sym = np.concatenate([src, dst])
        dst_sym = np.concatenate([dst, src])
        attr_sym = np.concatenate([attr, attr])
        for layer in self._modules_list:
            h = layer(h, src_sym, dst_sym, attr_sym, num_nodes)
        return h

    def forward_grid(self, h: np.ndarray, attr: np.ndarray) -> np.ndarray:
        """No-grad forward over a complete bipartite task graph.

        ``h`` stacks the data rows (prompts, then queries) and then the
        label rows; ``attr`` is the (data, label) attribute grid, so edge
        ``i·m + j`` of :meth:`forward`'s edge list is ``attr[i, j]``.  The
        result is byte-identical to :meth:`forward` on that edge list.
        """
        attr = np.asarray(attr, dtype=np.int64)
        # A copy, not a ``.T`` view: blocks gathered through a view come
        # out F-ordered, and numpy would sum their sources pairwise.
        attr_t = np.ascontiguousarray(attr.T)
        for layer in self._modules_list:
            h = layer.forward_grid(h, attr, attr_t)
        return h
