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
scatters, and byte-identical to the edge-list forward.  It takes a *wave*
of task graphs at once — a leading axis, data rows padded to the wave's
longest graph — so one forward serves many sessions' queries.  The cosine
head (Eq. 11) reads only query and label rows, so the grid forward's last
layer computes only those: its labels still read every data row's key and
value, but no prompt row is projected, attended or normalised there.
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
                     dst_attr: np.ndarray, pad: np.ndarray,
                     rows: np.ndarray | None = None) -> np.ndarray:
        """No-grad forward over a wave of complete (data × label) grids.

        ``h`` is ``(wave, data + labels, dim)``: each graph's data rows,
        then its label rows.  ``attr`` is the ``(wave, data, label)``
        attribute grid and ``pad`` the ``(wave, data)`` mask of padded
        data rows.  ``rows`` picks the ``(wave, k)`` data rows to compute
        (every data row when ``None``) and ``dst_attr`` is their
        C-contiguous ``(wave, label, k)`` attribute block.  Returns the
        picked data rows, then the label rows: every label still reads
        every data row's key and value, but no other data row is
        projected, attended or normalised.  Each returned row is
        byte-identical to :meth:`forward` over its graph's symmetrised
        edge list: the same elementwise ops per (data, label) pair, and
        every per-destination sum in ``np.add.at``'s order.
        """
        num_data = attr.shape[1]
        # One product over every row of the wave: a gemm row does not
        # depend on how many rows share the call (two or more).
        flat = h.reshape(-1, self.dim)
        keys = (flat @ self.key_proj.weight.data).reshape(h.shape)
        values = (flat @ self.value_proj.weight.data).reshape(h.shape)
        if rows is not None:
            picked = h[np.arange(h.shape[0])[:, None], rows]
            h = np.concatenate([picked, h[:, num_data:]], axis=1)
        queries = (h.reshape(-1, self.dim)
                   @ self.query_proj.weight.data).reshape(h.shape)
        scale = 1.0 / np.sqrt(self.dim)
        bias = self.attr_bias.data
        embedding = self.attr_embedding.weight.data
        num_dst = dst_attr.shape[2]
        data, labels = slice(None, num_data), slice(num_data, None)
        # Data rows attend over the labels (a label × data grid), label
        # rows over the data nodes (a data × label grid).  Only the
        # latter has padded sources.
        to_data = _attend_grid(queries[:, :num_dst], keys[:, labels],
                               values[:, labels], dst_attr, bias, embedding,
                               scale, None)
        to_labels = _attend_grid(queries[:, num_dst:], keys[:, data],
                                 values[:, data], attr, bias, embedding,
                                 scale, pad)
        aggregated = np.concatenate([to_data, to_labels], axis=1)
        out = (aggregated.reshape(-1, self.dim) @ self.out_proj.weight.data
               + self.out_proj.bias.data).reshape(h.shape)
        x = h + out
        # LayerNorm, mirroring nn.LayerNorm op-for-op (sum/len mean, **0.5).
        mu = x.sum(axis=-1, keepdims=True) / float(x.shape[-1])
        centered = x - mu
        var = ((centered * centered).sum(axis=-1, keepdims=True)
               / float(x.shape[-1]))
        normed = centered / (var + self.norm.eps) ** 0.5
        return normed * self.norm.gamma.data + self.norm.beta.data


def _attend_grid(queries, keys, values, attr, bias, embedding, scale, pad):
    """Attention of every destination over every source, per graph.

    Row ``s`` of ``keys[g]``/``values[g]`` is a source, row ``t`` of
    ``queries[g]`` a destination, and ``attr[g, s, t]`` the attribute of
    edge ``s → t``; ``pad[g, s]`` marks a padded source, whose logits are
    ``-inf`` so it adds an exact zero after every real source.  Returns
    one aggregated message per destination.
    """
    # The q·k sum over the feature axis is a contiguous-axis sum per
    # pair, exactly as on per-edge rows.
    logits = ((queries[:, None] * keys[:, :, None]).sum(axis=-1) * scale
              + bias[attr])
    if pad is not None:
        logits[pad] = -np.inf
    shift = logits.max(axis=1)
    shift[~np.isfinite(shift)] = 0.0
    exps = np.exp(logits - shift[:, None])
    eps = np.asarray(1e-16, dtype=logits.dtype)
    alpha = exps / (_sum_sources(exps)[:, None] + eps)
    # One message row per (source, attribute), values[s] + embedding[a],
    # gathered onto the grid: one pass instead of a gather and an add.
    wave, sources = attr.shape[:2]
    rows = values[:, :, None] + embedding
    messages = rows[np.arange(wave)[:, None, None],
                    np.arange(sources)[:, None], attr]
    messages *= alpha[..., None]
    return _sum_sources(messages)


def _sum_sources(grid: np.ndarray) -> np.ndarray:
    """Sum a C-contiguous ``(wave, source, ...)`` grid over its sources.

    ``np.add.at`` adds one source at a time, in order, onto +0.0.  numpy
    reduces a non-inner axis the same way — source row by source row —
    as long as each row holds more than one element; a one-element row
    would make the source axis the inner loop, which numpy sums
    pairwise.  Adding 0.0 turns an all-(-0.0) sum into the +0.0
    ``np.add.at`` returns.
    """
    if grid[0, 0].size == 1:
        return np.add.accumulate(grid, axis=1)[:, -1] + 0.0
    return grid.sum(axis=1) + 0.0


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

    def forward_grid(self, h: np.ndarray, attr: np.ndarray,
                     num_data: np.ndarray,
                     query_rows: np.ndarray) -> np.ndarray:
        """No-grad forward over a wave of complete bipartite task graphs.

        ``h`` is ``(wave, data + labels, dim)``: graph ``g``'s data rows
        (prompts, then queries), padded to the wave's longest graph, then
        its label rows.  ``attr`` is the ``(wave, data, labels)``
        attribute grid, so edge ``i·m + j`` of graph ``g``'s edge list is
        ``attr[g, i, j]``; ``num_data[g]`` counts its real data rows (the
        padded rows' attributes are ignored).  ``query_rows[g]`` are the
        positions of graph ``g``'s queries among its data rows.

        Returns ``(wave, queries + labels, dim)``: each graph's query
        rows, then its label rows — the only rows the cosine head reads.
        Every layer but the last computes all rows, since the next layer
        reads them; the last computes only these.  Each returned row is
        byte-identical to :meth:`forward` on its graph's own edge list.
        """
        attr = np.asarray(attr, dtype=np.int64)
        query_rows = np.asarray(query_rows, dtype=np.int64)
        # A copy, not a transposed view: blocks gathered through a view
        # come out F-ordered, and numpy would sum their sources pairwise.
        attr_t = np.ascontiguousarray(attr.transpose(0, 2, 1))
        pad = np.arange(attr.shape[1]) >= np.asarray(num_data)[:, None]
        for layer in self._modules_list[:-1]:
            h = layer.forward_grid(h, attr, attr_t, pad)
        # Every query edge carries the query attribute, so the queries'
        # block is built C-contiguous rather than gathered from attr_t.
        query_attr = np.full((attr.shape[0], attr.shape[2],
                              query_rows.shape[1]), EDGE_ATTR_QUERY,
                             dtype=np.int64)
        return self._modules_list[-1].forward_grid(h, attr, query_attr, pad,
                                                   query_rows)
