"""Weighted GraphSAGE convolution — the paper's data-graph GNN (Eq. 4).

The paper uses GraphSAGE for ``GNN_D`` because "it has been proven to have
good scalability on large-scale graphs" (Sec. V-A4).  The only departure
from vanilla GraphSAGE is that messages are multiplied by the reconstruction
weights ``w_uv`` learned by the Prompt Generator (Eqs. 2–3) before the mean
aggregation, so noisy edges are attenuated.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, Tensor
from ..nn.tensor import is_grad_enabled
from .message_passing import (
    data_of,
    scatter_sum,
    scatter_sum_data,
    segment_count,
)

__all__ = ["SAGEConv"]


class SAGEConv(Module):
    """One GraphSAGE layer with optional per-edge weights.

    ``h'_u = act(W_self h_u + W_neigh · mean_{v→u} (w_uv · (h_v [+ r_uv])))``
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "relu",
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.linear_self = Linear(in_dim, out_dim, rng=rng)
        self.linear_neigh = Linear(in_dim, out_dim, bias=False, rng=rng)

    def forward(
        self,
        h: Tensor,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        edge_weights: Tensor | np.ndarray | None = None,
        rel_emb: Tensor | None = None,
    ) -> Tensor:
        if not is_grad_enabled():
            return Tensor(self._forward_data(h, src, dst, num_nodes,
                                             edge_weights, rel_emb))
        messages = h.gather_rows(src)
        if rel_emb is not None:
            messages = messages + rel_emb
        if edge_weights is not None:
            if isinstance(edge_weights, np.ndarray):
                edge_weights = Tensor(edge_weights)
            messages = messages * edge_weights.reshape(-1, 1)
        summed = scatter_sum(messages, dst, num_nodes)
        counts = segment_count(dst, num_nodes)
        aggregated = summed / Tensor(counts.reshape(-1, 1))
        out = self.linear_self(h) + self.linear_neigh(aggregated)
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        elif self.activation != "identity":
            raise ValueError(f"unknown activation {self.activation!r}")
        return out

    def _forward_data(self, h, src, dst, num_nodes, edge_weights,
                      rel_emb) -> np.ndarray:
        """Fused no-grad forward: gather → weight → scatter-mean → affine.

        Every kernel reproduces the op order of the autodiff path above,
        so inference outputs are bit-identical — just without per-op
        tensor wrapping and backward-closure bookkeeping.
        """
        hd = data_of(h)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        messages = hd[src]
        if rel_emb is not None:
            messages = messages + data_of(rel_emb)
        if edge_weights is not None:
            messages = messages * data_of(edge_weights).reshape(-1, 1)
        aggregated = (scatter_sum_data(messages, dst, num_nodes)
                      / segment_count(dst, num_nodes).reshape(-1, 1))
        out = (hd @ self.linear_self.weight.data
               + self.linear_self.bias.data
               + aggregated @ self.linear_neigh.weight.data)
        if self.activation == "relu":
            out = out * (out > 0)
        elif self.activation == "tanh":
            out = np.tanh(out)
        elif self.activation != "identity":
            raise ValueError(f"unknown activation {self.activation!r}")
        return out
