"""Graph attention convolution (Veličković et al.) for the Fig. 4 ablation.

The paper compares GAT against GraphSAGE as the prompt-generator GNN
(Sec. V-D2): GAT learns edge importance through attention rather than the
reconstruction MLP, making it the natural "structure learning" alternative.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, Parameter, Tensor
from ..nn import init as _init
from ..nn.tensor import is_grad_enabled
from .message_passing import (
    data_of,
    scatter_sum,
    scatter_sum_data,
    segment_softmax,
    segment_softmax_data,
)

__all__ = ["GATConv"]


class GATConv(Module):
    """Multi-head GAT layer with optional relation terms and edge weights.

    Per head: ``e_uv = LeakyReLU(a_s·Wh_u + a_d·Wh_v [+ a_r·r_uv])``
    followed by a softmax over each target's incoming edges; head outputs
    are concatenated (``out_dim`` must divide evenly).  External
    ``edge_weights`` multiply the attention coefficients of every head.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "relu",
                 num_heads: int = 1, negative_slope: float = 0.2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_heads < 1 or out_dim % num_heads != 0:
            raise ValueError("out_dim must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.activation = activation
        self.negative_slope = negative_slope
        self.linear = Linear(in_dim, out_dim, bias=False, rng=rng)
        self.linear_self = Linear(in_dim, out_dim, rng=rng)
        self.attn_src = Parameter(_init.xavier_uniform(
            rng, out_dim, 1, shape=(num_heads, self.head_dim)))
        self.attn_dst = Parameter(_init.xavier_uniform(
            rng, out_dim, 1, shape=(num_heads, self.head_dim)))
        self.attn_rel = Parameter(_init.xavier_uniform(
            rng, in_dim, 1, shape=(num_heads, in_dim)))

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
        transformed = self.linear(h)
        if edge_weights is not None and isinstance(edge_weights, np.ndarray):
            edge_weights = Tensor(edge_weights)

        head_outputs = []
        for head in range(self.num_heads):
            lo = head * self.head_dim
            hi = lo + self.head_dim
            head_h = transformed[:, lo:hi]
            scores_src = (head_h * self.attn_src[head]).sum(axis=-1)
            scores_dst = (head_h * self.attn_dst[head]).sum(axis=-1)
            edge_scores = (scores_src.gather_rows(src)
                           + scores_dst.gather_rows(dst))
            if rel_emb is not None:
                edge_scores = edge_scores + (
                    rel_emb * self.attn_rel[head]).sum(axis=-1)
            edge_scores = edge_scores.leaky_relu(self.negative_slope)
            alpha = segment_softmax(edge_scores, dst, num_nodes)
            if edge_weights is not None:
                alpha = alpha * edge_weights
            messages = head_h.gather_rows(src) * alpha.reshape(-1, 1)
            head_outputs.append(scatter_sum(messages, dst, num_nodes))
        aggregated = (head_outputs[0] if self.num_heads == 1
                      else Tensor.concatenate(head_outputs, axis=1))
        out = self.linear_self(h) + aggregated
        if self.activation == "relu":
            out = out.relu()
        elif self.activation == "tanh":
            out = out.tanh()
        elif self.activation != "identity":
            raise ValueError(f"unknown activation {self.activation!r}")
        return out

    def _forward_data(self, h, src, dst, num_nodes, edge_weights,
                      rel_emb) -> np.ndarray:
        """Fused no-grad forward, bit-identical to the autodiff path."""
        hd = data_of(h)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        rel_d = data_of(rel_emb) if rel_emb is not None else None
        weights_d = (data_of(edge_weights)
                     if edge_weights is not None else None)
        transformed = hd @ self.linear.weight.data

        head_outputs = []
        for head in range(self.num_heads):
            lo = head * self.head_dim
            hi = lo + self.head_dim
            head_h = transformed[:, lo:hi]
            scores_src = (head_h * self.attn_src.data[head]).sum(axis=-1)
            scores_dst = (head_h * self.attn_dst.data[head]).sum(axis=-1)
            edge_scores = scores_src[src] + scores_dst[dst]
            if rel_d is not None:
                edge_scores = edge_scores + (
                    rel_d * self.attn_rel.data[head]).sum(axis=-1)
            edge_scores = edge_scores * np.where(edge_scores > 0, 1.0,
                                                 self.negative_slope)
            alpha = segment_softmax_data(edge_scores, dst, num_nodes)
            if weights_d is not None:
                alpha = alpha * weights_d
            head_outputs.append(scatter_sum_data(
                head_h[src] * alpha.reshape(-1, 1), dst, num_nodes))
        aggregated = (head_outputs[0] if self.num_heads == 1
                      else np.concatenate(head_outputs, axis=1))
        out = ((hd @ self.linear_self.weight.data
                + self.linear_self.bias.data) + aggregated)
        if self.activation == "relu":
            out = out * (out > 0)
        elif self.activation == "tanh":
            out = np.tanh(out)
        elif self.activation != "identity":
            raise ValueError(f"unknown activation {self.activation!r}")
        return out
