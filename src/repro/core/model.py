"""The GraphPrompter model: encoder, reconstruction, selection, task GNN.

This module owns every *parameterised* piece of the architecture (all
trained jointly in pre-training, Alg. 1):

* the data-graph encoder ``GNN_D`` (Eq. 4),
* the reconstruction layers scoring subgraph edges (Eqs. 2–3),
* the selection layers scoring prompt importance (Eq. 5),
* the attention task-graph GNN ``GNN_T`` (Eq. 10) and the cosine
  classification head (Eq. 11).

The non-parametric stages — kNN retrieval (Eq. 6–8) and the LFU prompt
cache (Eq. 9) — live in :mod:`repro.core.prompt_selector` and
:mod:`repro.core.prompt_augmenter`; they wrap this model at inference time.
"""

from __future__ import annotations

import numpy as np

from ..gnn import DataGraphEncoder, SubgraphBatch, TaskGraphGNN, scatter_mean
from ..nn import Linear, MLP, Module, Tensor
from ..nn import functional as F
from ..nn.tensor import is_grad_enabled
from ..obs.tracing import span
from .config import GraphPrompterConfig
from .task_graph import build_task_graph

__all__ = ["GraphPrompterModel"]


class GraphPrompterModel(Module):
    """All trainable components of GraphPrompter.

    Every weight shape is independent of the dataset's label and relation
    vocabularies — relations enter through *feature vectors* in a shared
    semantic space (as BERT text embeddings do in the original) — so one
    pre-trained state dict loads onto any downstream graph, which is the
    cross-domain requirement of Sec. V-A2.

    Parameters
    ----------
    feature_dim:
        Node feature width of the source graph (shared across datasets).
    num_relations:
        Relation vocabulary size of the *current* graph.  Metadata only;
        weight shapes do not depend on it.
    config:
        Architecture + stage configuration.
    """

    def __init__(self, feature_dim: int, num_relations: int = 1,
                 config: GraphPrompterConfig | None = None):
        super().__init__()
        self.config = (config or GraphPrompterConfig()).validate()
        rng = np.random.default_rng(self.config.seed)
        hidden = self.config.hidden_dim
        self.feature_dim = feature_dim
        self.num_relations = num_relations

        self.encoder = DataGraphEncoder(
            feature_dim=feature_dim,
            hidden_dim=hidden,
            num_layers=self.config.num_gnn_layers,
            conv=self.config.conv,
            rng=rng,
        )
        # Reconstruction layers (Eq. 2): node tasks score concat(V(u), V(v)),
        # edge tasks score the edge's own (relation-feature) embedding.
        # The scorer network is pluggable (paper's Further Discussion):
        # "mlp" (Eq. 2), "bilinear", or "cosine_gate".
        self.recon_feat_proj = Linear(feature_dim, hidden, rng=rng)
        self.recon_rel_proj = Linear(feature_dim, hidden, rng=rng)
        scorer = self.config.recon_scorer
        if scorer == "mlp":
            self.recon_node_mlp = MLP([2 * hidden, hidden, 1], rng=rng)
            self.recon_rel_mlp = MLP([hidden, hidden, 1], rng=rng)
        elif scorer == "bilinear":
            from ..nn import Parameter
            from ..nn import init as _init
            self.recon_bilinear = Parameter(
                _init.xavier_uniform(rng, hidden, hidden))
            self.recon_rel_vec = Parameter(
                _init.xavier_uniform(rng, hidden, 1, shape=(hidden,)))
        else:  # cosine_gate
            from ..nn import Parameter
            self.recon_scale = Parameter(np.array([1.0]))
            self.recon_bias = Parameter(np.array([0.0]))
        # Selection layers (Eq. 5).
        self.selection_mlp = MLP([hidden, hidden, 1], rng=rng)
        # Task-graph attention GNN (Eq. 10).
        self.task_gnn = TaskGraphGNN(hidden,
                                     num_layers=self.config.num_task_layers,
                                     rng=rng)

    # ------------------------------------------------------------------
    # Stage 1 — Prompt Generator (reconstruction)
    # ------------------------------------------------------------------
    def reconstruction_weights(self, batch: SubgraphBatch) -> Tensor:
        """Edge weights ``w_uv = σ(MLP_φ(·))`` for every batch edge (Eqs. 2–3)."""
        if batch.num_edges == 0:
            return Tensor(np.zeros(0))
        scorer = self.config.recon_scorer
        x = self.recon_feat_proj(Tensor(batch.node_features))
        h_u = x.gather_rows(batch.src)
        h_v = x.gather_rows(batch.dst)
        if batch.rel_features is not None:
            # Edge classification: each edge has its own initial embedding.
            rel_h = self.recon_rel_proj(Tensor(batch.rel_features))
            if scorer == "mlp":
                z = self.recon_rel_mlp(rel_h)
            elif scorer == "bilinear":
                z = rel_h @ self.recon_rel_vec
            else:  # cosine_gate: relation vs mean endpoint agreement
                mid = (h_u + h_v) * 0.5
                z = (F.cosine_similarity(rel_h, mid) * self.recon_scale
                     + self.recon_bias)
        else:
            if scorer == "mlp":
                z = self.recon_node_mlp(
                    Tensor.concatenate([h_u, h_v], axis=1))
            elif scorer == "bilinear":
                z = ((h_u @ self.recon_bilinear) * h_v).sum(axis=-1)
            else:  # cosine_gate: endpoint agreement
                z = (F.cosine_similarity(h_u, h_v) * self.recon_scale
                     + self.recon_bias)
        return z.reshape(-1).sigmoid()

    def encode_batch(self, batch: SubgraphBatch) -> Tensor:
        """Subgraph embeddings ``G_i`` (Eq. 4), reconstructed when enabled."""
        with span("forward"):
            weights = None
            if self.config.use_reconstruction:
                weights = self.reconstruction_weights(batch)
            return self.encoder(batch, edge_weights=weights)

    def encode_subgraphs(self, subgraphs: list, arena=None) -> Tensor:
        """Batch a list of subgraphs and encode it.

        ``arena`` optionally supplies reusable batch buffers
        (:class:`~repro.gnn.BatchArena`); the serving loop passes one so
        micro-batch ticks recycle the large batch arrays instead of
        reallocating them.
        """
        return self.encode_batch(SubgraphBatch.from_subgraphs(subgraphs,
                                                              arena=arena))

    # ------------------------------------------------------------------
    # Stage 2a — selection layers
    # ------------------------------------------------------------------
    def importance(self, embeddings: Tensor) -> Tensor:
        """Prompt importance ``I_p = σ(MLP_θ(G_p))`` (Eq. 5)."""
        return self.selection_mlp(embeddings).reshape(-1).sigmoid()

    def weight_by_importance(self, embeddings: Tensor,
                             importance: Tensor) -> Tensor:
        """``G'_p = G_p · I_p`` — the ``G_SI`` inputs of the task graph."""
        return embeddings * importance.reshape(-1, 1)

    # ------------------------------------------------------------------
    # Task graph + prediction head
    # ------------------------------------------------------------------
    def task_logits(self, prompt_embeddings: Tensor,
                    prompt_labels: np.ndarray,
                    query_embeddings: Tensor,
                    num_ways: int) -> Tensor:
        """Episode logits ``(n, m)`` via the task graph (Eqs. 10–11).

        Label nodes are initialised with the mean embedding of their true
        prompts, then refined by the attention GNN together with prompt and
        query nodes; the logit is the scaled cosine similarity between the
        refined query and label embeddings.  Under ``no_grad`` the GNN runs
        its dense (data × label) kernel, byte-identical to the edge-list
        forward that training differentiates.
        """
        prompt_labels = np.asarray(prompt_labels, dtype=np.int64)
        if prompt_embeddings.shape[0] != prompt_labels.shape[0]:
            raise ValueError("one label per prompt embedding required")
        graph = build_task_graph(prompt_labels, query_embeddings.shape[0],
                                 num_ways)
        with span("task_gnn"):
            label_init = scatter_mean(prompt_embeddings, prompt_labels,
                                      num_ways)
            h0 = Tensor.concatenate(
                [prompt_embeddings, query_embeddings, label_init], axis=0)
            if is_grad_enabled():
                h = self.task_gnn(h0, graph.src, graph.dst, graph.attr,
                                  graph.num_nodes)
            else:
                h = Tensor(self.task_gnn.forward_grid(h0.data,
                                                      graph.attr_grid))
            query_h = h.gather_rows(graph.query_ids)
            label_h = h.gather_rows(graph.label_ids)
            return F.pairwise_cosine(query_h, label_h) * self.config.temperature

    def predict(self, logits: Tensor) -> tuple[np.ndarray, np.ndarray]:
        """Labels and confidences from episode logits (Eq. 11)."""
        probs = F.softmax(logits, axis=-1).data
        predictions = probs.argmax(axis=-1)
        confidences = probs.max(axis=-1)
        return predictions.astype(np.int64), confidences
