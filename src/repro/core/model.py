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

from ..gnn import (
    EDGE_ATTR_QUERY,
    DataGraphEncoder,
    SubgraphBatch,
    TaskGraphGNN,
    scatter_mean,
    segment_count,
)
from ..gnn.message_passing import scatter_sum_data
from ..nn import Linear, MLP, Module, Tensor
from ..nn import functional as F
from ..nn.tensor import is_grad_enabled
from ..obs.tracing import span
from .config import GraphPrompterConfig
from .task_graph import (
    build_task_graph,
    check_task_graph,
    prompt_attributes,
)

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

        Without gradients a lone subgraph is encoded as two copies and
        row 0 kept: a one-node batch would take numpy's matrix-vector
        route in the convolutions' fused products.  With
        :class:`~repro.nn.Linear`'s row-invariant products this makes
        every no-grad row byte-identical whatever batch it rides in.
        """
        if len(subgraphs) == 1 and not is_grad_enabled():
            pair = self.encode_batch(SubgraphBatch.from_subgraphs(
                subgraphs * 2, arena=arena))
            return Tensor(pair.data[:1])
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
        refined query and label embeddings.  Under ``no_grad`` this is
        :meth:`wave_logits` on a wave of one graph, byte-identical to the
        edge-list forward that training differentiates.
        """
        if not is_grad_enabled():
            return Tensor(self.wave_logits(
                [prompt_embeddings.data], [prompt_labels],
                [query_embeddings.data], num_ways)[0])
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
            h = self.task_gnn(h0, graph.src, graph.dst, graph.attr,
                              graph.num_nodes)
            query_h = h.gather_rows(graph.query_ids)
            label_h = h.gather_rows(graph.label_ids)
            return F.pairwise_cosine(query_h, label_h) * self.config.temperature

    def wave_logits(self, prompt_embeddings: list, prompt_labels: list,
                    query_embeddings: list, num_ways: int) -> np.ndarray:
        """No-grad logits ``(wave, n, m)`` of a wave of task graphs.

        Graph ``g`` holds the prompt rows ``prompt_embeddings[g]``
        labelled ``prompt_labels[g]`` and the query rows
        ``query_embeddings[g]``; every graph has ``num_ways`` label nodes
        and the same number of queries ``n``.  The wave's padded
        (graph × data × label) attribute grid and its input rows are
        filled in one pass over the concatenated prompts, checked as
        :func:`~repro.core.task_graph.build_task_graph` checks one graph.
        One padded :meth:`TaskGraphGNN.forward_grid` and one cosine head
        serve the whole wave, and each graph's logits are byte-identical
        to :meth:`task_logits` on that graph alone.  The head reads only
        the query and label rows, so the forward is handed each graph's
        query positions (after its own prompts, so a different column
        per graph) and its last layer computes only those rows.
        """
        labels = [np.asarray(graph_labels, dtype=np.int64)
                  for graph_labels in prompt_labels]
        sizes = [graph_labels.size for graph_labels in labels]
        if any(prompts.shape[0] != size
               for prompts, size in zip(prompt_embeddings, sizes)):
            raise ValueError("one label per prompt embedding required")
        num_queries = query_embeddings[0].shape[0]
        if any(queries.shape[0] != num_queries
               for queries in query_embeddings):
            raise ValueError("every graph of a wave needs the same number "
                             "of queries")
        flat_labels = np.concatenate(labels)
        check_task_graph(flat_labels, num_queries, num_ways)
        wave, dim = len(labels), query_embeddings[0].shape[1]
        num_prompts = np.array(sizes)
        num_data = num_prompts + num_queries
        width = max(sizes) + num_queries
        # Graph g's data rows: its prompts, then its queries, then
        # padding.  Row-major masks meet them in concatenated order.
        column = np.arange(width)
        is_prompt = column < num_prompts[:, None]
        is_query = ~is_prompt & (column < num_data[:, None])
        with span("task_gnn"):
            # Label nodes start at the mean of their true prompts:
            # scatter_mean's ops, every graph's labels in one scatter.
            prompts = np.concatenate(prompt_embeddings)
            label_ids = (flat_labels
                         + np.repeat(np.arange(wave), sizes) * num_ways)
            segments = wave * num_ways
            label_init = (scatter_sum_data(prompts, label_ids, segments)
                          / segment_count(label_ids, segments).reshape(-1, 1))
            h0 = np.zeros((wave, width + num_ways, dim))
            h0[:, width:] = label_init.reshape(wave, num_ways, dim)
            data = h0[:, :width]
            data[is_prompt] = prompts
            data[is_query] = np.concatenate(query_embeddings)
            attr = np.full((wave, width, num_ways), EDGE_ATTR_QUERY,
                           dtype=np.int64)
            attr[is_prompt] = prompt_attributes(flat_labels, num_ways)
            query_rows = num_prompts[:, None] + np.arange(num_queries)
            h = self.task_gnn.forward_grid(h0, attr, num_data, query_rows)
            query_h = Tensor(h[:, :num_queries])
            label_h = Tensor(h[:, num_queries:])
            cosine = (F.l2_normalize(query_h)
                      @ F.l2_normalize(label_h).transpose(0, 2, 1))
            return (cosine * self.config.temperature).data

    def predict(self, logits: Tensor) -> tuple[np.ndarray, np.ndarray]:
        """Labels and confidences from episode logits (Eq. 11)."""
        probs = F.softmax(logits, axis=-1).data
        predictions = probs.argmax(axis=-1)
        confidences = probs.max(axis=-1)
        return predictions.astype(np.int64), confidences
