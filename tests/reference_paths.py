"""Reference implementations the equivalence suites compare against.

Each is the original, plain-Python version of a hot path that ``src/``
now runs vectorized.  They exist only to be compared against:

* :func:`bfs_legacy` / :func:`random_walk_legacy` — per-node Python-set
  samplers; :func:`repro.graph.sampling.bfs_neighborhood` and
  :func:`~repro.graph.sampling.random_walk_neighborhood` must return the
  same array for the same graph, seeds, hops, cap and RNG state;
* :func:`induced_subgraph_loop` — per-row induction (one
  ``neighbor_edges`` call, one ``np.isin`` and one dict lookup per node);
  :func:`repro.graph.subgraph.induced_subgraph` must return the same
  :class:`~repro.graph.subgraph.Subgraph` field for field, and advance
  overlay read counters and halo-fetch counters the same way;
* :func:`from_subgraphs_concat` — list-append + ``np.concatenate`` batch
  assembly; :meth:`repro.gnn.SubgraphBatch.from_subgraphs` must be
  byte-identical to it;
* :func:`task_attention_edges` — the per-edge no-grad forward of one
  task-graph attention layer (row gathers per edge, ``ufunc.at``
  scatters per destination); :func:`task_logits_edges` runs
  :meth:`repro.core.GraphPrompterModel.task_logits` with it.  The dense
  (data × label) kernel of
  :meth:`repro.gnn.TaskGraphGNN.forward_grid` must be byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.task_graph import build_task_graph
from repro.gnn.batch import SubgraphBatch, _validate
from repro.gnn.message_passing import (
    data_of,
    scatter_mean,
    scatter_sum_data,
    segment_softmax_data,
)
from repro.graph.subgraph import Subgraph
from repro.nn import Tensor, no_grad
from repro.nn import functional as F


def bfs_legacy(graph, seeds, num_hops, max_nodes, rng) -> np.ndarray:
    """Reference implementation: per-node Python loops over a visited set.

    Every frontier is canonicalised by node id before use, so expansion —
    and in particular which nodes a cap-overflow drop removes — depends
    only on the graph and the RNG state, never on hash ordering, edge
    insertion order, or the Python build.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    visited: set[int] = set(int(s) for s in seeds)
    frontier = sorted(visited)
    for _ in range(num_hops):
        if len(visited) >= max_nodes:
            break
        discovered: set[int] = set()
        for node in frontier:
            for nb in graph.neighbors(node):
                nb = int(nb)
                if nb not in visited:
                    visited.add(nb)
                    discovered.add(nb)
        next_frontier = sorted(discovered)
        if len(visited) > max_nodes:
            overflow = len(visited) - max_nodes
            if rng is not None:
                drop = rng.choice(len(next_frontier), size=overflow, replace=False)
                dropped = {next_frontier[i] for i in drop}
            else:
                # Order-stable deterministic truncation: drop the largest
                # node ids among the new frontier.
                dropped = set(next_frontier[len(next_frontier) - overflow:])
            visited -= dropped
            next_frontier = [n for n in next_frontier if n not in dropped]
        frontier = next_frontier
        if not frontier:
            break
    return np.array(sorted(visited), dtype=np.int64)


def random_walk_legacy(graph, seeds, num_hops, max_nodes, rng) -> np.ndarray:
    """Reference implementation: per-neighbour Python loop over a set."""
    rng = rng or np.random.default_rng()
    seeds = np.asarray(seeds, dtype=np.int64)
    visited: set[int] = set(int(s) for s in seeds)

    for seed in seeds:
        current = int(seed)
        for _ in range(num_hops):
            neighbors = graph.neighbors(current)
            for nb in neighbors:
                if len(visited) >= max_nodes:
                    break
                visited.add(int(nb))
            if len(visited) >= max_nodes or neighbors.size == 0:
                break
            current = int(neighbors[rng.integers(neighbors.size)])
    return np.array(sorted(visited), dtype=np.int64)


def induced_subgraph_loop(graph, node_set, centers,
                          center_relation=None) -> Subgraph:
    """Reference implementation: walk the node set's out-rows one by one."""
    node_set = np.asarray(node_set, dtype=np.int64)
    unique_nodes = np.unique(node_set)
    local_of = {int(g): i for i, g in enumerate(unique_nodes)}

    # Walk the CSR rows of the node set instead of scanning the full edge
    # list: subgraphs are tiny (tens of nodes) while source graphs are not.
    adj = graph.adjacency
    src_parts, dst_parts, rel_parts = [], [], []
    for u in unique_nodes:
        dsts, eids = adj.neighbor_edges(int(u))
        if dsts.size == 0:
            continue
        inside = np.isin(dsts, unique_nodes)
        if not inside.any():
            continue
        kept_dsts = dsts[inside]
        kept_eids = eids[inside]
        src_parts.append(np.full(kept_dsts.size, local_of[int(u)],
                                 dtype=np.int64))
        dst_parts.append(np.array([local_of[int(v)] for v in kept_dsts],
                                  dtype=np.int64))
        rel_parts.append(graph.rel[kept_eids])
    if src_parts:
        src_local = np.concatenate(src_parts)
        dst_local = np.concatenate(dst_parts)
        rel = np.concatenate(rel_parts)
    else:
        src_local = np.array([], dtype=np.int64)
        dst_local = np.array([], dtype=np.int64)
        rel = np.array([], dtype=np.int64)

    # Symmetrise for message passing.
    src_sym = np.concatenate([src_local, dst_local])
    dst_sym = np.concatenate([dst_local, src_local])
    rel_sym = np.concatenate([rel, rel])

    centers = np.asarray(centers, dtype=np.int64)
    try:
        centers_local = np.array([local_of[int(c)] for c in centers],
                                 dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"center node {exc} not inside the node set") from exc

    rel_features = None
    if graph.relation_features is not None:
        rel_features = graph.relation_features[rel_sym]

    return Subgraph(
        nodes=unique_nodes,
        src=src_sym,
        dst=dst_sym,
        rel=rel_sym,
        node_features=graph.node_features[unique_nodes],
        centers=centers_local,
        center_relation=center_relation,
        rel_features=rel_features,
    )


def from_subgraphs_concat(subgraphs: list[Subgraph]) -> SubgraphBatch:
    """Original list-append + ``np.concatenate`` assembly.

    Kept as the behavioural reference: the equivalence suite asserts the
    arena path is byte-identical.
    """
    any_weights, any_rel_features = _validate(subgraphs)
    features, srcs, dsts, rels, weights, rel_feats = [], [], [], [], [], []
    graph_index, edge_graph_index, centers = [], [], []
    offset = 0
    for i, sub in enumerate(subgraphs):
        features.append(sub.node_features)
        srcs.append(sub.src + offset)
        dsts.append(sub.dst + offset)
        rels.append(sub.rel)
        if any_weights:
            if sub.edge_weights is not None:
                weights.append(sub.edge_weights)
            else:
                weights.append(np.ones(sub.num_edges))
        if any_rel_features and sub.rel_features is not None:
            rel_feats.append(sub.rel_features)
        graph_index.append(np.full(sub.num_nodes, i, dtype=np.int64))
        edge_graph_index.append(np.full(sub.num_edges, i, dtype=np.int64))
        centers.append(sub.centers + offset)
        offset += sub.num_nodes
    return SubgraphBatch(
        node_features=np.concatenate(features, axis=0),
        src=np.concatenate(srcs),
        dst=np.concatenate(dsts),
        rel=np.concatenate(rels),
        edge_weights=np.concatenate(weights) if any_weights else None,
        rel_features=(np.concatenate(rel_feats, axis=0)
                      if any_rel_features else None),
        graph_index=np.concatenate(graph_index),
        edge_graph_index=np.concatenate(edge_graph_index),
        centers=centers,
        num_graphs=len(subgraphs),
    )


def task_attention_edges(layer, h, src, dst, attr, num_nodes) -> np.ndarray:
    """Reference implementation: one task-attention layer, edge by edge.

    ``layer`` is a ``_TaskAttentionLayer``; ``src``/``dst``/``attr`` the
    symmetrised edge list.  This was the layer's no-grad forward before
    the dense grid kernel; the weighted scatter is written out as the
    zero-init ``np.add.at`` scatter it always reduced to.
    """
    hd = data_of(h)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    attr = np.asarray(attr, dtype=np.int64)
    queries = hd @ layer.query_proj.weight.data
    keys = hd @ layer.key_proj.weight.data
    values = hd @ layer.value_proj.weight.data
    scale = 1.0 / np.sqrt(layer.dim)
    logits = ((queries[dst] * keys[src]).sum(axis=-1) * scale
              + layer.attr_bias.data[attr])
    alpha = segment_softmax_data(logits, dst, num_nodes)
    messages = values[src] + layer.attr_embedding.weight.data[attr]
    aggregated = scatter_sum_data(messages * alpha.reshape(-1, 1), dst,
                                  num_nodes)
    out = aggregated @ layer.out_proj.weight.data + layer.out_proj.bias.data
    x = hd + out
    # LayerNorm, mirroring nn.LayerNorm op-for-op (sum/len mean, **0.5).
    mu = x.sum(axis=-1, keepdims=True) / float(x.shape[-1])
    centered = x - mu
    var = ((centered * centered).sum(axis=-1, keepdims=True)
           / float(x.shape[-1]))
    normed = centered / (var + layer.norm.eps) ** 0.5
    return normed * layer.norm.gamma.data + layer.norm.beta.data


def task_logits_edges(model, prompt_embeddings, prompt_labels,
                      query_embeddings, num_ways) -> np.ndarray:
    """``model.task_logits`` under ``no_grad``, every task-GNN layer run
    by :func:`task_attention_edges` on the symmetrised edge list."""
    graph = build_task_graph(prompt_labels, query_embeddings.shape[0],
                             num_ways)
    src = np.concatenate([graph.src, graph.dst])
    dst = np.concatenate([graph.dst, graph.src])
    attr = np.concatenate([graph.attr, graph.attr])
    with no_grad():
        prompts, queries = Tensor(prompt_embeddings), Tensor(query_embeddings)
        label_init = scatter_mean(
            prompts, np.asarray(prompt_labels, dtype=np.int64), num_ways)
        h = Tensor.concatenate([prompts, queries, label_init], axis=0).data
        for layer in model.task_gnn._modules_list:
            h = task_attention_edges(layer, h, src, dst, attr,
                                     graph.num_nodes)
        h = Tensor(h)
        logits = F.pairwise_cosine(h.gather_rows(graph.query_ids),
                                   h.gather_rows(graph.label_ids))
        return (logits * model.config.temperature).data
