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
  :meth:`repro.gnn.TaskGraphGNN.forward_grid` must be byte-identical;
* :func:`select_loop` — prompt selection with a per-class loop for the
  pool's classes and centroids, one stable ``argsort`` per query for the
  votes and one per class for the pick;
  :meth:`repro.core.PromptSelector.select` must pick the same indices,
  and :meth:`~repro.core.PromptSelector.pool_state` must hold the same
  classes, members and centroid bytes as :func:`pool_state_loop`;
* :class:`StackingAugmenter` — the Augmenter that re-stacks its cached
  embeddings on every read (:func:`stacked_cached_prompts`,
  :func:`stacked_record_hits`); :class:`repro.core.PromptAugmenter`'s
  slot block must return, count and evict the same;
* :func:`serve_per_query` — the serving loop that answered a micro-batch
  one request at a time in arrival order, each through
  :func:`predict_per_query` (the selection loop, the stacking Augmenter
  reads, the per-edge task logits, softmax, Augmenter update); the wave
  loop of :meth:`repro.serving.PromptServer._process_scoped` must return
  the same prediction and confidence bytes;
* :func:`encoding_is_stale` — whether an applied graph update changed
  what one encoding read, decided with Python sets;
  :meth:`repro.serving.memo.UpdateFootprint.stale` must mark stale the
  same candidates and memo entries.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cache import make_cache
from repro.core import CacheEntry
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
from repro.serving import ServeResult


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


def similarity_reference(queries, prompts, metric="cosine") -> np.ndarray:
    """Reference implementation of ``pairwise_similarity``: both sides
    normalised (cosine) or differenced in the same call."""
    queries = np.asarray(queries, dtype=np.float64)
    prompts = np.asarray(prompts, dtype=np.float64)
    if metric == "cosine":
        qn = queries / np.maximum(np.linalg.norm(queries, axis=1,
                                                 keepdims=True), 1e-12)
        pn = prompts / np.maximum(np.linalg.norm(prompts, axis=1,
                                                 keepdims=True), 1e-12)
        return qn @ pn.T
    diff = queries[:, None, :] - prompts[None, :, :]
    if metric == "euclidean":
        return -np.sqrt((diff**2).sum(axis=-1))
    return -np.abs(diff).sum(axis=-1)


def pool_state_loop(config, prompt_embeddings, candidate_labels):
    """Reference implementation: a pool's ``(classes, members,
    centroids)``, one ``np.nonzero`` and one ``.mean`` per class."""
    candidate_labels = np.asarray(candidate_labels, dtype=np.int64)
    classes = np.unique(candidate_labels)
    members = tuple(np.nonzero(candidate_labels == cls)[0]
                    for cls in classes)
    centroids = None
    if config.use_knn:
        centroids = np.stack([prompt_embeddings[rows].mean(axis=0)
                              for rows in members])
    return classes, members, centroids


def select_loop(selector, prompt_embeddings, prompt_importance,
                query_embeddings, query_importance, candidate_labels,
                shots) -> np.ndarray:
    """Reference implementation of ``PromptSelector.select``: per-query
    votes and a per-class pick, each a stable ``argsort`` in a loop.
    ``selector`` supplies the config (and, with every adaptive stage
    off, the RNG of the random pick)."""
    config = selector.config
    _, members_of, centroids = pool_state_loop(config, prompt_embeddings,
                                               candidate_labels)
    if not (config.use_knn or config.use_selection_layers):
        selected = []
        for members in members_of:
            take = min(shots, members.size)
            choice = selector.rng.choice(members, size=take, replace=False)
            selected.append(np.sort(choice))
        return np.concatenate(selected)

    n, p = query_embeddings.shape[0], prompt_embeddings.shape[0]
    score_matrix = np.zeros((n, p))
    if config.use_knn:
        score_matrix += similarity_reference(
            query_embeddings, prompt_embeddings, config.knn_metric)
    if config.use_selection_layers:
        score_matrix += np.outer(query_importance, prompt_importance)

    votes = np.zeros(p)
    routed = None
    if config.use_knn:
        routed = similarity_reference(query_embeddings, centroids,
                                      config.knn_metric).argmax(axis=1)
    for q in range(n):
        pool = np.arange(p) if routed is None else members_of[routed[q]]
        take = min(shots, pool.size)
        top = pool[np.argsort(-score_matrix[q, pool], kind="stable")[:take]]
        votes[top] += score_matrix[q, top]
    fallback = score_matrix.mean(axis=0)

    selected = []
    for members in members_of:
        take = min(shots, members.size)
        keys = votes[members] + 1e-6 * fallback[members]
        winners = members[np.argsort(-keys, kind="stable")[:take]]
        selected.append(np.sort(winners))
    return np.concatenate(selected)


def stacked_cached_prompts(augmenter):
    """Reference implementation of ``PromptAugmenter.cached_prompts``:
    the entries' own embeddings, stacked in the cache's iteration
    order."""
    entries = [value for _, value in augmenter.cache.items()]
    if not entries:
        return (np.zeros((0, 0)), np.zeros(0, dtype=np.int64))
    embeddings = np.stack([e.embedding for e in entries])
    labels = np.array([e.pseudo_label for e in entries], dtype=np.int64)
    return embeddings, labels


def stacked_record_hits(augmenter, query_embeddings, top_k) -> int:
    """Reference implementation of ``PromptAugmenter.record_hits``: the
    entries' embeddings stacked, then one ``argsort`` and one touch loop
    per query row."""
    cache = augmenter.cache
    keys = [key for key, _ in cache.items()]
    if not keys or query_embeddings.shape[0] == 0:
        return 0
    embeddings = np.stack([cache.peek(k).embedding for k in keys])
    sims = similarity_reference(query_embeddings, embeddings,
                                augmenter.config.knn_metric)
    hits = 0
    take = min(top_k, len(keys))
    for row in sims:
        for idx in np.argsort(-row)[:take]:
            if cache.touch(keys[idx]):
                hits += 1
    return hits


class StackingAugmenter:
    """Reference implementation of ``PromptAugmenter``: no row block,
    every read re-stacks the cached entries' embeddings."""

    def __init__(self, config, rng=None):
        self.config = config.validate()
        self.cache = make_cache(config.cache_policy, config.cache_size)
        self.rng = np.random.default_rng(rng)
        self._next_key = 0
        self._stale_evictions = 0

    def __len__(self) -> int:
        return len(self.cache)

    def cached_prompts(self):
        return stacked_cached_prompts(self)

    def record_hits(self, query_embeddings, top_k) -> int:
        return stacked_record_hits(self, query_embeddings, top_k)

    def update(self, query_embeddings, predictions, confidences) -> int:
        predictions = np.asarray(predictions, dtype=np.int64)
        confidences = np.asarray(confidences, dtype=np.float64)
        if query_embeddings.shape[0] == 0:
            return 0
        inserted = 0
        for cls in np.unique(predictions):
            members = np.nonzero(predictions == cls)[0]
            if self.config.random_pseudo_labels:
                chosen = int(self.rng.choice(members))
            else:
                chosen = int(members[np.argmax(confidences[members])])
            entry = CacheEntry(
                embedding=np.array(query_embeddings[chosen], copy=True),
                pseudo_label=int(cls),
                confidence=float(confidences[chosen]),
            )
            self.cache.put(self._next_key, entry)
            self._next_key += 1
            inserted += 1
        return inserted

    def invalidate(self) -> int:
        dropped = len(self.cache)
        if dropped:
            self.cache.clear()
        self._stale_evictions += dropped
        return dropped

    def stats(self):
        return replace(self.cache.stats(),
                       stale_evictions=self._stale_evictions)

    def reset(self) -> None:
        self.cache.clear()
        self._next_key = 0
        self._stale_evictions = 0


def predict_per_query(pipeline, session, query_emb, query_importance):
    """Reference implementation: one session's query rows, alone.

    Selection is :func:`select_loop` on the session's current arrays (no
    stored selector state), the Augmenter is read by stacking its
    entries (:func:`stacked_cached_prompts`,
    :func:`stacked_record_hits`), and the task logits come from the
    per-edge forward of :func:`task_logits_edges`.
    """
    config = pipeline.config
    augmenter = session.augmenter
    if config.use_knn or config.use_selection_layers:
        selected = select_loop(
            pipeline.selector, session.candidate_emb,
            session.candidate_importance, query_emb, query_importance,
            session.pool_labels, session.shots)
    else:
        selected = np.arange(session.candidate_emb.shape[0])
    prompt_emb = session.candidate_emb[selected]
    prompt_labels = session.pool_labels[selected]
    if config.use_selection_layers:
        prompt_emb = prompt_emb * session.candidate_importance[selected, None]
    if config.use_augmenter and len(augmenter):
        cache_emb, cache_labels = stacked_cached_prompts(augmenter)
        prompt_emb = np.concatenate([prompt_emb, cache_emb], axis=0)
        prompt_labels = np.concatenate([prompt_labels, cache_labels])
    logits = task_logits_edges(pipeline.model, prompt_emb, prompt_labels,
                               query_emb, session.num_ways)
    preds, confs = pipeline.model.predict(Tensor(logits))
    inserted = 0
    if config.use_augmenter:
        stacked_record_hits(augmenter, query_emb, session.shots)
        stored = query_emb
        if config.use_selection_layers:
            stored = query_emb * query_importance[:, None]
        inserted = augmenter.update(stored, preds, confs)
    return preds, confs, inserted


def serve_per_query(server, batch) -> list:
    """Reference implementation: one micro-batch, request by request.

    The same encoded rows as the server's own tick; then, in arrival
    order, each request refreshes its session if stale and predicts with
    :func:`predict_per_query`.  Install it as ``server._process_scoped``.
    """
    start = server.clock()
    emb, importance, nodes = server.pipeline.encode_points(
        [request.datapoint for request in batch], arena=server.arena)
    results = []
    for i, request in enumerate(batch):
        wait_s = max(start - request.submitted_at, 0.0)
        try:
            session = server.sessions.get(request.session_id)
        except KeyError:
            results.append(ServeResult(
                request_id=request.request_id, session_id=request.session_id,
                prediction=-1, confidence=0.0, batch_size=len(batch),
                wait_s=wait_s, service_s=0.0, error="session-expired"))
            continue
        if session.stale:
            server._refresh_session(session)
        preds, confs, _ = predict_per_query(
            server.pipeline, session, emb[i:i + 1], importance[i:i + 1])
        if server._mutable:
            session.record_query_nodes(nodes[i])
        service_s = max(server.clock() - start, 0.0)
        session.stats.record(wait_s, service_s, server.clock())
        results.append(ServeResult(
            request_id=request.request_id, session_id=request.session_id,
            prediction=int(preds[0]), confidence=float(confs[0]),
            batch_size=len(batch), wait_s=wait_s, service_s=service_s))
    return results


def encoding_is_stale(graph, applied, datapoint, node_set,
                      num_hops: int) -> bool:
    """Reference rule: did ``applied`` change what the encoding of
    ``datapoint``, sampled as ``node_set``, read?

    Its sampler read the rows of its seeds (at most one hop) or of its
    whole node set (deeper), and induction read the edges with both ends
    in the node set.  Stale when a read row is touched or an added or
    removed edge has both ends in the set.
    """
    members = {int(n) for n in node_set}
    read = ({int(n) for n in datapoint.nodes} if num_hops <= 1
            else members)
    if read & set(applied.touched_nodes.tolist()):
        return True
    changed = np.concatenate([applied.new_edge_ids,
                              applied.removed_edge_ids]).tolist()
    return any(int(graph.src[e]) in members and int(graph.dst[e]) in members
               for e in changed)
