"""Reference implementations the equivalence suites compare against.

Each is the original, plain-Python version of a hot path that ``src/``
now runs vectorized.  They exist only to be compared against:

* :func:`bfs_legacy` / :func:`random_walk_legacy` — per-node Python-set
  samplers; :func:`repro.graph.sampling.bfs_neighborhood` and
  :func:`~repro.graph.sampling.random_walk_neighborhood` must return the
  same array for the same graph, seeds, hops, cap and RNG state;
* :func:`from_subgraphs_concat` — list-append + ``np.concatenate`` batch
  assembly; :meth:`repro.gnn.SubgraphBatch.from_subgraphs` must be
  byte-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.batch import SubgraphBatch, _validate
from repro.graph.subgraph import Subgraph


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
