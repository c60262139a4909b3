"""Neighbourhood samplers — the prompt-graph generation step (Eq. 1).

Two strategies are provided:

* :func:`bfs_neighborhood` — the exact l-hop neighbourhood
  ``⊕_{i=0..l} Neighbor(V_i, G, i)`` with a node cap;
* :func:`random_walk_neighborhood` — the random-walk variant the paper uses
  for large source graphs (Sec. IV-A1, also Prodigy's sampler): start at a
  seed, absorb its neighbours, hop to a random neighbour, repeat ``l`` times,
  stop early when the subgraph hits the preset node limit.

Both expand frontiers on the CSR adjacency: one ``indptr``-slice gather per
hop (:meth:`CSRAdjacency.gather_neighbors`) followed by boolean-mask
membership tests and a canonical (sorted) dedup, with vectorized
cap-overflow subsampling; random-walk absorption is budget-chunked so hub
rows cost O(cap), not O(degree).  ``tests/reference_paths.py`` keeps the
original per-node Python-set samplers, and the equivalence suites pin these
to them **bit for bit**: for the same graph, seeds, hops, cap and RNG state
they visit nodes in the same order, draw the same random numbers, and
return the same array.

Cap-overflow policy: when a BFS hop overflows ``max_nodes``, a uniform
random subset of the *newly discovered* frontier is dropped when an ``rng``
is supplied.  Without an RNG the truncation is **order-stable**: the
overflow nodes with the largest node ids are dropped, so the result depends
only on the node-id set — never on hash ordering, discovery order, or the
Python build.

:func:`sample_data_graph` wraps either strategy and returns the re-indexed
:class:`~repro.graph.subgraph.Subgraph` for one datapoint;
:func:`sample_node_set` stops at its node set.
"""

from __future__ import annotations

import numpy as np

from .datapoints import Datapoint, EdgeInput, NodeInput
from .graph import Graph
from .subgraph import Subgraph, induced_subgraph

__all__ = [
    "bfs_neighborhood",
    "random_walk_neighborhood",
    "sample_data_graph",
    "sample_node_set",
]

#: Below this row size the walk absorption uses a scalar scan — numpy
#: kernel dispatch costs more than looping over a handful of ints.
_SCALAR_ABSORB_MAX = 48


def _check_hops(num_hops: int) -> None:
    if num_hops < 0:
        raise ValueError("num_hops must be non-negative")


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """``values`` deduplicated, keeping the first occurrence of each entry."""
    _, first = np.unique(values, return_index=True)
    return values[np.sort(first)]


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values — ``np.unique`` minus its dispatch overhead.

    The sampler hot loop calls this on tiny (degree-sized) arrays where
    ``np.unique``'s argument handling costs as much as the sort itself.
    """
    if values.size <= 1:
        return values
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


# ----------------------------------------------------------------------
# BFS
# ----------------------------------------------------------------------
def bfs_neighborhood(
    graph: Graph,
    seeds: np.ndarray,
    num_hops: int,
    max_nodes: int = 64,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Exact l-hop neighbourhood of ``seeds``, truncated at ``max_nodes``.

    When a frontier would overflow the cap, a uniform random subset of it is
    kept (requires ``rng``; falls back to order-stable truncation that drops
    the largest node ids of the overflowing frontier).
    """
    _check_hops(num_hops)
    adj = graph.undirected_adjacency
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    visited = adj.visited_scratch()
    visited[frontier] = True
    touched = [frontier]   # everything ever marked True — reset on exit
    collected = [frontier]  # the surviving node set
    count = frontier.size
    try:
        for _ in range(num_hops):
            if count >= max_nodes or frontier.size == 0:
                break
            neighbors = adj.gather_neighbors(frontier)
            fresh = neighbors[~visited[neighbors]]
            # Canonical (sorted-by-id) frontier: a plain value sort, no
            # order bookkeeping.
            new_nodes = _sorted_distinct(fresh)
            visited[new_nodes] = True
            touched.append(new_nodes)
            count += new_nodes.size
            if count > max_nodes:
                overflow = count - max_nodes
                if rng is not None:
                    # One draw: choice over canonical frontier positions.
                    keep = np.ones(new_nodes.size, dtype=bool)
                    keep[rng.choice(new_nodes.size, size=overflow,
                                    replace=False)] = False
                    visited[new_nodes[~keep]] = False
                    new_nodes = new_nodes[keep]
                else:
                    # Order-stable truncation: the frontier is sorted, so
                    # dropping the largest ids is slicing off the tail.
                    visited[new_nodes[new_nodes.size - overflow:]] = False
                    new_nodes = new_nodes[:new_nodes.size - overflow]
                count -= overflow
            collected.append(new_nodes)
            frontier = new_nodes
            if frontier.size == 0:
                break
        return np.sort(np.concatenate(collected))
    finally:
        for part in touched:
            visited[part] = False
        adj.release_scratch(visited)


# ----------------------------------------------------------------------
# Random walk
# ----------------------------------------------------------------------
def random_walk_neighborhood(
    graph: Graph,
    seeds: np.ndarray,
    num_hops: int,
    max_nodes: int = 64,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Random-walk subgraph sampler from Sec. IV-A1.

    For each seed: add the seed and its neighbours, then walk — pick a random
    neighbour, absorb *its* neighbours (duplicates removed), repeat
    ``num_hops`` times; terminate early once ``max_nodes`` distinct nodes are
    collected.

    The per-hop RNG draws (which neighbour to hop to) are state-dependent
    and stay sequential, while the O(degree) absorption step is mask +
    dedup + prefix-take numpy kernels.
    """
    _check_hops(num_hops)
    rng = rng or np.random.default_rng()
    adj = graph.undirected_adjacency
    seeds = np.asarray(seeds, dtype=np.int64)
    start = np.unique(seeds)
    visited = adj.visited_scratch()
    visited[start] = True
    collected = [start]
    count = start.size
    # Hoisted locals: the walk loop runs once per hop per seed and its
    # fixed-cost Python overhead is what the vectorized absorption must
    # stay under.  Row fetches go through the adjacency *surface*
    # (``neighbors``) rather than raw ``indptr``/``indices`` so the CSR
    # and the delta overlay drive the same walk.
    row_of = adj.neighbors
    draw = rng.integers
    append = collected.append
    try:
        for seed in seeds:
            current = int(seed)
            for _ in range(num_hops):
                neighbors = row_of(current)
                size = neighbors.size
                if count < max_nodes and size:
                    if size <= _SCALAR_ABSORB_MAX:
                        # Tiny row: a scalar scan beats kernel dispatch.
                        added = []
                        for nb in neighbors.tolist():
                            if count >= max_nodes:
                                break
                            if not visited[nb]:
                                visited[nb] = True
                                added.append(nb)
                                count += 1
                        if added:
                            append(np.array(added, dtype=np.int64))
                    else:
                        # The walk absorbs one neighbour at a time until the
                        # cap: equivalent to scanning the row in order and
                        # taking unseen distinct neighbours until the
                        # budget runs out.  Chunking bounds the scan by the
                        # budget, so a million-neighbour hub row costs
                        # O(budget), like a per-neighbour early break.
                        pos = 0
                        while count < max_nodes and pos < size:
                            chunk_len = max(4 * (max_nodes - count), 256)
                            chunk = neighbors[pos:pos + chunk_len]
                            pos += chunk_len
                            fresh = chunk[~visited[chunk]]
                            if not fresh.size:
                                continue
                            new_nodes = _sorted_distinct(fresh)
                            if new_nodes.size > max_nodes - count:
                                # Cap binds mid-chunk: fall back to
                                # discovery order to keep the same prefix
                                # as a per-neighbour scan.
                                new_nodes = _first_occurrences(
                                    fresh)[:max_nodes - count]
                            visited[new_nodes] = True
                            count += new_nodes.size
                            append(new_nodes)
                if count >= max_nodes or size == 0:
                    break
                current = int(neighbors[draw(size)])
        return np.sort(np.concatenate(collected))
    finally:
        for part in collected:
            visited[part] = False
        adj.release_scratch(visited)


# ----------------------------------------------------------------------
# Datapoint wrappers
# ----------------------------------------------------------------------
def sample_node_set(
    graph: Graph,
    datapoint: Datapoint,
    num_hops: int = 1,
    max_nodes: int = 64,
    rng: np.random.Generator | None = None,
    method: str = "random_walk",
) -> np.ndarray:
    """Sorted distinct node set of one datapoint's data graph (Eq. 1).

    Exactly the ``nodes`` of the :func:`sample_data_graph` call with the
    same arguments and RNG state, without inducing its edges.
    """
    # Samplers are looked up as module globals on every call, so a wrapper
    # installed on this module sees each sampling call.
    if method == "random_walk":
        sampler = random_walk_neighborhood
    elif method == "bfs":
        sampler = bfs_neighborhood
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    if not isinstance(datapoint, (EdgeInput, NodeInput)):
        raise TypeError(f"unsupported datapoint type {type(datapoint)!r}")
    return sampler(graph, datapoint.nodes, num_hops, max_nodes, rng)


def sample_data_graph(
    graph: Graph,
    datapoint: Datapoint,
    num_hops: int = 1,
    max_nodes: int = 64,
    rng: np.random.Generator | None = None,
    method: str = "random_walk",
) -> Subgraph:
    """Contextualise one datapoint into its data graph ``G_i^D`` (Eq. 1)."""
    node_set = sample_node_set(graph, datapoint, num_hops, max_nodes, rng,
                               method)
    return induced_subgraph(graph, node_set, datapoint.nodes,
                            center_relation=datapoint.relation)
