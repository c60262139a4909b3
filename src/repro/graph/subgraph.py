"""Subgraph views — the "data graphs" of the paper.

A :class:`Subgraph` is the contextualisation ``G_i^D`` of one input datapoint
``x_i`` (a node or an edge): the sampled l-hop neighbourhood re-indexed to
local ids, carrying its node features, relation types, and the local ids of
the input's *center* nodes (one for node tasks, head/tail pair for edge
tasks).  The Prompt Generator attaches learned edge weights ``W_i^D`` to turn
it into the reconstructed data graph ``G'_i^D`` (Eqs. 2–4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

__all__ = ["Subgraph", "induced_subgraph"]


@dataclass
class Subgraph:
    """An extracted neighbourhood re-indexed to local node ids."""

    nodes: np.ndarray                 # original node ids, shape (n_local,)
    src: np.ndarray                   # local edge sources
    dst: np.ndarray                   # local edge destinations
    rel: np.ndarray                   # relation type per edge
    node_features: np.ndarray         # (n_local, d)
    centers: np.ndarray               # local ids of the input datapoint nodes
    center_relation: int | None = None  # relation of the input edge, if any
    edge_weights: np.ndarray | None = field(default=None)  # W_i^D, set by generator
    rel_features: np.ndarray | None = field(default=None)  # (num_edges, d_rel)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.int64)
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.rel = np.asarray(self.rel, dtype=np.int64)
        self.centers = np.asarray(self.centers, dtype=np.int64)
        if self.src.shape != self.dst.shape or self.src.shape != self.rel.shape:
            raise ValueError("edge array length mismatch")
        if self.node_features.shape[0] != self.nodes.shape[0]:
            raise ValueError("feature rows must match local node count")
        n = self.nodes.shape[0]
        for arr, label in ((self.src, "src"), (self.dst, "dst"),
                           (self.centers, "centers")):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise ValueError(f"{label} contains out-of-range local ids")
        if (self.rel_features is not None
                and self.rel_features.shape[0] != self.src.shape[0]):
            raise ValueError("rel_features must have one row per edge")

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    def with_edge_weights(self, weights: np.ndarray) -> "Subgraph":
        """Return a copy carrying reconstruction weights ``W_i^D`` (Eq. 3)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.num_edges,):
            raise ValueError("weights must be one scalar per edge")
        return Subgraph(
            nodes=self.nodes,
            src=self.src,
            dst=self.dst,
            rel=self.rel,
            node_features=self.node_features,
            centers=self.centers,
            center_relation=self.center_relation,
            edge_weights=weights,
            rel_features=self.rel_features,
        )


def induced_subgraph(
    graph: Graph,
    node_set: np.ndarray,
    centers: np.ndarray,
    center_relation: int | None = None,
) -> Subgraph:
    """Build the subgraph induced by ``node_set`` with both edge directions.

    ``centers`` are original node ids (must be inside ``node_set``); they are
    mapped to local ids.  Each original directed edge inside the node set is
    emitted in both directions so that message passing reaches the head from
    the tail and vice versa.

    The out-rows of the sorted node set come from one batched gather
    (``gather_neighbor_edges``) instead of a scan of the full edge list:
    subgraphs are tiny (tens of nodes) while source graphs are not.  A
    node's local id is its position in the sorted set, so one
    ``searchsorted`` answers both membership and re-indexing.
    """
    node_set = np.asarray(node_set, dtype=np.int64)
    unique_nodes = np.unique(node_set)
    last = unique_nodes.size - 1

    dsts, eids, lens = graph.adjacency.gather_neighbor_edges(unique_nodes)
    pos = np.searchsorted(unique_nodes, dsts)
    # Destinations past the largest member land at ``size``: clamp them
    # onto a real slot so the equality test rejects them.
    inside = unique_nodes[np.minimum(pos, last)] == dsts
    src_local = np.repeat(np.arange(unique_nodes.size, dtype=np.int64),
                          lens)[inside]
    dst_local = pos[inside]
    rel = graph.rel[eids[inside]]

    # Symmetrise for message passing.
    src_sym = np.concatenate([src_local, dst_local])
    dst_sym = np.concatenate([dst_local, src_local])
    rel_sym = np.concatenate([rel, rel])

    centers = np.asarray(centers, dtype=np.int64)
    centers_local = np.searchsorted(unique_nodes, centers)
    for center, local in zip(centers.tolist(), centers_local.tolist()):
        if local > last or unique_nodes[local] != center:
            raise ValueError(f"center node {center} not inside the node set")

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
