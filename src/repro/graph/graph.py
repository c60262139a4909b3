"""The attributed, relation-typed graph container ``G = (V, E, R)``.

Matches Definition 1 of the paper: nodes ``V``, edges ``E`` and relations
``R``, where each edge ``e = (u, r, v)`` carries a relation type.  Node
features drive the GNN encoders; node labels support node-classification
episodes (arXiv-style) and edge relation types double as edge-classification
labels (FB15K-237 / NELL / ConceptNet-style).

Live updates: the container is immutable until the first write.
:meth:`Graph.apply_updates` (or the granular :meth:`add_nodes` /
:meth:`add_edges` / :meth:`remove_edges`) mutates in place through
:class:`~repro.graph.delta.DeltaAdjacency` overlays, keeping every read —
both samplers and subgraph induction — bit-identical to a
from-scratch rebuild over the live edge list.  Edge ids are append-only
and stable: removed edges keep their array positions (tombstoned, never
served), so datapoints and datasets referencing edges by id stay valid
across mutations and :meth:`compact`.  ``version`` is the epoch counter
caches key their invalidation on.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRAdjacency
from .delta import AppliedUpdate, DeltaAdjacency, GraphUpdate

__all__ = ["Graph"]

_EMPTY = np.empty(0, dtype=np.int64)


class Graph:
    """Attributed multigraph with typed edges (mutable via delta overlays).

    Parameters
    ----------
    num_nodes:
        Number of nodes ``|V|``.
    src, dst:
        Edge endpoint arrays of equal length ``|E|``.
    rel:
        Relation type per edge (``|E|``, defaults to all-zero = untyped).
    node_features:
        Dense feature matrix ``(|V|, d)``; required by the encoders.
    node_labels:
        Optional integer class per node (node-classification datasets).
    num_relations:
        Size of the relation vocabulary ``|R|``; inferred when omitted.
    relation_features:
        Optional dense feature per relation ``(|R|, d_rel)``.  Like the
        BERT/OGB text embeddings of the paper's KGs, these live in a shared
        semantic space so a model pre-trained on one KG can consume another
        KG's relations without a per-dataset embedding table.
    name:
        Human-readable dataset name.
    """

    def __init__(
        self,
        num_nodes: int,
        src: np.ndarray,
        dst: np.ndarray,
        rel: np.ndarray | None = None,
        node_features: np.ndarray | None = None,
        node_labels: np.ndarray | None = None,
        num_relations: int | None = None,
        relation_features: np.ndarray | None = None,
        name: str = "graph",
    ):
        if num_nodes <= 0:
            raise ValueError("graph must have at least one node")
        self.num_nodes = int(num_nodes)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if self.src.shape != self.dst.shape:
            raise ValueError("src/dst length mismatch")
        if rel is None:
            rel = np.zeros_like(self.src)
        self.rel = np.asarray(rel, dtype=np.int64)
        if self.rel.shape != self.src.shape:
            raise ValueError("rel length must equal the number of edges")
        if self.src.size and (self.src.min() < 0 or self.src.max() >= num_nodes
                              or self.dst.min() < 0 or self.dst.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        if num_relations is None:
            num_relations = int(self.rel.max()) + 1 if self.rel.size else 1
        if self.rel.size and self.rel.max() >= num_relations:
            raise ValueError("relation id exceeds num_relations")
        self.num_relations = int(num_relations)

        if node_features is None:
            node_features = np.zeros((num_nodes, 1), dtype=np.float64)
        self.node_features = np.asarray(node_features, dtype=np.float64)
        if self.node_features.shape[0] != num_nodes:
            raise ValueError("node_features first dim must equal num_nodes")

        self.relation_features = None
        if relation_features is not None:
            self.relation_features = np.asarray(relation_features,
                                                dtype=np.float64)
            if self.relation_features.shape[0] != self.num_relations:
                raise ValueError(
                    "relation_features first dim must equal num_relations")

        self.node_labels = None
        if node_labels is not None:
            self.node_labels = np.asarray(node_labels, dtype=np.int64)
            if self.node_labels.shape != (num_nodes,):
                raise ValueError("node_labels must be (num_nodes,)")

        self.name = name
        self._adj: CSRAdjacency | DeltaAdjacency | None = None
        self._undirected_adj: CSRAdjacency | DeltaAdjacency | None = None
        #: Epoch counter: bumped by every mutation; caches that derive
        #: from graph reads invalidate against it.
        self.version = 0
        #: Liveness per edge-id (``None`` = everything alive).  Removed
        #: edges keep their array slots so external ids stay stable.
        self.edge_alive: np.ndarray | None = None
        #: Auto-compaction trigger: once the adjacency overlay (deltas +
        #: tombstones) exceeds this fraction of the live slots, the next
        #: mutation rebuilds clean CSR bases.  ``None`` = manual only.
        self.compact_threshold: float | None = None
        self._mutated = False
        self._compactions = 0

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Size of the edge-id space (live edges plus tombstones)."""
        return int(self.src.shape[0])

    @property
    def num_live_edges(self) -> int:
        """Edges that are actually present (excludes removed ones)."""
        if self.edge_alive is None:
            return self.num_edges
        return int(self.edge_alive.sum())

    @property
    def feature_dim(self) -> int:
        return int(self.node_features.shape[1])

    @property
    def num_node_classes(self) -> int:
        if self.node_labels is None:
            return 0
        return int(self.node_labels.max()) + 1

    @property
    def adjacency(self) -> CSRAdjacency | DeltaAdjacency:
        """Directed out-adjacency (built lazily, cached).

        A plain CSR until the first mutation; a
        :class:`~repro.graph.delta.DeltaAdjacency` after — same query
        surface either way (``neighbor_edges`` returns stable edge ids).
        """
        if self._adj is None:
            if self._mutated:
                src, dst, _, eids = self.live_edges()
                self._adj = DeltaAdjacency.directed(
                    self.num_nodes, src, dst, eids, id_space=self.num_edges)
            else:
                self._adj = CSRAdjacency(self.num_nodes, self.src, self.dst)
        return self._adj

    @property
    def undirected_adjacency(self) -> CSRAdjacency | DeltaAdjacency:
        """Symmetrised adjacency used by neighbourhood samplers.

        On the immutable path, edge ids in this view index into the
        *doubled* edge list; ids below ``num_edges`` are forward edges,
        ids above are their reverses — use :meth:`edge_id_to_original` to
        map back.  After the first mutation this becomes a two-lane
        :class:`~repro.graph.delta.DeltaAdjacency` whose rows stay
        bit-identical to a from-scratch rebuild of the live edge list.
        """
        if self._undirected_adj is None:
            if self._mutated:
                src, dst, _, eids = self.live_edges()
                self._undirected_adj = DeltaAdjacency.undirected(
                    self.num_nodes, src, dst, eids, id_space=self.num_edges)
            else:
                both_src = np.concatenate([self.src, self.dst])
                both_dst = np.concatenate([self.dst, self.src])
                self._undirected_adj = CSRAdjacency(self.num_nodes, both_src,
                                                    both_dst)
        return self._undirected_adj

    def edge_id_to_original(self, edge_id: int | np.ndarray):
        """Map an undirected-view edge id back to the original edge id.

        Only meaningful for the immutable doubled-list view; a promoted
        (mutated) graph's undirected overlay already reports external
        ids, so the mapping is the identity there.
        """
        if self._mutated:
            return np.asarray(edge_id)
        return np.asarray(edge_id) % self.num_edges

    def neighbors(self, node: int) -> np.ndarray:
        """Undirected neighbours of ``node`` (paper's ``Neighbor`` function)."""
        return self.undirected_adjacency.neighbors(node)

    def degree(self, node: int | None = None):
        """Undirected degree."""
        return self.undirected_adjacency.degree(node)

    # ------------------------------------------------------------------
    def edge_endpoints(self, edge_id: int) -> tuple[int, int, int]:
        """Return ``(u, r, v)`` for an edge id."""
        return int(self.src[edge_id]), int(self.rel[edge_id]), int(self.dst[edge_id])

    def edges_between(self, u: int, v: int) -> np.ndarray:
        """Ids of directed edges from ``u`` to ``v``."""
        dsts, eids = self.adjacency.neighbor_edges(u)
        return eids[dsts == v]

    # ------------------------------------------------------------------
    # Live mutations (delta-overlay write path)
    # ------------------------------------------------------------------
    def live_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
        """``(src, dst, rel, edge_ids)`` of the live edges, canonical order.

        Canonical order — original positions with removals filtered out,
        appended edges at the tail — is exactly the edge list a
        from-scratch rebuild consumes, which is why overlay reads and
        rebuild reads are bit-identical.
        """
        eids = np.arange(self.num_edges, dtype=np.int64)
        if self.edge_alive is None:
            return self.src, self.dst, self.rel, eids
        keep = self.edge_alive
        return self.src[keep], self.dst[keep], self.rel[keep], eids[keep]

    def _promote_overlays(self) -> None:
        """Wrap plain CSR caches into delta overlays before the first write.

        Wrapping reuses the built CSR as the overlay base (no re-sort).
        Unbuilt adjacencies stay ``None`` — their lazy build reads
        :meth:`live_edges` and therefore starts as a clean overlay.
        """
        if self._mutated:
            return
        self._mutated = True
        if isinstance(self._adj, CSRAdjacency):
            self._adj = DeltaAdjacency.wrap_directed(self._adj,
                                                     self.num_edges)
        if isinstance(self._undirected_adj, CSRAdjacency):
            self._undirected_adj = DeltaAdjacency.wrap_undirected(
                self._undirected_adj, self.num_edges)

    def add_nodes(self, node_features: np.ndarray,
                  node_labels: np.ndarray | None = None) -> np.ndarray:
        """Append nodes; returns their ids (contiguous at the top).

        ``node_features`` must be ``(count, feature_dim)``.  When the
        graph carries node labels, new labels default to class 0 unless
        given.  New nodes start isolated — wire them with
        :meth:`add_edges`.
        """
        features, labels = self._checked_nodes(node_features, node_labels)
        count = int(features.shape[0])
        if count == 0:
            return _EMPTY
        self._promote_overlays()
        first = self.num_nodes
        self.num_nodes += count
        self.node_features = np.concatenate([self.node_features, features])
        if self.node_labels is not None:
            self.node_labels = np.concatenate([self.node_labels, labels])
        for adj in (self._adj, self._undirected_adj):
            if isinstance(adj, DeltaAdjacency):
                adj.grow(count)
        self.version += 1
        return np.arange(first, self.num_nodes, dtype=np.int64)

    def add_edges(self, src, dst, rel=None) -> np.ndarray:
        """Append live edges; returns their (stable) edge ids."""
        src, dst, rel = self._checked_edges(src, dst, rel, self.num_nodes)
        if src.size == 0:
            return _EMPTY
        self._promote_overlays()
        first = self.num_edges
        eids = np.arange(first, first + src.size, dtype=np.int64)
        self.src = np.concatenate([self.src, src])
        self.dst = np.concatenate([self.dst, dst])
        self.rel = np.concatenate([self.rel, rel])
        if self.edge_alive is not None:
            self.edge_alive = np.concatenate(
                [self.edge_alive, np.ones(src.size, dtype=bool)])
        directed = self._adj if isinstance(self._adj, DeltaAdjacency) else None
        undirected = (self._undirected_adj
                      if isinstance(self._undirected_adj, DeltaAdjacency)
                      else None)
        for eid, u, v in zip(eids.tolist(), src.tolist(), dst.tolist()):
            if directed is not None:
                directed.append_slot(u, v, eid)
            if undirected is not None:
                undirected.append_slot(u, v, eid, lane=0)
                undirected.append_slot(v, u, eid, lane=1)
        self.version += 1
        self._auto_compact()
        return eids

    def remove_edges(self, edge_ids) -> None:
        """Tombstone live edges by id (ids stay allocated, never served)."""
        ids = np.asarray(edge_ids, dtype=np.int64).reshape(-1)
        self._check_removals(ids, self.num_edges)
        if ids.size == 0:
            return
        self._promote_overlays()
        if self.edge_alive is None:
            self.edge_alive = np.ones(self.num_edges, dtype=bool)
        self.edge_alive[ids] = False
        directed = self._adj if isinstance(self._adj, DeltaAdjacency) else None
        undirected = (self._undirected_adj
                      if isinstance(self._undirected_adj, DeltaAdjacency)
                      else None)
        for eid in ids.tolist():
            if directed is not None:
                directed.remove_slot(eid)
            if undirected is not None:
                undirected.remove_slot(eid, lane=0)
                undirected.remove_slot(eid, lane=1)
        self.version += 1
        self._auto_compact()

    # Each write validates before its first change, so a refused batch
    # leaves the graph as it was.  The edge and removal rules take the
    # node or edge count to check against, so check_update can count
    # what the earlier stages of the same batch add.
    def _checked_nodes(self, node_features, node_labels):
        """``(features, labels)`` of an :meth:`add_nodes` batch; ``labels``
        is ``None`` when the graph carries none or the batch is empty."""
        features = np.asarray(node_features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.feature_dim:
            raise ValueError("node_features must be (count, feature_dim)")
        count = int(features.shape[0])
        if not count or self.node_labels is None:
            return features, None
        if node_labels is None:
            return features, np.zeros(count, dtype=np.int64)
        labels = np.asarray(node_labels, dtype=np.int64).reshape(-1)
        if labels.shape != (count,):
            raise ValueError("node_labels must be (count,)")
        return features, labels

    def _checked_edges(self, src, dst, rel, num_nodes: int):
        """``(src, dst, rel)`` of an :meth:`add_edges` batch whose
        endpoints must lie below ``num_nodes``."""
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if src.size == 0:
            return src, dst, rel
        if (src.min() < 0 or src.max() >= num_nodes
                or dst.min() < 0 or dst.max() >= num_nodes):
            raise ValueError("edge endpoint out of range")
        if rel is None:
            return src, dst, np.zeros(src.size, dtype=np.int64)
        rel = np.asarray(rel, dtype=np.int64).reshape(-1)
        if rel.shape != src.shape:
            raise ValueError("rel length must equal the number of edges")
        if rel.size and (rel.min() < 0 or rel.max() >= self.num_relations):
            raise ValueError("relation id exceeds num_relations")
        return src, dst, rel

    def _check_removals(self, ids: np.ndarray, num_edges: int) -> None:
        """Refuse a :meth:`remove_edges` batch unless its ids are distinct
        live edges below ``num_edges``; ids at or past :attr:`num_edges`
        name edges the same batch adds, which are live."""
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= num_edges:
            raise ValueError("edge id out of range")
        if np.unique(ids).size != ids.size:
            raise ValueError("duplicate edge id in removal batch")
        if (self.edge_alive is not None
                and not self.edge_alive[ids[ids < self.num_edges]].all()):
            raise ValueError("edge already removed")

    def check_update(self, update: GraphUpdate) -> None:
        """Raise ``ValueError`` when :meth:`apply_updates` would refuse
        ``update``; writes nothing.

        The batch is checked as it applies: edge endpoints may name the
        nodes it adds, and removals may name the edges it adds.
        """
        num_nodes = self.num_nodes
        if update.add_node_features is not None:
            features, _ = self._checked_nodes(update.add_node_features,
                                              update.add_node_labels)
            num_nodes += features.shape[0]
        add_src = np.asarray(update.add_src, dtype=np.int64).reshape(-1)
        add_dst = np.asarray(update.add_dst, dtype=np.int64).reshape(-1)
        if add_src.size:
            self._checked_edges(add_src, add_dst, update.add_rel, num_nodes)
        self._check_removals(
            np.asarray(update.remove_edges, dtype=np.int64).reshape(-1),
            self.num_edges + add_src.size)

    def apply_updates(self, update: GraphUpdate) -> AppliedUpdate:
        """Apply one mutation batch; returns the invalidation receipt.

        The whole batch is checked first (:meth:`check_update`), so a
        refused batch changes nothing.  Order: nodes are added first (so
        new edges may land on them), then edges are added, then removals
        are applied.  The built overlays then rebuild every row the batch
        wrote (see :meth:`DeltaAdjacency.settle`), so the batch's whole
        cost is paid here rather than by the first read after it.
        """
        self.check_update(update)
        compactions = self._compactions
        new_nodes = _EMPTY
        if update.add_node_features is not None:
            new_nodes = self.add_nodes(update.add_node_features,
                                       update.add_node_labels)
        add_src = np.asarray(update.add_src, dtype=np.int64).reshape(-1)
        add_dst = np.asarray(update.add_dst, dtype=np.int64).reshape(-1)
        new_edges = (self.add_edges(add_src, add_dst, update.add_rel)
                     if add_src.size else _EMPTY)
        removed = np.asarray(update.remove_edges,
                             dtype=np.int64).reshape(-1)
        if removed.size:
            self.remove_edges(removed)
        for adj in (self._adj, self._undirected_adj):
            if isinstance(adj, DeltaAdjacency):
                adj.settle()
        touched = np.unique(np.concatenate(
            [new_nodes, add_src, add_dst,
             self.src[removed], self.dst[removed]]))
        return AppliedUpdate(
            version=self.version, new_edge_ids=new_edges,
            removed_edge_ids=removed, touched_nodes=touched,
            compacted=self._compactions > compactions)

    def rebuild(self) -> "Graph":
        """A fresh immutable :class:`Graph` over the live edge list.

        The differential reference for every mutation: overlay reads are
        bit-identical to the rebuild's (note the rebuild renumbers edge
        ids — only *content* equality is meaningful across it).  Carries
        all metadata (features, labels, relation features, name).
        """
        src, dst, rel, _ = self.live_edges()
        return Graph(
            self.num_nodes, src.copy(), dst.copy(), rel=rel.copy(),
            node_features=self.node_features.copy(),
            node_labels=None if self.node_labels is None
            else self.node_labels.copy(),
            num_relations=self.num_relations,
            relation_features=None if self.relation_features is None
            else self.relation_features.copy(),
            name=self.name)

    @property
    def overlay_fraction(self) -> float:
        """Largest overlay fraction across the built adjacency views."""
        fractions = [adj.overlay_fraction()
                     for adj in (self._adj, self._undirected_adj)
                     if isinstance(adj, DeltaAdjacency)]
        return max(fractions) if fractions else 0.0

    def _auto_compact(self) -> None:
        threshold = self.compact_threshold
        if threshold is not None and self.overlay_fraction > threshold:
            self.compact()

    def compact(self) -> None:
        """Fold overlays back into clean CSR bases (edge ids unchanged).

        Edge arrays are left as-is — the id space never renumbers — only
        the adjacency structures are rebuilt from :meth:`live_edges`,
        into overlays whose stores alias their clean bases.
        """
        if not self._mutated:
            return
        src, dst, _, eids = self.live_edges()
        if self._adj is not None:
            self._adj = DeltaAdjacency.directed(
                self.num_nodes, src, dst, eids, id_space=self.num_edges)
        if self._undirected_adj is not None:
            self._undirected_adj = DeltaAdjacency.undirected(
                self.num_nodes, src, dst, eids, id_space=self.num_edges)
        self._compactions += 1

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, relations={self.num_relations}, "
            f"feature_dim={self.feature_dim})"
        )
