"""Sharded graph store: CSR-compatible queries with halo resolution.

:class:`ShardedGraphStore` exposes the same query surface as
:class:`~repro.graph.csr.CSRAdjacency` — ``neighbors`` /
``gather_neighbors`` / ``degree`` / ``visited_scratch``, plus the
directed ``neighbor_edges`` / ``gather_neighbor_edges`` — over a
K-way :class:`~repro.shard.partition.ShardPlan`.  Every row fetch is
routed to the owner shard's local CSR and the local destination ids are
translated back to global ids through the shard's ghost table, so callers
(the samplers) never observe the partition: the returned arrays are
bit-identical to the monolithic adjacency's, whatever ``K``.

:class:`ShardedGraphView` wraps a store in the duck-type surface of
:class:`~repro.graph.graph.Graph` that sampling and subgraph induction
consume (``undirected_adjacency``, ``adjacency.neighbor_edges`` /
``adjacency.gather_neighbor_edges``, ``node_features[...]``, ``rel``,
``relation_features``), which is what lets ``bfs_neighborhood`` /
``random_walk_neighborhood`` / ``sample_data_graph`` run unchanged on a
sharded graph.

What is sharded vs. replicated: adjacency structure and the node-feature
payload (the O(|V|·d) + O(|E|) bulk) are keyed by owner shard; small
metadata — the owner map, relation types, and relation features — is
replicated to every shard, mirroring how distributed graph stores keep
routing tables local.  In this single-host embodiment every shard lives
in one process, so sharding buys **shard-local access patterns** — the
layout, routing, and halo accounting of a distributed store — not memory
reduction.

Counters: while a task for *home shard* ``h`` runs (``home_shard`` set by
the router), every row fetch served by a shard ``k != h`` counts as one
**halo fetch** — the number the serving layer surfaces per shard in
:class:`~repro.serving.ServerStats`.  A fetch is counted once, when the
row is actually pulled from its owner: the **halo row cache** keeps every
translated row in a contiguous store keyed to the graph version, so
repeated frontier expansions over the same region are served locally
(cache hits) without re-fetching, re-translating, or re-counting.  Any
:meth:`apply_updates` flushes the cache wholesale — the graph-version
epoch from the live-update machinery is its invalidation key.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass

import numpy as np

from ..graph.delta import AppliedUpdate
from ..graph.graph import Graph
from .partition import ShardBuildContext, ShardPlan, partition_graph

_U64 = np.uint64
_EMPTY = np.empty(0, dtype=np.int64)

__all__ = ["ShardCounters", "ShardedGraphStore", "ShardedGraphView"]


def _segment_positions(starts: np.ndarray, lens: np.ndarray,
                       out_starts: np.ndarray) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """Flat ``(source, destination)`` positions of the segment copy
    ``src[starts[i]:starts[i]+lens[i]]`` →
    ``out[out_starts[i]:out_starts[i]+lens[i]]`` for all ``i``, with the
    same repeat trick as :func:`~repro.graph.csr.window_positions`."""
    if starts.size == 0:
        return _EMPTY, _EMPTY
    cum = np.cumsum(lens)
    total = int(cum[-1])
    if total == 0:
        return _EMPTY, _EMPTY
    inner = cum - lens  # exclusive prefix: segment start in flat space
    flat = np.arange(total, dtype=np.int64)
    return (flat + np.repeat(starts - inner, lens),
            flat + np.repeat(out_starts - inner, lens))


def _scatter_rows(src: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                  out: np.ndarray, out_starts: np.ndarray) -> None:
    """Copy ``src[starts[i]:starts[i]+lens[i]]`` into
    ``out[out_starts[i]:out_starts[i]+lens[i]]`` for all ``i``."""
    src_pos, out_pos = _segment_positions(starts, lens, out_starts)
    if src_pos.size:
        out[out_pos] = src[src_pos]


@dataclass
class ShardCounters:
    """Per-shard serving/sampling ledger."""

    shard_id: int = 0
    requests: int = 0        # datapoints routed to this shard
    halo_fetches: int = 0    # remote row fetches made by this shard's tasks
    worker_busy_s: float = 0.0  # wall time of this shard's encodes

    def snapshot(self) -> "ShardCounters":
        return ShardCounters(shard_id=self.shard_id, requests=self.requests,
                             halo_fetches=self.halo_fetches,
                             worker_busy_s=self.worker_busy_s)


class ShardedGraphStore:
    """K-shard graph store with a monolithic-CSR-compatible query surface."""

    def __init__(self, graph: Graph, plan: ShardPlan):
        self.plan = plan
        self.num_shards = plan.num_shards
        self.owner = plan.owner
        self.local_id = plan.local_id
        self.shards = list(plan.shards)
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges
        self.num_relations = graph.num_relations
        self.feature_dim = graph.feature_dim
        self.name = graph.name
        # Replicated metadata (small); sharded payload (large).
        self.rel = graph.rel
        self.relation_features = graph.relation_features
        self._features = [graph.node_features[sh.nodes] for sh in self.shards]
        self._scratch_pool: list[np.ndarray] = []
        #: Home shard of the task currently using this store (set by the
        #: router); fetches served by any other shard count as halo.
        self.home_shard: int | None = None
        self._halo_fetches = 0
        # Halo row cache: translated (global-id) rows in one contiguous
        # buffer, keyed by node and flushed on every graph-version bump.
        self.cache_enabled = True
        self._cache_reset(self.num_nodes)
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_invalidations = 0
        self._batched_fetches = 0
        self._prefetched_rows = 0
        # Live-update plumbing: the graph is the source of truth the
        # touched shards are rebuilt from; the owner/local-id maps become
        # private copies on the first write (the seed plan stays frozen).
        self._graph = graph
        self._graph_version = graph.version
        self._owns_maps = False

    @classmethod
    def from_graph(cls, graph: Graph, num_shards: int,
                   strategy: str = "greedy",
                   owner: np.ndarray | None = None) -> "ShardedGraphStore":
        """Partition ``graph`` and build a store; ``owner`` (restore path)
        pins the partition to an explicit owner map instead of the
        strategy's fresh assignment."""
        return cls(graph, partition_graph(graph, num_shards, strategy,
                                          owner=owner))

    def view(self) -> "ShardedGraphView":
        return ShardedGraphView(self)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def halo_fetches(self) -> int:
        """Remote row fetches since the last :meth:`reset_counters`."""
        return self._halo_fetches

    def reset_counters(self) -> None:
        self._halo_fetches = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._batched_fetches = 0
        self._prefetched_rows = 0

    def _count(self, serving_shard: int, fetches: int) -> None:
        if self.home_shard is not None and serving_shard != self.home_shard:
            self._halo_fetches += fetches

    def cache_stats(self) -> dict:
        """Halo-cache ledger (hits/misses since ``reset_counters``)."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "invalidations": self._cache_invalidations,
            "batched_fetches": self._batched_fetches,
            "prefetched_rows": self._prefetched_rows,
            "cached_rows": int((self._cache_start >= 0).sum()),
            "cached_slots": self._cache_used,
        }

    # ------------------------------------------------------------------
    # Halo row cache
    # ------------------------------------------------------------------
    def _cache_reset(self, num_nodes: int) -> None:
        self._cache_start = np.full(num_nodes, -1, dtype=np.int64)
        self._cache_len = np.zeros(num_nodes, dtype=np.int64)
        self._cache_buf = _EMPTY
        self._cache_used = 0

    def _cache_reserve(self, length: int) -> int:
        """Reserve ``length`` cache slots; returns their start offset."""
        need = self._cache_used + length
        if need > self._cache_buf.size:
            cap = max(256, 2 * self._cache_buf.size, need)
            buf = np.empty(cap, dtype=np.int64)
            buf[:self._cache_used] = self._cache_buf[:self._cache_used]
            self._cache_buf = buf
        start = self._cache_used
        self._cache_used = need
        return start

    def prefetch_rows(self, nodes: np.ndarray) -> int:
        """Warm the halo cache for ``nodes``, one grouped fetch per shard.

        The batched-frontier entry point: callers holding a micro-batch's
        worth of seed/frontier nodes pull them all in one shard
        round-trip, so the per-session expansions that follow are cache
        hits.  Returns the number of rows actually fetched.
        """
        if not self.cache_enabled:
            return 0
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size == 0:
            return 0
        missed = nodes[self._cache_start[nodes] < 0]
        if missed.size == 0:
            return 0
        self._batched_fetches += 1
        self._prefetched_rows += int(missed.size)
        self.gather_neighbors(missed)
        return int(missed.size)

    # ------------------------------------------------------------------
    # CSRAdjacency-compatible surface (undirected sampling rows)
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Undirected neighbours of ``node``, global ids, monolithic order."""
        node = int(node)
        if self.cache_enabled:
            start = int(self._cache_start[node])
            if start >= 0:
                self._cache_hits += 1
                return self._cache_buf[start:
                                       start + int(self._cache_len[node])]
        k = int(self.owner[node])
        shard = self.shards[k]
        self._count(k, 1)
        local = self.local_id[node]
        row = shard.csr.indices[shard.csr.indptr[local]:
                                shard.csr.indptr[local + 1]]
        row = shard.local_nodes[row]
        if self.cache_enabled:
            self._cache_misses += 1
            length = int(row.size)
            start = self._cache_reserve(length)
            self._cache_buf[start:start + length] = row
            self._cache_start[node] = start
            self._cache_len[node] = length
        return row

    def gather_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbour rows of ``frontier``, frontier order.

        Rows are fetched shard-by-shard (one grouped gather per shard
        touched) and scattered back into their frontier positions, so the
        result equals the monolithic
        :meth:`~repro.graph.csr.CSRAdjacency.gather_neighbors` exactly.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return np.empty(0, dtype=np.int64)
        if self.cache_enabled:
            hit = self._cache_start[frontier] >= 0
        else:
            hit = np.zeros(frontier.size, dtype=bool)
        miss = ~hit
        hit_rows = frontier[hit]
        miss_rows = frontier[miss]
        owners = self.owner[miss_rows]
        locals_ = self.local_id[miss_rows]
        lens = np.empty(frontier.size, dtype=np.int64)
        lens[hit] = self._cache_len[hit_rows]
        miss_lens = np.empty(miss_rows.size, dtype=np.int64)
        touched = np.unique(owners)
        for k in touched:
            member = owners == k
            indptr = self.shards[k].csr.indptr
            loc = locals_[member]
            miss_lens[member] = indptr[loc + 1] - indptr[loc]
        lens[miss] = miss_lens
        ends = np.cumsum(lens)
        total = int(ends[-1])
        out = np.empty(total, dtype=np.int64)
        starts = ends - lens
        # Cached rows: one fused scatter straight from the cache store.
        _scatter_rows(self._cache_buf, self._cache_start[hit_rows],
                      lens[hit], out, starts[hit])
        miss_starts = starts[miss]
        for k in touched:
            member = owners == k
            shard = self.shards[k]
            self._count(int(k), int(member.sum()))
            vals = shard.local_nodes[shard.csr.gather_neighbors(
                locals_[member])]
            seg_lens = miss_lens[member]
            if vals.size == 0:
                continue
            # Scatter each shard's concatenated rows into the positions of
            # its frontier members (same repeat trick as the CSR gather).
            cum = np.cumsum(seg_lens)
            shifts = np.repeat(miss_starts[member] - cum + seg_lens, seg_lens)
            out[np.arange(vals.size, dtype=np.int64) + shifts] = vals
        if self.cache_enabled:
            self._cache_hits += int(hit_rows.size)
            self._cache_misses += int(miss_rows.size)
            if miss_rows.size:
                self._cache_insert(miss_rows, miss_starts, miss_lens, out)
        return out

    def _cache_insert(self, rows: np.ndarray, seg_starts: np.ndarray,
                      seg_lens: np.ndarray, src: np.ndarray) -> None:
        """Bulk-adopt freshly translated rows (segments of ``src``) into
        the cache store.  Duplicate rows in one batch simply overwrite
        their earlier slots — content is identical either way."""
        total = int(seg_lens.sum())
        start = self._cache_reserve(total)
        cum = np.cumsum(seg_lens)
        new_starts = start + cum - seg_lens
        _scatter_rows(src, seg_starts, seg_lens, self._cache_buf, new_starts)
        self._cache_start[rows] = new_starts
        self._cache_len[rows] = seg_lens

    def degree(self, node: int | None = None):
        """Undirected degree of ``node``, or the full vector when ``None``.

        Degree reads hit the owner shard's index like any other row fetch
        and are counted the same way: one halo fetch per remote row (the
        full-vector form reads every shard's owned rows).  A cached row
        answers locally — no fetch, no count.
        """
        if node is not None:
            node = int(node)
            if self.cache_enabled and self._cache_start[node] >= 0:
                self._cache_hits += 1
                return int(self._cache_len[node])
            k = int(self.owner[node])
            shard = self.shards[k]
            self._count(k, 1)
            local = self.local_id[node]
            return int(shard.csr.indptr[local + 1] - shard.csr.indptr[local])
        out = np.empty(self.num_nodes, dtype=np.int64)
        for k, shard in enumerate(self.shards):
            self._count(k, shard.num_owned)
            out[shard.nodes] = np.diff(shard.csr.indptr)[:shard.num_owned]
        return out

    def visited_scratch(self) -> np.ndarray:
        """Check out a global-length all-``False`` mask (see CSRAdjacency).

        Size-checked on checkout: :meth:`apply_updates` can grow
        ``num_nodes``, and a mask parked before the growth must be retired
        rather than handed to a sampler that would index past its end.
        """
        pool = self._scratch_pool
        size = self.num_nodes
        while pool:
            mask = pool.pop()
            if mask.size == size:
                return mask
        return np.zeros(size, dtype=bool)

    def release_scratch(self, mask: np.ndarray) -> None:
        if mask.size == self.num_nodes:
            self._scratch_pool.append(mask)

    # ------------------------------------------------------------------
    # Live updates (shard-aware routing)
    # ------------------------------------------------------------------
    def _assign_owners(self, new_nodes: np.ndarray) -> np.ndarray:
        """Owner shard per new node, by the plan's strategy.

        ``hash`` stays stateless (a node's owner never depends on the rest
        of the graph); ``greedy`` sends each new node to the shard with
        the fewest owned nodes (ties to the lowest shard id) —
        deterministic, and it keeps growth balanced without reshuffling
        any existing assignment.  The greedy path runs on a
        ``(load, shard_id)`` heap — O(n log K), not O(n·K) — popping the
        same (lowest-load, lowest-id) shard ``np.argmin`` would pick.
        """
        if self.num_shards == 1:
            return np.zeros(new_nodes.size, dtype=np.int64)
        if self.plan.strategy == "hash":
            from .partition import _splitmix64

            return (_splitmix64(new_nodes) % _U64(self.num_shards)).astype(
                np.int64)
        heap = [(int(shard.num_owned), k)
                for k, shard in enumerate(self.shards)]
        heapq.heapify(heap)
        owners = np.empty(new_nodes.size, dtype=np.int64)
        for i in range(new_nodes.size):
            load, k = heapq.heappop(heap)
            owners[i] = k
            heapq.heappush(heap, (load + 1, k))
        return owners

    def apply_updates(self, applied: AppliedUpdate) -> np.ndarray:
        """Route one applied graph mutation to its owner shards.

        The mutation has already been applied to the underlying graph
        (this store holds it as source of truth); this method re-routes
        the structural change: new nodes get owner assignments, and every
        shard owning a touched node — the only shards whose slot sets or
        ghost tables can have changed — is rebuilt from the live edge
        list, refreshing its local CSR, directed rows, ghost table, and
        feature slice.  Untouched shards are left as-is byte-for-byte.

        Cost note: building the shared :class:`ShardBuildContext` sorts
        the full live edge list, so one update batch costs O(|E|) however
        few shards it touches — correct and batch-friendly, but not yet
        incremental.  Per-shard delta overlays (mirroring the monolithic
        :class:`~repro.graph.delta.DeltaAdjacency`) are the follow-up
        that makes small updates O(touched rows).

        Returns the ids of the rebuilt shards.
        """
        graph = self._graph
        if applied.version <= self._graph_version:
            return np.empty(0, dtype=np.int64)
        if not self._owns_maps:
            self.owner = self.owner.copy()
            self.local_id = self.local_id.copy()
            self._owns_maps = True
        new_nodes = applied.new_node_ids
        if new_nodes.size:
            self.owner = np.concatenate(
                [self.owner, self._assign_owners(new_nodes)])
            self.local_id = np.concatenate(
                [self.local_id, np.full(new_nodes.size, -1, dtype=np.int64)])
        touched = applied.touched_nodes
        touched_shards = (np.unique(self.owner[touched]) if touched.size
                          else np.empty(0, dtype=np.int64))
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges
        self.rel = graph.rel
        if touched_shards.size:
            context = ShardBuildContext(graph, self.owner)
            for k in touched_shards.tolist():
                shard = context.build_shard(k, self.local_id)
                self.shards[k] = shard
                self._features[k] = graph.node_features[shard.nodes]
        self._scratch_pool.clear()
        # The halo cache is keyed to the graph version: any applied update
        # invalidates it wholesale (and resizes it to the grown graph).
        self._cache_reset(self.num_nodes)
        self._cache_invalidations += 1
        self._graph_version = applied.version
        return touched_shards

    # ------------------------------------------------------------------
    # Directed rows (subgraph induction)
    # ------------------------------------------------------------------
    def neighbor_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """(global destinations, original edge ids) of ``node``'s out-edges."""
        k = int(self.owner[node])
        shard = self.shards[k]
        self._count(k, 1)
        local = int(self.local_id[node])
        lo, hi = shard.d_indptr[local], shard.d_indptr[local + 1]
        return shard.d_indices[lo:hi], shard.d_edge_ids[lo:hi]

    def gather_neighbor_edges(
            self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        """Batched :meth:`neighbor_edges`: ``(dsts, eids, lens)``.

        One grouped gather per owner shard, scattered back into ``rows``
        order; each shard is counted once per row it serves, exactly as
        the per-row fetches would count.
        """
        rows = np.asarray(rows, dtype=np.int64)
        owners = self.owner[rows]
        locals_ = self.local_id[rows]
        lens = np.empty(rows.size, dtype=np.int64)
        starts = np.empty(rows.size, dtype=np.int64)
        members = [(int(k), owners == k) for k in np.unique(owners)]
        for k, member in members:
            indptr = self.shards[k].d_indptr
            loc = locals_[member]
            starts[member] = indptr[loc]
            lens[member] = indptr[loc + 1] - starts[member]
        ends = np.cumsum(lens)
        out_starts = ends - lens
        total = int(ends[-1]) if ends.size else 0
        dsts = np.empty(total, dtype=np.int64)
        eids = np.empty(total, dtype=np.int64)
        for k, member in members:
            shard = self.shards[k]
            self._count(k, int(member.sum()))
            src_pos, out_pos = _segment_positions(
                starts[member], lens[member], out_starts[member])
            dsts[out_pos] = shard.d_indices[src_pos]
            eids[out_pos] = shard.d_edge_ids[src_pos]
        return dsts, eids, lens

    def gather_node_features(self, nodes: np.ndarray) -> np.ndarray:
        """Feature rows of global ``nodes``, assembled across shards."""
        nodes = np.asarray(nodes, dtype=np.int64)
        owners = self.owner[nodes]
        out = np.empty((nodes.size, self.feature_dim),
                       dtype=self._features[0].dtype
                       if self._features else np.float64)
        for k in np.unique(owners):
            member = owners == k
            self._count(int(k), int(member.sum()))
            out[member] = self._features[k][self.local_id[nodes[member]]]
        return out


class _ShardedDirectedAdjacency:
    """Duck-type of ``Graph.adjacency`` for subgraph induction."""

    def __init__(self, store: ShardedGraphStore):
        self._store = store

    def neighbor_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        return self._store.neighbor_edges(node)

    def gather_neighbor_edges(
            self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        return self._store.gather_neighbor_edges(rows)


class _ShardedNodeRows:
    """Duck-type of the ``graph.node_features`` array (row gather only)."""

    def __init__(self, store: ShardedGraphStore):
        self._store = store

    def __getitem__(self, nodes) -> np.ndarray:
        return self._store.gather_node_features(nodes)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._store.num_nodes, self._store.feature_dim)


class ShardedGraphView:
    """Graph-shaped facade over a :class:`ShardedGraphStore`.

    Implements exactly the surface the samplers and
    :func:`~repro.graph.subgraph.induced_subgraph` touch, so
    ``sample_data_graph(view, datapoint, ...)`` returns the same
    :class:`~repro.graph.subgraph.Subgraph` — bit-for-bit — as with the
    original monolithic :class:`~repro.graph.graph.Graph`.
    """

    def __init__(self, store: ShardedGraphStore):
        self.store = store
        self.name = f"{store.name}[sharded x{store.num_shards}]"
        self._directed = _ShardedDirectedAdjacency(store)
        self._node_rows = _ShardedNodeRows(store)

    @property
    def num_nodes(self) -> int:
        return self.store.num_nodes

    @property
    def num_edges(self) -> int:
        return self.store.num_edges

    @property
    def num_relations(self) -> int:
        return self.store.num_relations

    @property
    def feature_dim(self) -> int:
        return self.store.feature_dim

    @property
    def rel(self) -> np.ndarray:
        return self.store.rel

    @property
    def relation_features(self) -> np.ndarray | None:
        return self.store.relation_features

    @property
    def node_features(self) -> _ShardedNodeRows:
        return self._node_rows

    @property
    def adjacency(self) -> _ShardedDirectedAdjacency:
        return self._directed

    @property
    def undirected_adjacency(self) -> ShardedGraphStore:
        return self.store

    def neighbors(self, node: int) -> np.ndarray:
        return self.store.neighbors(node)

    def degree(self, node: int | None = None):
        return self.store.degree(node)

    def __repr__(self) -> str:
        return (f"ShardedGraphView(name={self.name!r}, "
                f"nodes={self.num_nodes}, edges={self.num_edges}, "
                f"shards={self.store.num_shards})")
