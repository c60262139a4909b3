"""Edge-cut graph partitioner: K shards with stable global↔local id maps.

The partitioner splits one :class:`~repro.graph.graph.Graph` into ``K``
shards.  Nodes are assigned to exactly one *owner* shard by a pluggable
strategy; every **directed edge** is then assigned to the shard owning its
source node (so each original edge lives on exactly one shard), and every
**undirected edge-slot** ``u → v`` of the symmetrised sampling view lives on
the shard owning ``u``.  Cross-shard destinations appear on the owning shard
as *ghost* nodes — local placeholders the store resolves through the
global↔local maps at query time (halo resolution).

Two strategies:

* ``"hash"`` — owner is a splitmix64 hash of the node id modulo ``K``.
  Stateless and stable under graph growth (a node's owner never depends on
  the rest of the graph), at the price of ignoring locality entirely.
* ``"greedy"`` — greedy balance: nodes in decreasing undirected-degree
  order are assigned to the currently lightest shard (load = assigned
  degree mass + 1 per node).  Deterministic (ties broken by node id, then
  lowest shard id) and markedly better edge balance on skewed degree
  distributions.

Bit-identity contract: each shard's local undirected CSR is built from the
doubled edge list *in global construction order*, so every owned node's
local row enumerates exactly the same destinations in exactly the same
order as the monolithic :attr:`Graph.undirected_adjacency` row — the
property the sharded samplers rely on to reproduce monolithic outputs
draw-for-draw.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRAdjacency, csr_row_positions
from ..graph.graph import Graph

__all__ = [
    "PARTITION_STRATEGIES",
    "GraphShard",
    "ShardPlan",
    "ShardBuildContext",
    "partition_nodes",
    "partition_graph",
]

PARTITION_STRATEGIES = ("greedy", "hash")

_U64 = np.uint64


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit mix (splitmix64 finalizer), vectorized."""
    z = values.astype(_U64) + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def partition_nodes(graph: Graph, num_shards: int,
                    strategy: str = "greedy") -> np.ndarray:
    """Owner shard per node, shape ``(num_nodes,)`` with values in [0, K)."""
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(f"unknown partition strategy {strategy!r}; "
                         f"use one of {PARTITION_STRATEGIES}")
    node_ids = np.arange(graph.num_nodes, dtype=np.int64)
    if num_shards == 1:
        return np.zeros(graph.num_nodes, dtype=np.int64)
    if strategy == "hash":
        return (_splitmix64(node_ids) % _U64(num_shards)).astype(np.int64)
    # Greedy balance: heaviest nodes first onto the lightest shard.  The
    # heap orders by (load, shard id) so ties resolve deterministically.
    degrees = np.asarray(graph.degree(), dtype=np.int64)
    order = np.argsort(-degrees, kind="stable")
    owner = np.empty(graph.num_nodes, dtype=np.int64)
    heap = [(0, k) for k in range(num_shards)]
    for node in order:
        load, k = heapq.heappop(heap)
        owner[node] = k
        # +1 per node keeps zero-degree nodes spreading evenly too.
        heapq.heappush(heap, (load + int(degrees[node]) + 1, k))
    return owner


@dataclass(frozen=True)
class GraphShard:
    """One shard: owned nodes, their undirected/directed rows, id maps.

    Local node-id space: owned nodes first (``0 .. num_owned-1``, in
    ascending global-id order), ghost nodes after (``num_owned ..``, also
    ascending).  ``local_nodes`` maps local → global for both ranges.
    """

    shard_id: int
    nodes: np.ndarray        # owned global ids, ascending, (num_owned,)
    local_nodes: np.ndarray  # local -> global, owned then ghosts
    num_owned: int
    csr: CSRAdjacency        # undirected rows of owned nodes, local ids
    d_indptr: np.ndarray     # directed row pointer over owned nodes
    d_indices: np.ndarray    # directed destinations, *global* ids
    d_edge_ids: np.ndarray   # original edge id per directed slot

    @property
    def edge_ids(self) -> np.ndarray:
        """Original directed edge ids assigned to this shard (src-owned).

        Across all shards every edge id appears exactly once — the
        edge-cut invariant the partitioner tests pin.
        """
        return self.d_edge_ids

    @property
    def num_ghosts(self) -> int:
        return int(self.local_nodes.size) - self.num_owned


@dataclass(frozen=True)
class ShardPlan:
    """A complete K-way partition of one graph."""

    num_shards: int
    strategy: str
    owner: np.ndarray        # (num_nodes,) owner shard per node
    local_id: np.ndarray     # (num_nodes,) local id on the owner shard
    shards: tuple[GraphShard, ...]


class ShardBuildContext:
    """Live-edge arrays one K-way (re)build shares across its shards.

    Built from the graph's **live** edge list (``Graph.live_edges`` —
    identical to ``src``/``dst`` on an unmutated graph), so the same
    per-shard builder serves both the initial partition and
    :meth:`~repro.shard.store.ShardedGraphStore.apply_updates`, which
    rebuilds only the shards a mutation touched.  Directed rows carry the
    graph's stable external edge ids.
    """

    def __init__(self, graph: Graph, owner: np.ndarray):
        src, dst, _, eids = graph.live_edges()
        self.num_nodes = graph.num_nodes
        self.owner = owner
        # Doubled (symmetrised) edge list in the exact order the monolithic
        # undirected view is built from — filtering it per shard preserves
        # the within-row destination order bit-for-bit.
        self.both_src = np.concatenate([src, dst])
        self.both_dst = np.concatenate([dst, src])
        self.slot_owner = owner[self.both_src]
        dcsr = CSRAdjacency(graph.num_nodes, src, dst)
        self.d_indptr = dcsr.indptr
        self.d_indices = dcsr.indices
        self.d_eids = eids[dcsr.edge_ids] if eids.size else eids

    def build_shard(self, k: int, local_id: np.ndarray) -> GraphShard:
        """Build shard ``k``; writes its owned nodes' slots of ``local_id``."""
        owner = self.owner
        owned = np.flatnonzero(owner == k)
        local_id[owned] = np.arange(owned.size, dtype=np.int64)

        mask = self.slot_owner == k
        ssrc = self.both_src[mask]
        sdst = self.both_dst[mask]
        dst_nodes = np.unique(sdst)
        ghosts = dst_nodes[owner[dst_nodes] != k]
        local_nodes = np.concatenate([owned, ghosts])
        lut = np.full(self.num_nodes, -1, dtype=np.int64)
        lut[owned] = np.arange(owned.size, dtype=np.int64)
        lut[ghosts] = owned.size + np.arange(ghosts.size, dtype=np.int64)
        csr = CSRAdjacency(local_nodes.size, lut[ssrc], lut[sdst])

        d_pos, d_lens = csr_row_positions(self.d_indptr, owned)
        d_slots, d_edge_ids = self.d_indices[d_pos], self.d_eids[d_pos]
        d_indptr = np.concatenate(
            [[0], np.cumsum(d_lens)]).astype(np.int64)

        return GraphShard(
            shard_id=k, nodes=owned, local_nodes=local_nodes,
            num_owned=int(owned.size), csr=csr, d_indptr=d_indptr,
            d_indices=d_slots, d_edge_ids=d_edge_ids)


def partition_graph(graph: Graph, num_shards: int,
                    strategy: str = "greedy",
                    owner: np.ndarray | None = None) -> ShardPlan:
    """Split ``graph`` into ``num_shards`` shards (see module docstring).

    ``owner`` overrides the strategy with an explicit per-node owner map —
    the restore path: a recovered store must rebuild the *same* partition
    the crashed process was serving (its snapshot records the owner map),
    not a fresh strategy assignment over the mutated node set.
    """
    if owner is None:
        owner = partition_nodes(graph, num_shards, strategy)
    else:
        owner = np.asarray(owner, dtype=np.int64)
        if owner.shape != (graph.num_nodes,):
            raise ValueError(
                f"explicit owner map has shape {owner.shape}; expected "
                f"({graph.num_nodes},)")
        if owner.size and (owner.min() < 0 or owner.max() >= num_shards):
            raise ValueError("explicit owner map references shards outside "
                             f"[0, {num_shards})")
    context = ShardBuildContext(graph, owner)
    local_id = np.empty(graph.num_nodes, dtype=np.int64)
    shards = [context.build_shard(k, local_id) for k in range(num_shards)]
    return ShardPlan(num_shards=num_shards, strategy=strategy, owner=owner,
                     local_id=local_id, shards=tuple(shards))
