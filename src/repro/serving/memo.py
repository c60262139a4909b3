"""One encoding per datapoint, shared by every session of a server.

Episodes draw their candidates from one fixed training partition, so the
same datapoints recur across sessions and episodes.  :class:`EncodingMemo`
keeps, per datapoint, the no-grad embedding row, the importance score and
the node ids of the sampled subgraph, and hands them back instead of
sampling and encoding the datapoint again.  A stored row equals a fresh
encode byte for byte: serving samples each datapoint with its own
deterministic RNG, and a no-grad encoder row does not depend on the batch
it rode in.  The key is the :class:`~repro.graph.datapoints.Datapoint`
itself (a frozen dataclass, hashed by value), relation included, so a
labelled candidate and an unlabelled query on the same edge are separate
entries.

Entries live in blocks allocated once — a float64 embedding block, an
importance block and an int32 node-id block padded to the sampler's node
cap with ``-1`` — and an ``OrderedDict`` maps each datapoint to its slot
in least-recently-used order.  Nothing is allocated per entry, so a large
memo costs the allocator and the page tables no more than its blocks.

Two events make entries wrong, and the server reports both:

* a graph update — :meth:`EncodingMemo.evict` drops every entry whose
  encoding read something the update changed, by the rule of
  :meth:`UpdateFootprint.stale`, which a session applies to its own
  candidates too;
* new model weights — :meth:`EncodingMemo.clear` drops everything.

What an encoding reads of the graph, and so what an update can change
under it: the adjacency rows its sampler read — its seeds' rows when a
sample takes at most one hop, its whole node set's otherwise — and the
edges its node set induces, which induction reads off the set's
directed out-rows and keeps only when both ends lie in the set.  A row
changes only when an edge at its node is added or removed, which makes
the node *touched*; an added or removed edge with an end outside the set
is filtered out of the induced subgraph either way; a removal tombstones
its slot without reordering the survivors (and compaction reads the
same); and existing nodes' features never change.  So an encoding is
stale exactly when a row it read is touched or a changed edge has both
ends in its node set — a self-loop at a member included.  Everything
else samples and encodes to the same bytes on the new graph.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..graph.datapoints import EdgeInput
from ..graph.delta import AppliedUpdate
from ..graph.graph import Graph

__all__ = ["CAPACITY", "EncodingMemo", "UpdateFootprint", "seed_ends"]

#: Entries a server's memo holds before the least recently used go.
#: Every perfbench workload touches fewer distinct datapoints in a 30 s
#: run; at the served width the full blocks take about 4.4 MB.
CAPACITY = 16_384


def seed_ends(points) -> np.ndarray:
    """One row per datapoint: its first and last seed node (a datapoint
    has one seed or two), the layout :meth:`UpdateFootprint.stale`
    reads.  Read off the fields: ``Datapoint.nodes`` would build an
    array per datapoint."""
    ends = [(point.head, point.tail) if isinstance(point, EdgeInput)
            else (point.node, point.node) for point in points]
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


class UpdateFootprint:
    """What one applied graph update changed, as an encoding reads it.

    ``PromptServer.update_graph`` builds one per update and hands it to
    :meth:`EncodingMemo.evict` and to every session's ``mark_touched``;
    :meth:`stale` decides for both (the rule is in the module
    docstring).  ``touched`` is the update's touched-node mask with one
    ``False`` past the last node, so a ``-1`` pad reads untouched.  The
    changed-edge lookup pairs each end of an added or removed edge with
    its other end, sorted by the first, so a node's partners are one
    slice.  ``seed_rows_only`` says whether a sample reads only its
    seeds' rows (``PromptGenerator.reads_only_seed_rows``).
    """

    def __init__(self, graph: Graph, applied: AppliedUpdate,
                 seed_rows_only: bool):
        self.touched = np.zeros(graph.num_nodes + 1, dtype=bool)
        self.touched[applied.touched_nodes] = True
        self.seed_rows_only = seed_rows_only
        edges = np.concatenate([applied.new_edge_ids,
                                applied.removed_edge_ids])
        ends = np.concatenate([graph.src[edges], graph.dst[edges]])
        order = np.argsort(ends)
        self._ends = ends[order]
        self._partners = np.concatenate([graph.dst[edges],
                                         graph.src[edges]])[order]

    def stale(self, owner: np.ndarray, node: np.ndarray,
              seeds: np.ndarray) -> np.ndarray:
        """Sorted distinct indices of the node sets the update made stale.

        ``node`` holds the touched members of the sets and ``owner`` the
        index of the set each belongs to; row ``s`` of ``seeds`` holds
        set ``s``'s :func:`seed_ends`.  A sample's seeds always lie in
        its node set, so a set read a touched row exactly when one of
        its touched members is a seed (any member, when samples read
        their whole node set).  A set is also stale when one of its
        touched members has a changed edge to a member of the same set
        (itself, for a self-loop).
        """
        if not self.seed_rows_only:
            return np.unique(owner)
        read = owner[(seeds[owner] == node[:, None]).any(axis=1)]
        first = np.searchsorted(self._ends, node, "left")
        count = np.searchsorted(self._ends, node, "right") - first
        starts = np.cumsum(count) - count
        at = (np.arange(int(count.sum()))
              + np.repeat(first - starts, count))
        pair_owner = np.repeat(owner, count)
        # One key per (set, node): the mask's length exceeds every id.
        space = self.touched.size
        members = np.sort(owner * space + node)
        wanted = pair_owner * space + self._partners[at]
        found = np.minimum(np.searchsorted(members, wanted),
                           members.size - 1)
        return np.union1d(read, pair_owner[members[found] == wanted])


class EncodingMemo:
    """Bounded, datapoint-keyed store of encoder rows with LRU eviction.

    ``node_cap`` is the most node ids one sampled subgraph holds; a node
    set longer than that is handed back but not stored.  ``hits`` and
    ``misses`` count lookups: a miss is a distinct datapoint the call
    had to encode, and every other datapoint of the call — including a
    repeat of a miss within the same call — is a hit.
    """

    def __init__(self, node_cap: int, capacity: int = CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._slots: OrderedDict = OrderedDict()
        self._keys = np.empty(capacity, dtype=object)
        self._emb: np.ndarray | None = None  # width known at first store
        self._importance = np.empty(capacity)
        self._nodes = np.empty((capacity, node_cap), dtype=np.int32)
        self._lengths = np.zeros(capacity, dtype=np.int32)
        # Each entry's seed_ends, read from its key the first time an
        # update needs them, so a server that never updates its graph
        # never fills them.
        self._seeds = np.empty((capacity, 2), dtype=np.int64)
        self._seeded = np.zeros(capacity, dtype=bool)
        # Released slots below the high-water mark, used before fresh ones.
        self._free = np.empty(capacity, dtype=np.int64)
        self._num_free = 0
        self._high = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, datapoint) -> bool:
        return datapoint in self._slots

    def encode(self, datapoints: list, encoder
               ) -> tuple[np.ndarray, np.ndarray, list]:
        """``(embeddings, importance, nodes)`` of ``datapoints``, in order.

        Stored datapoints are read from the blocks; the distinct others
        go to ``encoder`` — with the ``encode_points`` contract — in one
        call, in first-occurrence order, and are stored after it
        returns.  If ``encoder`` raises, the memo, its recency order and
        its counts are left exactly as they were.
        """
        if not datapoints:
            return encoder(datapoints)
        slots = self._slots
        # Per datapoint: its slot, or ``~k`` for the k-th distinct miss.
        where = []
        hit_points = []
        misses: dict = {}
        for point in datapoints:
            slot = slots.get(point)
            if slot is None:
                slot = ~misses.setdefault(point, len(misses))
            else:
                hit_points.append(point)
            where.append(slot)
        where = np.array(where)
        fresh = list(misses)
        if fresh:
            new_emb, new_importance, new_nodes = encoder(fresh)
            if len(fresh) == len(datapoints):
                result = (new_emb, new_importance, new_nodes)
            else:
                result = self._assemble(where, new_emb, new_importance,
                                        new_nodes)
        else:
            result = self._assemble(where, None, None, None)
        for point in hit_points:
            slots.move_to_end(point)
        self.hits += len(datapoints) - len(fresh)
        self.misses += len(fresh)
        if fresh:
            self._store(fresh, new_emb, new_importance, new_nodes)
        return result

    def _assemble(self, where: np.ndarray, new_emb, new_importance,
                  new_nodes) -> tuple[np.ndarray, np.ndarray, list]:
        """Rows in request order from the blocks (``where >= 0``) and the
        encoder's output (``where = ~k``)."""
        stored = self._emb
        width, dtype = ((new_emb.shape[1], new_emb.dtype)
                        if new_emb is not None
                        else (stored.shape[1], stored.dtype))
        emb = np.empty((where.size, width), dtype=dtype)
        importance = np.empty(where.size, dtype=self._importance.dtype)
        nodes: list = [None] * where.size
        hit = where >= 0
        at = np.flatnonzero(hit)
        if at.size:
            slots = where[at]
            emb[at] = stored[slots]
            importance[at] = self._importance[slots]
            for i, ids, length in zip(at.tolist(), self._nodes[slots],
                                      self._lengths[slots].tolist()):
                nodes[i] = ids[:length]
        at = np.flatnonzero(~hit)
        if at.size:
            order = ~where[at]
            emb[at] = new_emb[order]
            importance[at] = new_importance[order]
            for i, k in zip(at.tolist(), order.tolist()):
                nodes[i] = new_nodes[k]
        return emb, importance, nodes

    def _store(self, points: list, emb: np.ndarray, importance: np.ndarray,
               nodes: list) -> None:
        """Write freshly encoded datapoints into the blocks, one
        vectorised store per block; the newest ``capacity`` that fit."""
        cap = self._nodes.shape[1]
        lengths = np.fromiter(map(len, nodes), dtype=np.int64,
                              count=len(nodes))
        keep = np.flatnonzero(lengths <= cap)[-self.capacity:]
        if not keep.size:
            return
        if self._emb is None:
            self._emb = np.empty((self.capacity, emb.shape[1]),
                                 dtype=emb.dtype)
        slots = self._allocate(keep.size)
        self._emb[slots] = emb[keep]
        self._importance[slots] = importance[keep]
        lengths = lengths[keep]
        starts = np.cumsum(lengths) - lengths
        padded = np.full((keep.size, cap), -1, dtype=np.int32)
        padded[np.repeat(np.arange(keep.size), lengths),
               np.arange(lengths.sum()) - np.repeat(starts, lengths)] = (
            np.concatenate([nodes[k] for k in keep.tolist()]))
        self._nodes[slots] = padded
        self._lengths[slots] = lengths
        for k, slot in zip(keep.tolist(), slots.tolist()):
            self._keys[slot] = points[k]
            self._slots[points[k]] = slot

    def _allocate(self, count: int) -> np.ndarray:
        """``count`` free slots, evicting the least recently used
        entries first when the memo is full."""
        over = len(self._slots) + count - self.capacity
        if over > 0:
            oldest = iter(self._slots.values())
            self._drop(np.array([next(oldest) for _ in range(over)]))
        reused = min(count, self._num_free)
        self._num_free -= reused
        start = self._num_free
        fresh = count - reused
        self._high += fresh
        return np.concatenate([
            self._free[start:start + reused],
            np.arange(self._high - fresh, self._high)])

    def _drop(self, slots: np.ndarray) -> None:
        """Remove the entries in ``slots`` and free the slots."""
        for point in self._keys[slots]:
            del self._slots[point]
        self._lengths[slots] = 0
        self._seeded[slots] = False
        self._keys[slots] = None
        self._free[self._num_free:self._num_free + slots.size] = slots
        self._num_free += slots.size

    def evict(self, footprint: UpdateFootprint) -> int:
        """Drop every entry ``footprint`` makes stale; returns how many
        were dropped.

        One pass over the node block finds the touched members (a
        ``-1`` pad reads untouched, and a free slot, of length 0, is
        skipped); only entries holding one can be stale.
        """
        if not self._slots:
            return 0
        nodes = self._nodes[:self._high]
        rows, cols = np.nonzero(footprint.touched[nodes])
        live = self._lengths[rows] > 0
        rows, cols = rows[live], cols[live]
        if not rows.size:
            return 0
        unseeded = np.unique(rows[~self._seeded[rows]])
        if unseeded.size:
            self._seeds[unseeded] = seed_ends(self._keys[unseeded])
            self._seeded[unseeded] = True
        victims = footprint.stale(rows, nodes[rows, cols], self._seeds)
        self._drop(victims)
        return int(victims.size)

    def clear(self) -> None:
        """Drop every entry (the counts stay)."""
        self._slots.clear()
        self._keys[:self._high] = None
        self._seeded[:self._high] = False
        self._high = self._num_free = 0
