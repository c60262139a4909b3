"""Delta-overlay adjacency: live mutations over an immutable CSR core.

:class:`DeltaAdjacency` layers three mutable structures over a frozen
:class:`~repro.graph.csr.CSRAdjacency` base so the graph can absorb online
edge/node updates without rebuilding the CSR per write:

* **per-row delta lists** — destinations appended after the base row;
* **tombstones** — a boolean ``alive`` mask over base slots, so removals
  are O(1) writes;
* **grown rows** — nodes added after the base was built own all-delta rows.

The read surface is drop-in for the CSR (``neighbors`` /
``gather_neighbors`` / ``degree`` / ``visited_scratch`` /
``release_scratch``, plus ``neighbor_edges`` / ``gather_neighbor_edges``
on the directed view), which is what lets both samplers — and subgraph
induction — run unmodified over a mutated graph.

Canonical row order (the bit-identity contract)
-----------------------------------------------
A from-scratch rebuild over the *live* edge list (base edges minus
removals, in original order, then appended edges) must read identically to
the overlay.  The rebuild's undirected CSR is built from the doubled list
``[src ++ dst, dst ++ src]``, so a node's row enumerates its **forward**
slots (live edge order) and then its **reverse** slots.  The overlay
therefore keeps *two lanes* per undirected row: appended forward slots
splice in at the forward/reverse boundary of the base row, appended
reverse slots at the row end::

    row(u) = base_fwd[alive] ++ delta_fwd ++ base_rev[alive] ++ delta_rev

The directed view is single-lane (appends go at the row end).  Every slot
carries a stable **external edge id** — ids are append-only positions in
the owning :class:`~repro.graph.graph.Graph`'s edge arrays and survive
both removals and :meth:`Graph.compact`, so datapoints and datasets that
reference edges by id never dangle.

Row windows
-----------
Reads never touch the write-side structures above.  Every row is one
``(start, length)`` window into one **store** — a destination array, plus
an edge-id array on the directed view — so ``neighbors`` and
``neighbor_edges`` are one slice and the batched gathers one position
gather, exactly as on a :class:`~repro.graph.csr.CSRAdjacency`.

* A clean row's window is its base CSR slice.  A clean (or freshly
  compacted) overlay's store *is* the base arrays: nothing is copied.
* A write adds its row to a pending set.  The first read after a batch of
  writes — or :meth:`DeltaAdjacency.settle`, which
  :meth:`Graph.apply_updates` calls before returning — rebuilds every
  pending row once, in canonical order, past the base slots, in one
  vectorised pass.  A pending row that its writes returned to its exact
  base state points at its base slice again.
* The first rebuild copies the base slots into an owned buffer.  A
  rebuilt row's previous window becomes garbage; once garbage exceeds
  1,024 slots and half the side region (the slots past the base ones), a
  repack moves the live windows into a fresh buffer.  No slot a window
  once covered is overwritten, so a row array handed out earlier keeps
  its bytes.

Reads keep no state: a read after the first one changes nothing.
``compact()`` (driven by the Graph once the overlay exceeds
``compact_threshold``) folds tombstones and deltas back into a clean base,
whose overlay aliases its base arrays again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRAdjacency, csr_row_positions, window_positions

__all__ = ["GraphUpdate", "AppliedUpdate", "DeltaAdjacency"]

_EMPTY = np.empty(0, dtype=np.int64)

#: A repack waits until retired windows hold more than this many slots
#: (and more than half the side region).
_REPACK_MIN_GARBAGE = 1024


def _as_ids(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).reshape(-1)


def _copied(store: np.ndarray, head: int, positions: np.ndarray,
            capacity: int) -> np.ndarray:
    """A fresh ``capacity``-slot buffer holding ``store[:head]`` followed by
    ``store[positions]``."""
    out = np.empty(capacity, dtype=np.int64)
    out[:head] = store[:head]
    out[head:head + positions.size] = store[positions]
    return out


@dataclass(frozen=True)
class GraphUpdate:
    """One batch of live-graph mutations, applied in the order
    *add nodes → add edges → remove edges* (so added edges may reference
    nodes added by the same update, and removals may target ids that
    existed before the update or that it adds).  The whole batch is
    validated before its first write (:meth:`Graph.check_update`): a
    refused batch raises ``ValueError`` and changes nothing.
    """

    add_src: tuple | np.ndarray = ()
    add_dst: tuple | np.ndarray = ()
    add_rel: tuple | np.ndarray | None = None
    remove_edges: tuple | np.ndarray = ()
    add_node_features: np.ndarray | None = None
    add_node_labels: tuple | np.ndarray | None = None


@dataclass(frozen=True)
class AppliedUpdate:
    """Receipt of one applied :class:`GraphUpdate`.

    ``touched_nodes`` is the set every consumer keys invalidation on: the
    endpoints of added and removed edges plus the new nodes — exactly the
    rows whose adjacency reads changed, so any cached artifact whose
    sampled subgraphs avoid all of them is still valid.
    """

    version: int
    new_edge_ids: np.ndarray = field(default_factory=lambda: _EMPTY)
    removed_edge_ids: np.ndarray = field(default_factory=lambda: _EMPTY)
    touched_nodes: np.ndarray = field(default_factory=lambda: _EMPTY)
    compacted: bool = False


class DeltaAdjacency:
    """Mutable overlay over one CSR base (see module docstring).

    Built via :meth:`directed` / :meth:`undirected`; writes go through
    :meth:`append_slot` / :meth:`remove_slot` / :meth:`grow` (driven by
    :class:`~repro.graph.graph.Graph`), reads through the CSR-compatible
    surface.
    """

    def __init__(self, base: CSRAdjacency, slot_eid: np.ndarray,
                 lane_of: np.ndarray | None, id_space: int):
        self.base = base
        self.num_nodes = base.num_nodes
        self._slot_eid = slot_eid      # external edge id per base slot
        # Reverse-lane flag per base slot; None on the one-lane directed view.
        self._lane_of = lane_of
        self._id_space = int(id_space)
        self._alive: np.ndarray | None = None       # tombstone mask, lazy
        self._row_dead: np.ndarray | None = None    # dead slots per row
        self._dirty = np.zeros(self.num_nodes, dtype=bool)
        # lane -> {row: ([dst, ...], [eid, ...])}
        self._delta: tuple[dict, dict] = ({}, {})
        self._delta_loc: dict[tuple[int, int], int] = {}  # (eid, lane) -> row
        self._slot_map: list[np.ndarray] | None = None    # lazy eid -> slot
        self._num_dead = 0
        self._num_delta = 0
        self._scratch_pool: list[np.ndarray] = []
        # --- row windows (see module docstring) -----------------------
        self._start = base.indptr[:-1].copy()
        self._len = np.diff(base.indptr)
        # The store aliases the base arrays until the first rebuild; only
        # the directed view stores edge ids.
        self._dst = base.indices
        self._eid = base.edge_ids if lane_of is None else None
        self._used = base.num_edges     # base slots + side region
        self._garbage = 0               # side slots of retired windows
        self._pending: set[int] = set()  # rows written since the last settle
        self._rebuilds = 0
        self._repacks = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def directed(cls, num_nodes: int, src: np.ndarray, dst: np.ndarray,
                 eids: np.ndarray, id_space: int) -> "DeltaAdjacency":
        """Single-lane overlay over the live directed edge list.

        ``eids`` carries the external (stable) edge id of every live edge;
        the base CSR's ``edge_ids`` are patched to external ids so clean
        rows answer :meth:`neighbor_edges` with pure slices.
        """
        src, dst, eids = _as_ids(src), _as_ids(dst), _as_ids(eids)
        base = CSRAdjacency(num_nodes, src, dst)
        base.edge_ids = eids[base.edge_ids] if eids.size else eids
        return cls(base, slot_eid=base.edge_ids, lane_of=None,
                   id_space=id_space)

    @classmethod
    def undirected(cls, num_nodes: int, src: np.ndarray, dst: np.ndarray,
                   eids: np.ndarray, id_space: int) -> "DeltaAdjacency":
        """Two-lane overlay over the symmetrised live edge list."""
        src, dst, eids = _as_ids(src), _as_ids(dst), _as_ids(eids)
        length = src.size
        base = CSRAdjacency(num_nodes, np.concatenate([src, dst]),
                            np.concatenate([dst, src]))
        pos = base.edge_ids  # position in the doubled list
        if length:
            slot_eid = eids[pos % length]
            lane_of = pos >= length
        else:
            slot_eid = _EMPTY
            lane_of = np.empty(0, dtype=bool)
        base.edge_ids = slot_eid
        return cls(base, slot_eid=slot_eid, lane_of=lane_of,
                   id_space=id_space)

    @classmethod
    def wrap_directed(cls, base: CSRAdjacency,
                      id_space: int) -> "DeltaAdjacency":
        """Promote an unmutated graph's directed CSR in place (no rebuild).

        Such a CSR's ``edge_ids`` already are the external edge ids.
        """
        return cls(base, slot_eid=base.edge_ids, lane_of=None,
                   id_space=id_space)

    @classmethod
    def wrap_undirected(cls, base: CSRAdjacency,
                        id_space: int) -> "DeltaAdjacency":
        """Promote an unmutated graph's doubled-list CSR in place.

        Its ``edge_ids`` are doubled-list positions: ids below
        ``id_space`` (= ``num_edges`` at promotion) are forward slots,
        the rest reverses — decomposed here into (external id, lane).
        """
        pos = base.edge_ids
        if id_space:
            slot_eid = pos % id_space
            lane_of = pos >= id_space
        else:
            slot_eid = pos.copy()
            lane_of = np.empty(0, dtype=bool)
        base.edge_ids = slot_eid
        return cls(base, slot_eid=slot_eid, lane_of=lane_of,
                   id_space=id_space)

    # ------------------------------------------------------------------
    # Overlay bookkeeping
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Live slot count (base minus tombstones plus deltas)."""
        return self.base.num_edges - self._num_dead + self._num_delta

    def overlay_fraction(self) -> float:
        """Overlay slots (tombstoned + delta) relative to live slots."""
        return (self._num_dead + self._num_delta) / max(self.num_edges, 1)

    def overlay_stats(self) -> dict:
        """Write-side overlay size, and the store the row windows read.

        ``dirty_rows`` read a rebuilt window (or an empty grown row),
        ``rebuilds`` counts row rebuilds since the overlay was built,
        ``side_slots`` / ``garbage_slots`` are the live and retired slots
        past the base ones, and ``repacks`` counts garbage squeezes.
        """
        if self._pending:
            self.settle()
        floor = self.base.num_edges
        return {
            "base_slots": floor,
            "dead_slots": self._num_dead,
            "delta_slots": self._num_delta,
            "fraction": self.overlay_fraction(),
            "dirty_rows": int(self._dirty.sum()),
            "rebuilds": self._rebuilds,
            "side_slots": self._used - floor - self._garbage,
            "garbage_slots": self._garbage,
            "repacks": self._repacks,
        }

    def _refresh_dirty(self, row: int) -> None:
        """Re-derive dirtiness after a row's last delta slot drops.

        Grown rows (no base coverage) and rows with tombstoned base slots
        stay dirty; a row back at its exact base state reads its base
        slice again.
        """
        if row >= self.base.num_nodes:
            return
        if self._row_dead is not None and self._row_dead[row]:
            return
        for lane in self._delta:
            if row in lane:
                return
        self._dirty[row] = False

    # ------------------------------------------------------------------
    # Settling written rows into the store
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Point every row written since the last settle at its current
        canonical content: the base slice for a row its writes restored,
        a freshly rebuilt window for every other one."""
        if not self._pending:
            return
        rows = np.fromiter(self._pending, dtype=np.int64,
                           count=len(self._pending))
        self._pending.clear()
        floor = self.base.num_edges
        starts, lens = self._start[rows], self._len[rows]
        self._garbage += int(lens[starts >= floor].sum())
        dirty = self._dirty[rows]
        clean, hot = rows[~dirty], rows[dirty]
        indptr = self.base.indptr
        self._start[clean] = indptr[clean]
        self._len[clean] = indptr[clean + 1] - indptr[clean]
        self._len[hot] = 0  # retired: a repack must not carry them over
        if (self._garbage > _REPACK_MIN_GARBAGE
                and 2 * self._garbage > self._used - floor):
            self._repack()
        if hot.size:
            self._rebuild(hot)

    def _rebuild(self, rows: np.ndarray) -> None:
        """Append ``rows``' canonical content to the store, one pass.

        Every slot gets the key ``(row index, segment)``: base slots that
        are alive (segment 0, or 2 for the reverse lane), then each lane's
        delta list (segment 1, or 3 for the reverse lane).  One stable
        sort on the key lays the rows out back to back in canonical
        order, each segment keeping its internal order.
        """
        base = self.base
        segments = 2 if self._lane_of is None else 4
        index = np.arange(rows.size, dtype=np.int64)
        has_base = rows < base.num_nodes
        positions, counts = csr_row_positions(base.indptr, rows[has_base])
        key = np.repeat(index[has_base] * segments, counts)
        if self._alive is not None:
            alive = self._alive[positions]
            positions, key = positions[alive], key[alive]
        if self._lane_of is not None:
            key += 2 * self._lane_of[positions]
        keys, dsts, eids = [key], [base.indices[positions]], []
        if self._eid is not None:
            eids.append(base.edge_ids[positions])
        row_list = rows.tolist()
        for lane_no, lane in enumerate(self._delta):
            if not lane:
                continue
            counts = np.zeros(rows.size, dtype=np.int64)
            lane_dst: list[int] = []
            lane_eid: list[int] = []
            for i, row in enumerate(row_list):
                entry = lane.get(row)
                if entry is not None:
                    counts[i] = len(entry[0])
                    lane_dst.extend(entry[0])
                    lane_eid.extend(entry[1])
            keys.append(np.repeat(index * segments + 2 * lane_no + 1,
                                  counts))
            dsts.append(np.array(lane_dst, dtype=np.int64))
            if self._eid is not None:
                eids.append(np.array(lane_eid, dtype=np.int64))
        key = np.concatenate(keys)
        order = np.argsort(key, kind="stable")
        lens = np.bincount(key // segments, minlength=rows.size)
        start = self._reserve(key.size)
        if key.size:
            end = start + key.size
            self._dst[start:end] = np.concatenate(dsts)[order]
            if self._eid is not None:
                self._eid[start:end] = np.concatenate(eids)[order]
        self._start[rows] = start + np.cumsum(lens) - lens
        self._len[rows] = lens
        self._rebuilds += rows.size

    def _reserve(self, count: int) -> int:
        """Room for ``count`` more store slots; returns where they start.

        A full store (the aliased base arrays always are) moves into a
        fresh buffer with half the side region again as headroom.
        """
        start = self._used
        need = start + count
        if need > self._dst.size:
            capacity = need + (need - self.base.num_edges) // 2 + 64
            self._dst = _copied(self._dst, start, _EMPTY, capacity)
            if self._eid is not None:
                self._eid = _copied(self._eid, start, _EMPTY, capacity)
        self._used = need
        return start

    def _repack(self) -> None:
        """Move the live side windows, back to back, into a fresh store."""
        floor = self.base.num_edges
        live = np.flatnonzero((self._start >= floor) & (self._len > 0))
        lens = self._len[live]
        positions = window_positions(self._start[live], lens)
        capacity = self._dst.size
        self._dst = _copied(self._dst, floor, positions, capacity)
        if self._eid is not None:
            self._eid = _copied(self._eid, floor, positions, capacity)
        self._start[live] = floor + np.cumsum(lens) - lens
        self._used = floor + positions.size
        self._garbage = 0
        self._repacks += 1

    # ------------------------------------------------------------------
    # Reads (CSRAdjacency-compatible; every row is one store window)
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Destinations of ``node``'s row, canonical (rebuild) order."""
        if self._pending:
            self.settle()
        start = self._start[node]
        return self._dst[start:start + self._len[node]]

    def neighbor_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """(destinations, external edge ids); directed (one-lane) view."""
        if self._lane_of is not None:
            raise TypeError("neighbor_edges is a directed-view query")
        if self._pending:
            self.settle()
        start = self._start[node]
        end = start + self._len[node]
        return self._dst[start:end], self._eid[start:end]

    def gather_neighbor_edges(
            self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        """Batched :meth:`neighbor_edges`: ``(dsts, eids, lens)``, one
        position array indexing both payloads."""
        if self._lane_of is not None:
            raise TypeError("neighbor_edges is a directed-view query")
        if self._pending:
            self.settle()
        rows = np.asarray(rows, dtype=np.int64)
        lens = self._len[rows]
        positions = window_positions(self._start[rows], lens)
        return self._dst[positions], self._eid[positions], lens

    def gather_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated rows of ``frontier``, frontier order."""
        if self._pending:
            self.settle()
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return _EMPTY
        if frontier.size == 1:
            start = self._start[frontier[0]]
            return self._dst[start:start + self._len[frontier[0]]]
        return self._dst[window_positions(self._start[frontier],
                                          self._len[frontier])]

    def degree(self, node: int | None = None):
        """Live row length of ``node``, or the full vector when ``None``."""
        if self._pending:
            self.settle()
        if node is None:
            return self._len.copy()
        return int(self._len[node])

    # ------------------------------------------------------------------
    # Scratch pool (size-checked: num_nodes may grow between borrows)
    # ------------------------------------------------------------------
    def visited_scratch(self) -> np.ndarray:
        """Check out an all-``False`` mask of the *current* node count.

        Unlike the immutable CSR's pool, masks parked here can go stale:
        ``add_nodes`` grows ``num_nodes`` while a borrower may still hold
        (and later release) a mask sized to the old graph.  Stale masks
        are retired at checkout instead of being handed to a sampler that
        would index past their end.
        """
        pool = self._scratch_pool
        size = self.num_nodes
        while pool:
            mask = pool.pop()
            if mask.size == size:
                return mask
        return np.zeros(size, dtype=bool)

    def release_scratch(self, mask: np.ndarray) -> None:
        """Return a borrowed mask (must be all-``False``; stale sizes drop)."""
        if mask.size == self.num_nodes:
            self._scratch_pool.append(mask)

    # ------------------------------------------------------------------
    # Writes (driven by Graph)
    # ------------------------------------------------------------------
    def grow(self, count: int) -> None:
        """Extend the node-id space; new rows start empty (and dirty)."""
        if count <= 0:
            return
        self.num_nodes += int(count)
        self._dirty = np.concatenate(
            [self._dirty, np.ones(count, dtype=bool)])
        self._start = np.concatenate(
            [self._start, np.zeros(count, dtype=np.int64)])
        self._len = np.concatenate(
            [self._len, np.zeros(count, dtype=np.int64)])
        # Parked masks are sized to the old graph; drop them now rather
        # than at checkout so the memory goes with them.
        self._scratch_pool.clear()

    def append_slot(self, row: int, dst: int, eid: int, lane: int = 0) -> None:
        """Append one live slot ``row -> dst`` carrying external id ``eid``."""
        row, dst, eid = int(row), int(dst), int(eid)
        entry = self._delta[lane].setdefault(row, ([], []))
        entry[0].append(dst)
        entry[1].append(eid)
        self._delta_loc[(eid, lane)] = row
        self._dirty[row] = True
        self._num_delta += 1
        self._pending.add(row)

    def remove_slot(self, eid: int, lane: int = 0) -> None:
        """Kill the slot carrying ``eid`` in ``lane`` (delta or tombstone)."""
        eid = int(eid)
        row = self._delta_loc.pop((eid, lane), None)
        if row is not None:
            dsts, eids = self._delta[lane][row]
            index = eids.index(eid)
            del dsts[index]
            del eids[index]
            self._num_delta -= 1
            if not dsts:
                # Removing the row's last delta slot may return it to its
                # clean base state; keeping the empty entry used to leave
                # the row dirty forever (stale-dirty-row bug).
                del self._delta[lane][row]
                self._refresh_dirty(row)
            self._pending.add(row)
            return
        self._ensure_slot_map()
        slot = -1
        if 0 <= eid < self._id_space:
            slot = int(self._slot_map[lane][eid])
        if slot < 0:
            raise KeyError(f"edge {eid} has no live slot in lane {lane}")
        self._slot_map[lane][eid] = -1
        if self._alive is None:
            self._alive = np.ones(self.base.num_edges, dtype=bool)
            self._row_dead = np.zeros(self.base.num_nodes, dtype=np.int64)
        self._alive[slot] = False
        row = int(np.searchsorted(self.base.indptr, slot, side="right") - 1)
        self._row_dead[row] += 1
        self._dirty[row] = True
        self._num_dead += 1
        self._pending.add(row)

    def _ensure_slot_map(self) -> None:
        """Lazily invert ``slot -> eid`` into per-lane ``eid -> slot``."""
        if self._slot_map is not None:
            return
        slots = np.arange(self.base.num_edges, dtype=np.int64)
        if self._lane_of is None:
            lanes = [np.ones(self.base.num_edges, dtype=bool)]
        else:
            lanes = [~self._lane_of, self._lane_of]
        self._slot_map = []
        for member in lanes:
            mapping = np.full(self._id_space, -1, dtype=np.int64)
            mapping[self._slot_eid[member]] = slots[member]
            self._slot_map.append(mapping)
