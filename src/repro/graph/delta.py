"""Delta-overlay adjacency: live mutations over an immutable CSR core.

:class:`DeltaAdjacency` layers three mutable structures over a frozen
:class:`~repro.graph.csr.CSRAdjacency` base so the graph can absorb online
edge/node updates without rebuilding the CSR per write:

* **per-row delta lists** — destinations appended after the base row;
* **tombstones** — a boolean ``alive`` mask over base slots, so removals
  are O(1) writes and reads filter dead slots out;
* **grown rows** — nodes added after the base was built own all-delta rows.

The read surface is drop-in for the CSR (``neighbors`` /
``gather_neighbors`` / ``degree`` / ``visited_scratch`` /
``release_scratch``, plus ``neighbor_edges`` on the directed view), which
is what lets both samplers — and subgraph induction — run unmodified over
a mutated graph.

Canonical row order (the bit-identity contract)
-----------------------------------------------
A from-scratch rebuild over the *live* edge list (base edges minus
removals, in original order, then appended edges) must read identically to
the overlay.  The rebuild's undirected CSR is built from the doubled list
``[src ++ dst, dst ++ src]``, so a node's row enumerates its **forward**
slots (live edge order) and then its **reverse** slots.  The overlay
therefore keeps *two lanes* per undirected row: appended forward slots
splice in at the forward/reverse boundary of the base row (``lane_mid``),
appended reverse slots at the row end::

    row(u) = base_fwd[alive] ++ delta_fwd ++ base_rev[alive] ++ delta_rev

The directed view is single-lane (appends go at the row end).  Every slot
carries a stable **external edge id** — ids are append-only positions in
the owning :class:`~repro.graph.graph.Graph`'s edge arrays and survive
both removals and :meth:`Graph.compact`, so datapoints and datasets that
reference edges by id never dangle.

``compact()`` (driven by the Graph once the overlay exceeds
``compact_threshold``) folds tombstones and deltas back into a clean base,
after which reads take the zero-overhead fast paths again.

Tiered compaction (LSM-style)
-----------------------------
Per-row assembly makes a dirty row ~50x more expensive to read than a
clean one, and ``gather_neighbors`` historically dropped the *whole*
frontier to that path when any member was dirty.  The overlay therefore
tiers rows by temperature: every dirty-row read bumps a per-row counter
(any write to the row resets it), and once a row accrues
``promote_after`` reads its canonical content is re-materialised into a
contiguous **side store** (``_side_dst`` / ``_side_eid``).  Promoted rows
read as pure slices again, and a frontier whose dirty rows are all
promoted is gathered with one fused scatter over base + side storage —
no Python per-row loop.  Writes demote (the side copy is dropped and the
row returns to the delta tier), so write-heavy rows never pay the
re-materialisation churn.  Promotion is read-transparent: a promoted row
is bit-identical to its assembled delta form, which the differential
suites assert at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRAdjacency

__all__ = ["GraphUpdate", "AppliedUpdate", "DeltaAdjacency"]

_EMPTY = np.empty(0, dtype=np.int64)


def _as_ids(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).reshape(-1)


def _scatter_rows(src: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                  out: np.ndarray, out_starts: np.ndarray) -> None:
    """Copy ``src[starts[i]:starts[i]+lens[i]]`` into
    ``out[out_starts[i]:out_starts[i]+lens[i]]`` for all ``i`` with three
    vector kernels (same repeat trick as ``gather_csr_rows``)."""
    if starts.size == 0:
        return
    cum = np.cumsum(lens)
    total = int(cum[-1])
    if total == 0:
        return
    inner = cum - lens  # exclusive prefix: segment start in flat space
    flat = np.arange(total, dtype=np.int64)
    out[flat + np.repeat(out_starts - inner, lens)] = (
        src[flat + np.repeat(starts - inner, lens)])


@dataclass(frozen=True)
class GraphUpdate:
    """One batch of live-graph mutations, applied in the order
    *add nodes → add edges → remove edges* (so added edges may reference
    nodes added by the same update, and removals may target ids that
    existed before the update).  Validation errors raise mid-batch with
    the earlier stages applied — validate ids upstream when that matters.
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
    new_node_ids: np.ndarray = field(default_factory=lambda: _EMPTY)
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
                 lane_of: np.ndarray | None, lane_mid: np.ndarray | None,
                 id_space: int):
        self.base = base
        self.num_nodes = base.num_nodes
        self._slot_eid = slot_eid      # external edge id per base slot
        self._lane_of = lane_of        # bool per base slot (None: one lane)
        self.lane_mid = lane_mid       # per-row forward-lane slot count
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
        # --- tiered compaction (see module docstring) -----------------
        #: Master switch for read-driven promotion (benchmarks compare
        #: against the pure delta tier by flipping this off).
        self.tier_enabled = True
        #: Dirty-row reads before promotion; any write resets the count.
        self.promote_after = 2
        self._reads = np.zeros(self.num_nodes, dtype=np.int64)
        self._side_start = np.full(self.num_nodes, -1, dtype=np.int64)
        self._side_len = np.zeros(self.num_nodes, dtype=np.int64)
        self._side_dst = _EMPTY
        self._side_eid = _EMPTY   # directed view only (neighbor_edges)
        self._side_used = 0
        self._side_garbage = 0
        self._promotions = 0
        self._demotions = 0

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
                   lane_mid=None, id_space=id_space)

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
        lane_mid = np.bincount(src, minlength=num_nodes).astype(np.int64)
        return cls(base, slot_eid=slot_eid, lane_of=lane_of,
                   lane_mid=lane_mid, id_space=id_space)

    @classmethod
    def wrap_directed(cls, base: CSRAdjacency,
                      id_space: int) -> "DeltaAdjacency":
        """Promote an unmutated graph's directed CSR in place (no rebuild).

        Such a CSR's ``edge_ids`` already are the external edge ids.
        """
        return cls(base, slot_eid=base.edge_ids, lane_of=None,
                   lane_mid=None, id_space=id_space)

    @classmethod
    def wrap_undirected(cls, base: CSRAdjacency, src: np.ndarray,
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
        lane_mid = np.bincount(np.asarray(src, dtype=np.int64),
                               minlength=base.num_nodes).astype(np.int64)
        return cls(base, slot_eid=slot_eid, lane_of=lane_of,
                   lane_mid=lane_mid, id_space=id_space)

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
        return {
            "base_slots": self.base.num_edges,
            "dead_slots": self._num_dead,
            "delta_slots": self._num_delta,
            "fraction": self.overlay_fraction(),
            "promoted_rows": int((self._side_start >= 0).sum()),
            "promotions": self._promotions,
            "demotions": self._demotions,
            "side_slots": self._side_used - self._side_garbage,
        }

    # ------------------------------------------------------------------
    # Tiered compaction (promotion / demotion of hot dirty rows)
    # ------------------------------------------------------------------
    def _assemble_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Canonical ``(dst, eid)`` of a dirty row; directed view only."""
        base = self.base
        dst_parts: list[np.ndarray] = []
        eid_parts: list[np.ndarray] = []
        if node < base.num_nodes:
            lo, hi = int(base.indptr[node]), int(base.indptr[node + 1])
            seg_dst, seg_eid = base.indices[lo:hi], base.edge_ids[lo:hi]
            if self._alive is not None:
                keep = self._alive[lo:hi]
                seg_dst, seg_eid = seg_dst[keep], seg_eid[keep]
            dst_parts.append(seg_dst)
            eid_parts.append(seg_eid)
        entry = self._delta[0].get(node)
        if entry is not None and entry[0]:
            dst_parts.append(np.array(entry[0], dtype=np.int64))
            eid_parts.append(np.array(entry[1], dtype=np.int64))
        if not dst_parts:
            return _EMPTY, _EMPTY
        return np.concatenate(dst_parts), np.concatenate(eid_parts)

    def _side_reserve(self, length: int) -> int:
        """Reserve ``length`` side-store slots; returns their start."""
        need = self._side_used + length
        if need > self._side_dst.size:
            cap = max(64, 2 * self._side_dst.size, need)
            buf = np.empty(cap, dtype=np.int64)
            buf[:self._side_used] = self._side_dst[:self._side_used]
            self._side_dst = buf
            if self.lane_mid is None:
                ebuf = np.empty(cap, dtype=np.int64)
                ebuf[:self._side_used] = self._side_eid[:self._side_used]
                self._side_eid = ebuf
        start = self._side_used
        self._side_used = need
        return start

    def _promote(self, node: int) -> None:
        """Re-materialise a hot dirty row into the contiguous side store."""
        if self.lane_mid is None:
            dst, eid = self._assemble_edges(node)
        else:
            parts = self._assemble(node)
            dst = np.concatenate(parts) if parts else _EMPTY
            eid = None
        length = int(dst.size)
        start = self._side_reserve(length)
        self._side_dst[start:start + length] = dst
        if eid is not None:
            self._side_eid[start:start + length] = eid
        self._side_start[node] = start
        self._side_len[node] = length
        self._promotions += 1

    def _note_write(self, row: int) -> None:
        """A write cools the row: reset its read streak and demote it."""
        self._reads[row] = 0
        if self._side_start[row] >= 0:
            self._side_garbage += int(self._side_len[row])
            self._side_start[row] = -1
            self._side_len[row] = 0
            self._demotions += 1
            if (self._side_garbage > 1024
                    and self._side_garbage * 2 > self._side_used):
                self._repack_side()

    def _repack_side(self) -> None:
        """Squeeze demoted rows' garbage out of the side store."""
        live = np.flatnonzero(self._side_start >= 0)
        starts = self._side_start[live]
        lens = self._side_len[live]
        ends = np.cumsum(lens)
        total = int(ends[-1]) if lens.size else 0
        out_starts = ends - lens
        new_dst = np.empty(max(total, 64), dtype=np.int64)
        _scatter_rows(self._side_dst, starts, lens, new_dst, out_starts)
        if self.lane_mid is None:
            new_eid = np.empty(new_dst.size, dtype=np.int64)
            _scatter_rows(self._side_eid, starts, lens, new_eid, out_starts)
            self._side_eid = new_eid
        self._side_dst = new_dst
        self._side_start[live] = out_starts
        self._side_used = total
        self._side_garbage = 0

    def _refresh_dirty(self, row: int) -> None:
        """Re-derive dirtiness after a row's last delta slot drops.

        Grown rows (no base coverage) and rows with tombstoned base slots
        stay dirty; a row back at its exact base state regains the slice
        fast path.
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
    # Reads (CSRAdjacency-compatible)
    # ------------------------------------------------------------------
    def _delta_row(self, lane: int, node: int) -> np.ndarray | None:
        entry = self._delta[lane].get(node)
        if entry is None or not entry[0]:
            return None
        return np.array(entry[0], dtype=np.int64)

    def _assemble(self, node: int) -> list[np.ndarray]:
        """Canonical-order parts of a dirty row (destinations)."""
        parts: list[np.ndarray] = []
        base = self.base
        alive = self._alive
        if node < base.num_nodes:
            lo, hi = int(base.indptr[node]), int(base.indptr[node + 1])
            if self.lane_mid is None:
                seg = base.indices[lo:hi]
                parts.append(seg if alive is None else seg[alive[lo:hi]])
                delta = self._delta_row(0, node)
                if delta is not None:
                    parts.append(delta)
            else:
                mid = lo + int(self.lane_mid[node])
                fwd, rev = base.indices[lo:mid], base.indices[mid:hi]
                if alive is not None:
                    fwd, rev = fwd[alive[lo:mid]], rev[alive[mid:hi]]
                parts.append(fwd)
                delta = self._delta_row(0, node)
                if delta is not None:
                    parts.append(delta)
                parts.append(rev)
                delta = self._delta_row(1, node)
                if delta is not None:
                    parts.append(delta)
        else:
            for lane in (0, 1) if self.lane_mid is not None else (0,):
                delta = self._delta_row(lane, node)
                if delta is not None:
                    parts.append(delta)
        return parts

    def neighbors(self, node: int) -> np.ndarray:
        """Destinations of ``node``'s row, canonical (rebuild) order."""
        node = int(node)
        if not self._dirty[node]:
            base = self.base
            return base.indices[base.indptr[node]:base.indptr[node + 1]]
        if self.tier_enabled:
            start = int(self._side_start[node])
            if start < 0:
                self._reads[node] += 1
                if self._reads[node] >= self.promote_after:
                    self._promote(node)
                    start = int(self._side_start[node])
            if start >= 0:
                return self._side_dst[start:start + int(self._side_len[node])]
        return self._row(node)

    def _row(self, node: int) -> np.ndarray:
        """Row of a dirty node without touching the read counters."""
        start = int(self._side_start[node])
        if start >= 0:
            return self._side_dst[start:start + int(self._side_len[node])]
        parts = self._assemble(node)
        if not parts:
            return _EMPTY
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def neighbor_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """(destinations, external edge ids); directed (one-lane) view."""
        if self.lane_mid is not None:
            raise TypeError("neighbor_edges is a directed-view query")
        node = int(node)
        base = self.base
        if not self._dirty[node]:
            lo, hi = base.indptr[node], base.indptr[node + 1]
            return base.indices[lo:hi], base.edge_ids[lo:hi]
        if self.tier_enabled:
            start = int(self._side_start[node])
            if start < 0:
                self._reads[node] += 1
                if self._reads[node] >= self.promote_after:
                    self._promote(node)
                    start = int(self._side_start[node])
            if start >= 0:
                end = start + int(self._side_len[node])
                return self._side_dst[start:end], self._side_eid[start:end]
        return self._assemble_edges(node)

    def gather_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated rows of ``frontier``, frontier order.

        Frontiers that avoid every dirty row take the base CSR's fused
        gather; a single touched row drops just that call to per-row
        assembly, so reads over untouched regions keep the fast path.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return _EMPTY
        dirty = self._dirty[frontier]
        if not dirty.any():
            return self.base.gather_neighbors(frontier)
        if self.tier_enabled:
            hot = frontier[dirty]
            cold = hot[self._side_start[hot] < 0]
            if cold.size:
                np.add.at(self._reads, cold, 1)
                due = np.unique(
                    cold[self._reads[cold] >= self.promote_after])
                for node in due.tolist():
                    self._promote(node)
            if (self._side_start[hot] >= 0).all():
                return self._gather_tiered(frontier, dirty)
        rows = [self._row(int(node)) if hit else self.neighbors(int(node))
                for node, hit in zip(frontier, dirty)]
        rows = [row for row in rows if row.size]
        if not rows:
            return _EMPTY
        return np.concatenate(rows)

    def _gather_tiered(self, frontier: np.ndarray,
                       dirty: np.ndarray) -> np.ndarray:
        """Fused gather over a mixed frontier: clean rows slice the base
        CSR, promoted dirty rows slice the side store, both scattered
        into frontier order with three vector kernels apiece."""
        base = self.base
        clean = ~dirty
        clean_rows = frontier[clean]
        hot_rows = frontier[dirty]
        clean_starts = base.indptr[clean_rows]
        lens = np.empty(frontier.size, dtype=np.int64)
        lens[clean] = base.indptr[clean_rows + 1] - clean_starts
        lens[dirty] = self._side_len[hot_rows]
        ends = np.cumsum(lens)
        total = int(ends[-1])
        if total == 0:
            return _EMPTY
        out_starts = ends - lens
        out = np.empty(total, dtype=np.int64)
        _scatter_rows(base.indices, clean_starts, lens[clean],
                      out, out_starts[clean])
        _scatter_rows(self._side_dst, self._side_start[hot_rows],
                      lens[dirty], out, out_starts[dirty])
        return out

    def degree(self, node: int | None = None):
        """Live row length of ``node``, or the full vector when ``None``."""
        base = self.base
        if node is None:
            out = np.zeros(self.num_nodes, dtype=np.int64)
            out[:base.num_nodes] = np.diff(base.indptr)
            if self._row_dead is not None:
                out[:base.num_nodes] -= self._row_dead
            for lane in self._delta:
                for row, (dsts, _) in lane.items():
                    out[row] += len(dsts)
            return out
        node = int(node)
        total = 0
        if node < base.num_nodes:
            total = int(base.indptr[node + 1] - base.indptr[node])
            if self._row_dead is not None:
                total -= int(self._row_dead[node])
        for lane in self._delta:
            entry = lane.get(node)
            if entry is not None:
                total += len(entry[0])
        return total

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
        """Extend the node-id space; new rows start all-delta (and dirty)."""
        if count <= 0:
            return
        self.num_nodes += int(count)
        self._dirty = np.concatenate(
            [self._dirty, np.ones(count, dtype=bool)])
        self._reads = np.concatenate(
            [self._reads, np.zeros(count, dtype=np.int64)])
        self._side_start = np.concatenate(
            [self._side_start, np.full(count, -1, dtype=np.int64)])
        self._side_len = np.concatenate(
            [self._side_len, np.zeros(count, dtype=np.int64)])
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
        self._note_write(row)

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
            self._note_write(row)
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
        self._note_write(row)

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
