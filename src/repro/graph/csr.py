"""Compressed-sparse-row adjacency for fast neighbourhood queries."""

from __future__ import annotations

import numpy as np

__all__ = ["CSRAdjacency", "csr_row_positions"]


def csr_row_positions(indptr: np.ndarray,
                      rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat data positions of the concatenated CSR ``rows``; returns
    ``(positions, lengths)``.

    Slot i of row r sits at ``starts[r] + i - first_slot_of_r``; folding
    the starts and the row firsts into one repeat keeps this at three
    kernels total.  One position array then indexes every per-slot
    payload of the CSR (destinations and edge ids alike).  Shared by the
    adjacency gathers, the shard partitioner's row extraction, and the
    sharded store's per-shard gathers.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lens
    cum = np.cumsum(lens)
    shifts = np.repeat(starts - cum + lens, lens)
    return np.arange(total, dtype=np.int64) + shifts, lens


class CSRAdjacency:
    """CSR view over an edge list ``(src, dst)``.

    Stores, for every node ``u``, the contiguous slice of its out-edges:
    destination nodes ``indices[indptr[u]:indptr[u+1]]`` and the ids of the
    original edges ``edge_ids[indptr[u]:indptr[u+1]]`` (so relation types and
    edge labels can be recovered).
    """

    def __init__(self, num_nodes: int, src: np.ndarray, dst: np.ndarray):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        if src.size and (src.min() < 0 or src.max() >= num_nodes):
            raise ValueError("src node id out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= num_nodes):
            raise ValueError("dst node id out of range")
        self.num_nodes = int(num_nodes)
        order = np.argsort(src, kind="stable")
        self.indices = dst[order]
        self.edge_ids = order
        counts = np.bincount(src, minlength=num_nodes)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._scratch_pool: list[np.ndarray] = []

    @property
    def num_edges(self) -> int:
        return int(self.indices.shape[0])

    def neighbors(self, node: int) -> np.ndarray:
        """Destination nodes of all out-edges of ``node``."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def neighbor_edges(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """(destinations, original edge ids) for all out-edges of ``node``."""
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.indices[lo:hi], self.edge_ids[lo:hi]

    def degree(self, node: int | None = None):
        """Out-degree of ``node``, or the full degree vector when ``None``."""
        if node is None:
            return np.diff(self.indptr)
        return int(self.indptr[node + 1] - self.indptr[node])

    # ------------------------------------------------------------------
    # Vectorized frontier operations (the sampler hot path)
    # ------------------------------------------------------------------
    def gather_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbour lists of every ``frontier`` node.

        Equivalent to ``np.concatenate([self.neighbors(u) for u in frontier])``
        — same node order (frontier order, CSR order within each row) — but
        a single fancy-index gather instead of a Python loop.
        """
        frontier = np.asarray(frontier, dtype=np.int64)
        if frontier.size == 0:
            return np.empty(0, dtype=np.int64)
        if frontier.size == 1:
            node = frontier[0]
            return self.indices[self.indptr[node]:self.indptr[node + 1]]
        return self.indices[csr_row_positions(self.indptr, frontier)[0]]

    def gather_neighbor_edges(
            self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        """Batched :meth:`neighbor_edges`: ``(dsts, eids, lens)``.

        ``dsts``/``eids`` concatenate the rows in ``rows`` order (CSR order
        within each row) and ``lens`` holds each row's length — one
        position computation indexes both payloads.
        """
        positions, lens = csr_row_positions(self.indptr, rows)
        return self.indices[positions], self.edge_ids[positions], lens

    def visited_scratch(self) -> np.ndarray:
        """Check out an all-``False`` boolean scratch of length ``num_nodes``.

        Scratches live in a free-list so per-query samplers avoid an O(|V|)
        allocation per call: the common single-owner case keeps reusing one
        mask, while nested or concurrent borrowers each get their own mask
        instead of corrupting a shared one.  The borrower MUST reset every
        entry it set to ``True`` and hand the mask back via
        :meth:`release_scratch` (samplers do both in a ``finally`` block).
        """
        pool = self._scratch_pool
        if pool:
            return pool.pop()
        return np.zeros(self.num_nodes, dtype=bool)

    def release_scratch(self, mask: np.ndarray) -> None:
        """Return a mask checked out by :meth:`visited_scratch`.

        The mask must be all-``False`` again — releasing a dirty mask would
        poison a later borrower's visited set.
        """
        if mask.size == self.num_nodes:
            self._scratch_pool.append(mask)
