"""Session-scoped serving state: one Augmenter cache per logical caller.

A *session* is one logical stream of in-context queries — one tenant, one
episode definition (candidate pool + way count + shot count).  The paper's
Augmenter cache (Sec. IV-C) is a per-stream object: pseudo-labelled test
samples only make sense as prompts for *later queries of the same stream*,
so the serving layer gives every session its own
:class:`~repro.core.prompt_augmenter.PromptAugmenter` plus the encoded
candidate-pool arrays the Selector needs, and a stats ledger.  A session
opened through the gateway also records its tenant and priority class,
which the gateway routes each of its requests by.

:class:`SessionStore` bounds the number of live sessions with LRU eviction
and optionally expires sessions idle longer than a TTL — the multi-tenant
analogue of the cache bound ``c`` inside each session.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..cache.stats import CacheStats
from ..core.prompt_augmenter import PromptAugmenter
from ..core.prompt_selector import SelectorState
from .memo import UpdateFootprint, seed_ends
from .qos import Priority

__all__ = ["SessionStats", "SessionState", "SessionStore", "index_node_sets"]


@dataclass
class SessionStats:
    """Per-session serving ledger.

    Cache counts are not copied here: the session's Augmenter cache owns
    them (:meth:`SessionState.cache_stats`).
    """

    queries: int = 0
    total_wait_s: float = 0.0
    total_service_s: float = 0.0
    last_active: float = 0.0

    def record(self, wait_s: float, service_s: float, now: float) -> None:
        """Fold one completed query's timings into the session stats."""
        self.queries += 1
        self.total_wait_s += wait_s
        self.total_service_s += service_s
        self.last_active = now


def _no_nodes() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def index_node_sets(node_sets: list) -> tuple[np.ndarray, np.ndarray]:
    """Every set's node ids in one flat array, and the index of the set
    each id came from (the layout of ``SessionState.pool_nodes``)."""
    owner = np.repeat(np.arange(len(node_sets)),
                      [len(ids) for ids in node_sets])
    return np.concatenate(node_sets), owner


@dataclass
class SessionState:
    """Everything one session's queries need at prediction time.

    ``selector_state`` is the query-independent selector state of the
    encoded pool (``candidate_emb``/``pool_labels``); the server builds
    both together whenever it encodes the pool, and ``None`` makes the
    selector build it per query.

    ``tenant_id`` and ``priority`` are the owner and class the session
    was opened for (``None`` when opened on the bare server); the gateway
    reads them to route the session's requests.

    The remaining fields are the live-update (cache-epoch) plumbing.
    ``pool`` holds the pool's datapoints as selected at open, and
    ``graph_version`` the graph epoch of its encodings.  The encode pass
    hands over each subgraph's node ids: ``pool_nodes`` holds every
    candidate's ids in one flat array, ``pool_node_owner`` the index of
    the candidate each id belongs to, and ``query_nodes`` is a node mask
    of the answered queries' subgraphs (their embeddings live on in the
    Augmenter cache).  :meth:`mark_touched` marks stale the candidates
    whose encodings read something a graph update changed (a touched
    row their sampler read, or a changed edge inside their node set —
    :meth:`~repro.serving.memo.UpdateFootprint.stale`), and the session
    ``stale`` when its pool or query nodes meet the update's touched
    nodes at all.  Before the next prediction the server re-encodes just
    the stale candidates, splices their rows in
    (:meth:`splice_candidates`) and purges the Augmenter cache
    (:meth:`reset_queries`), so a mutated session never answers from
    pre-mutation subgraphs while untouched sessions keep their caches
    (and hit-rates) intact.
    """

    session_id: str
    num_ways: int
    shots: int
    candidate_emb: np.ndarray
    candidate_importance: np.ndarray
    pool_labels: np.ndarray
    augmenter: PromptAugmenter
    selector_state: SelectorState | None = None
    tenant_id: str | None = None
    priority: Priority | None = None
    stats: SessionStats = field(default_factory=SessionStats)
    pool: list = field(default_factory=list)
    pool_nodes: np.ndarray = field(default_factory=_no_nodes)
    pool_node_owner: np.ndarray = field(default_factory=_no_nodes)
    query_nodes: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=bool))
    graph_version: int = 0
    stale: bool = False
    #: Candidates to re-encode before the next prediction.
    stale_candidates: np.ndarray = field(init=False)
    #: Each candidate's seed_ends, built at the first
    #: :meth:`mark_touched`, so a server that never updates its graph
    #: never pays for them.
    _pool_seeds: np.ndarray | None = field(default=None, init=False,
                                           repr=False)

    def __post_init__(self):
        self.stale_candidates = np.zeros(len(self.pool_labels), dtype=bool)

    def cache_stats(self) -> CacheStats:
        """Counter snapshot of this session's Augmenter cache."""
        return self.augmenter.stats()

    @property
    def dependent_nodes(self) -> frozenset:
        """Every node the session's pool and answered queries depend on
        (a read-only view of ``pool_nodes`` and ``query_nodes``)."""
        return frozenset(self.pool_nodes.tolist()
                         + np.flatnonzero(self.query_nodes).tolist())

    def record_query_nodes(self, nodes: np.ndarray) -> None:
        """Add one answered query's subgraph nodes to ``query_nodes``."""
        grow = int(nodes.max()) + 1 - self.query_nodes.size
        if grow > 0:
            self.query_nodes = np.pad(self.query_nodes, (0, grow))
        self.query_nodes[nodes] = True

    def mark_touched(self, footprint: UpdateFootprint) -> bool:
        """Mark stale every candidate ``footprint`` makes stale; returns
        whether the pool or the query nodes meet its touched nodes.

        The return value keeps the node-set rule: any touched node the
        session depends on makes it stale, and so purges its Augmenter
        cache; a marked candidate always holds one.  Marks accumulate
        across updates until the next refresh.
        """
        touched = footprint.touched
        hit = touched[self.pool_nodes]
        if self._pool_seeds is None:
            self._pool_seeds = seed_ends(self.pool)
        self.stale_candidates[footprint.stale(
            self.pool_node_owner[hit], self.pool_nodes[hit],
            self._pool_seeds)] = True
        queried = touched[:self.query_nodes.size] & self.query_nodes
        return bool(hit.any()) or bool(queried.any())

    def splice_candidates(self, rows: np.ndarray, emb: np.ndarray,
                          importance: np.ndarray, nodes: list) -> None:
        """Replace the encodings and node ids of the candidates ``rows``.

        Copies ``candidate_emb`` and ``candidate_importance`` first, so
        arrays handed out earlier keep their bytes.
        """
        self.candidate_emb = self.candidate_emb.copy()
        self.candidate_emb[rows] = emb
        self.candidate_importance = self.candidate_importance.copy()
        self.candidate_importance[rows] = importance
        keep = ~np.isin(self.pool_node_owner, rows)
        ids, owner = index_node_sets(nodes)
        self.pool_nodes = np.concatenate([self.pool_nodes[keep], ids])
        self.pool_node_owner = np.concatenate([self.pool_node_owner[keep],
                                               rows[owner]])

    def reset_queries(self) -> None:
        """Forget the answered queries: purge the Augmenter cache and
        clear ``query_nodes``."""
        self.augmenter.invalidate()
        self.query_nodes = np.zeros(0, dtype=bool)


class SessionStore:
    """Bounded mapping of live sessions with LRU + TTL eviction.

    ``capacity`` caps concurrently-resident sessions (least recently *used*
    evicted first); ``ttl_seconds`` additionally expires sessions whose last
    activity is older than the TTL at sweep time.  ``clock`` is injectable
    so tests can advance time explicitly.
    """

    def __init__(self, capacity: int = 64, ttl_seconds: float | None = None,
                 clock=time.monotonic):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive when set")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        self._sessions: "OrderedDict[str, SessionState]" = OrderedDict()
        self.evicted_total = 0
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def ids(self) -> list[str]:
        """Live session ids, least recently used first."""
        return list(self._sessions)

    def states(self) -> list[SessionState]:
        """Live session states (no recency touch) — for bulk sweeps like
        graph-mutation invalidation, which must not reorder eviction."""
        return list(self._sessions.values())

    def put(self, state: SessionState) -> list[str]:
        """Register a session; returns ids evicted to make room."""
        state.stats.last_active = self.clock()
        evicted = []
        if state.session_id not in self._sessions:
            while len(self._sessions) >= self.capacity:
                victim, _ = self._sessions.popitem(last=False)
                self.evicted_total += 1
                evicted.append(victim)
        self._sessions[state.session_id] = state
        self._sessions.move_to_end(state.session_id)
        return evicted

    def get(self, session_id: str) -> SessionState:
        """Fetch a live session and refresh its recency.

        Raises ``KeyError`` for unknown (or already evicted/expired) ids —
        the caller decides whether that is a client error or a re-open.
        """
        state = self._sessions[session_id]
        self._sessions.move_to_end(session_id)
        state.stats.last_active = self.clock()
        return state

    def peek(self, session_id: str) -> SessionState | None:
        """A live session without a recency touch, or ``None``.

        For routing lookups that must leave LRU order and TTL timing
        exactly as the serving path sets them.
        """
        return self._sessions.get(session_id)

    def close(self, session_id: str) -> SessionState | None:
        """Remove a session explicitly; returns its final state."""
        return self._sessions.pop(session_id, None)

    def sweep(self) -> list[str]:
        """Expire sessions idle for longer than ``ttl_seconds``."""
        if self.ttl_seconds is None:
            return []
        now = self.clock()
        expired = [sid for sid, state in self._sessions.items()
                   if now - state.stats.last_active > self.ttl_seconds]
        for sid in expired:
            del self._sessions[sid]
            self.expired_total += 1
        return expired
