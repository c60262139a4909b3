"""Online inference façade: many sessions, one model, micro-batched encoding.

:class:`PromptServer` turns the offline episode runner into a serving loop:

* ``open_session`` — bind a session id to an episode definition; the
  candidate pool is encoded **once** and reused for every query of the
  session (the amortization the offline runner only got within one call).
* every encode — pool opens, stale-pool refreshes and query batches —
  goes through one :class:`~repro.serving.memo.EncodingMemo` shared by
  all sessions: a datapoint another session (or an earlier episode)
  already encoded is read back, byte-identical, instead of being sampled
  and encoded again.
* ``submit`` — enqueue a single query for a session on the server's own
  queue; returns a ticket.  ``step`` / ``drain`` release that queue, one
  micro-batch at a time, through ``serve``.
* ``serve`` — run one micro-batch: all its queries, across sessions, are
  encoded in **one** GNN pass, then predicted in *waves*: wave ``k``
  holds the ``k``-th query of every session in the batch, each query's
  Selector step and Augmenter cache read run against its own session's
  state, and the wave's task graphs share **one** task-GNN forward.
  Each session's Augmenter updates land before its next wave.  The
  gateway hands it each batch its class queues release.

A session's queries still run in its arrival order, which is the only
order its Augmenter cache depends on; the wave forward is byte-identical
per task graph, subgraph sampling is deterministic per datapoint, and a
no-grad encoder row does not depend on the batch it rides in
(``nn.Linear``'s row-invariant products and
``GraphPrompterModel.encode_subgraphs``'s two-copy encode of a lone
subgraph enforce that).  So serving with any ``max_batch_size`` produces
bit-identical predictions and confidences to per-query serving —
micro-batching is purely a throughput optimization.

On a mutable graph (``mutable_graph``) a session keeps each pool
candidate's subgraph node ids, as the encode pass sampled them, and
``update_graph`` marks stale only the candidates — and evicts only the
memo entries — whose encodings read something the update changed: a
touched row their sampler read, or a changed edge inside their node set
(:class:`~repro.serving.memo.UpdateFootprint`).
Before the session's next prediction the server re-encodes just those
rows and splices them into the pool — byte-identical to a full re-encode
by the same batch invariance.

The drain loop itself stays synchronous and deterministic (that is what
keeps the batching policy testable).  Constructed with ``num_shards > 1``,
the server routes every micro-batch through a :class:`ShardRouter` — the
graph is split into shards (:mod:`repro.shard`), each batch is encoded
one shard slice at a time, and the rows are merged back in submission
order.  Sharded sampling is bit-identical to the monolithic sampler and
encoder rows do not depend on their batch, so sharded serving returns
exactly the same predictions and confidences.  ``clock`` is injectable
for TTL tests.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.config import GraphPrompterConfig
from ..core.episodes import Episode
from ..core.inference import GraphPrompterPipeline, PredictEntry
from ..core.model import GraphPrompterModel
from ..core.prompt_augmenter import PromptAugmenter
from ..datasets.base import Dataset
from ..gnn.batch import BatchArena
from ..graph.datapoints import Datapoint, validate_datapoint
from ..graph.delta import AppliedUpdate, GraphUpdate
from ..obs.metrics import (
    BATCH_SIZE_BUCKETS,
    MetricsRegistry,
    get_registry,
    scoped_registry,
)
from ..obs.tracing import batch_scope, span
from ..persist import (
    PersistentStore,
    SessionManifest,
    episode_from_jsonable,
    episode_to_jsonable,
)
from ..shard import PARTITION_STRATEGIES, ShardCounters
from .memo import EncodingMemo, UpdateFootprint
from .qos import Priority
from .router import ShardRouter
from .scheduler import MicroBatchScheduler, PendingRequest
from .session import SessionState, SessionStore, index_node_sets

__all__ = ["ServeResult", "ServerStats", "PromptServer"]


def _validate_episode(episode: Episode, shots: int) -> None:
    """Raise ``ValueError`` unless a session can serve ``episode``'s
    shape (its candidates are checked against the graph at open)."""
    num_ways = episode.num_ways
    if num_ways < 2:
        raise ValueError(f"an episode needs at least two ways, got "
                         f"{num_ways}")
    labels = np.asarray(episode.candidate_labels)
    if (labels.ndim != 1 or labels.dtype.kind not in "iu"
            or labels.shape[0] != len(episode.candidates)):
        raise ValueError("candidate_labels must be a 1-D integer array "
                         "with one label per candidate")
    if labels.size and (labels.min() < 0 or labels.max() >= num_ways):
        raise ValueError(f"candidate labels must lie in [0, {num_ways})")
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    if not len(episode.candidates):
        raise ValueError("an episode needs at least one candidate")


@dataclass(frozen=True)
class ServeResult:
    """Answer to one submitted query."""

    request_id: int
    session_id: str
    prediction: int
    confidence: float
    batch_size: int
    wait_s: float
    service_s: float
    error: str | None = None

    @property
    def latency_s(self) -> float:
        """Queue wait plus micro-batch service time."""
        return self.wait_s + self.service_s

    @property
    def ok(self) -> bool:
        """Whether the query completed without error."""
        return self.error is None


@dataclass(frozen=True)
class ServerStats:
    """Snapshot of server-level counters across all sessions.

    ``shards`` holds one :class:`~repro.shard.ShardCounters` per shard
    (``requests`` routed, ``halo_fetches`` across shard boundaries,
    ``worker_busy_s`` spent encoding) when the server runs sharded;
    empty on the monolithic path.

    ``encoded_subgraphs`` counts the requests of every released
    micro-batch, expired sessions' included — not encodes: the encoding
    memo answers some of them without encoding.  ``memo_hits`` and
    ``memo_misses`` are the memo's own counts over every encode site
    (session opens, pool refreshes and query batches); a miss is one
    datapoint encoded.
    """

    queries: int = 0
    batches: int = 0
    encoded_subgraphs: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    sessions_opened: int = 0
    sessions_evicted: int = 0
    sessions_expired: int = 0
    shards: tuple[ShardCounters, ...] = ()
    #: Per-tenant QoS ledgers (admitted/shed counts, QPS, queue-wait
    #: percentiles, deadline misses).  Filled by
    #: :class:`~repro.serving.ServingGateway`; empty when the server
    #: is driven directly.
    tenants: tuple = ()
    #: Live-update ledger: current graph epoch, update batches applied,
    #: sessions marked stale by an update, pool rows stale-session
    #: refreshes replaced (re-encoded, or read from the encoding memo
    #: when another session already re-encoded them), and cache entries
    #: the live sessions' Augmenters dropped as graph-stale (capacity
    #: evictions are counted separately, per session).
    graph_version: int = 0
    graph_updates: int = 0
    sessions_invalidated: int = 0
    refreshed_candidates: int = 0
    stale_evictions: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average requests per released micro-batch."""
        return self.encoded_subgraphs / self.batches if self.batches else 0.0

    @property
    def halo_fetches(self) -> int:
        """Total cross-shard row fetches (0 when unsharded)."""
        return sum(c.halo_fetches for c in self.shards)


class PromptServer:
    """Multi-session online GraphPrompter inference over one dataset.

    ``max_batch_size`` bounds the batches :meth:`step` takes from the
    server's own queue; a batch handed to :meth:`serve` runs whole.
    """

    def __init__(self, model: GraphPrompterModel, dataset: Dataset,
                 max_batch_size: int = 16,
                 session_capacity: int = 64,
                 session_ttl_s: float | None = None,
                 result_buffer_size: int = 4096,
                 rng: np.random.Generator | int | None = None,
                 clock=time.monotonic,
                 num_shards: int = 1,
                 shard_strategy: str = "greedy",
                 registry: MetricsRegistry | None = None,
                 persist: PersistentStore | None = None,
                 shard_owner: np.ndarray | None = None):
        if result_buffer_size < 1:
            raise ValueError("result_buffer_size must be at least 1")
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if shard_strategy not in PARTITION_STRATEGIES:
            raise ValueError(f"unknown shard strategy {shard_strategy!r}; "
                             f"use one of {PARTITION_STRATEGIES}")
        model.eval()
        self.model = model
        self.dataset = dataset
        self.config: GraphPrompterConfig = model.config
        self.rng = np.random.default_rng(rng)
        self.clock = clock
        # Observability home: an explicit registry wins, else the ambient
        # one (process-global unless a scope is active).
        self.obs = registry if registry is not None else get_registry()
        self.pipeline = GraphPrompterPipeline(model, dataset, rng=self.rng)
        # Serving requires order-independent subgraphs: the same query must
        # encode identically whether it rides a batch of 1 or 16.
        self.pipeline.generator.deterministic = True
        # One shard keeps the monolithic hot path.
        self.router: ShardRouter | None = None
        if num_shards > 1:
            self.router = ShardRouter(
                model, dataset.graph, num_shards=num_shards,
                strategy=shard_strategy, owner=shard_owner)
            # Candidate pools and query batches both flow through
            # encode_points — route them all through the shards.
            self.pipeline.point_encoder = self.router.encode_points
        self.scheduler = MicroBatchScheduler(max_batch_size=max_batch_size,
                                             clock=clock)
        # One encoding per datapoint across sessions.  A sampled node set
        # holds at most max_subgraph_nodes ids, or its seeds when a
        # datapoint has more of them.
        self.memo = EncodingMemo(max(self.config.max_subgraph_nodes, 2))
        # One arena per server: every micro-batch is assembled into the
        # same reusable buffers, so the large per-batch arrays are recycled
        # instead of reallocated each batch.  Safe because a batch is fully
        # consumed (encode → scatter results) before the next one is
        # assembled.
        self.arena = BatchArena()
        self.sessions = SessionStore(capacity=session_capacity,
                                     ttl_seconds=session_ttl_s, clock=clock)
        # Live-update path: dependency tracking + epoch invalidation are
        # paid only when the config opts in.
        self._mutable = self.config.mutable_graph
        if self._mutable:
            dataset.graph.compact_threshold = self.config.compact_threshold
        # Durability: with a PersistentStore attached, the baseline
        # snapshot is written once (no-op on a warm start over an existing
        # store), every accepted update is WAL-logged *before* it is
        # applied, and each open session keeps a manifest on disk — the
        # three pieces :meth:`restore` warm-starts from.
        self.persist = persist
        self._session_open_index = 0
        if persist is not None:
            persist.initialize(dataset.graph, owner=self._owner_map())
            self._session_open_index = persist.sessions.next_open_index()
        #: WAL records re-applied by the most recent :meth:`restore`.
        self.last_recovery_replayed = 0
        self._graph_updates = 0
        self._sessions_invalidated = 0
        self._refreshed_candidates = 0
        self._queries = 0
        self._batches = 0
        self._encoded_subgraphs = 0
        self._sessions_opened = 0
        # Completed results kept for ticket lookup; bounded so a
        # long-running server does not grow with total queries served
        # (oldest results fall out first — callers collect promptly).
        self.result_buffer_size = result_buffer_size
        self._results: "OrderedDict[int, ServeResult]" = OrderedDict()

    @property
    def stats(self) -> ServerStats:
        """Current counter snapshot (session counters from the store)."""
        return ServerStats(
            queries=self._queries, batches=self._batches,
            encoded_subgraphs=self._encoded_subgraphs,
            memo_hits=self.memo.hits, memo_misses=self.memo.misses,
            sessions_opened=self._sessions_opened,
            sessions_evicted=self.sessions.evicted_total,
            sessions_expired=self.sessions.expired_total,
            shards=self.router.stats() if self.router is not None else (),
            graph_version=self.dataset.graph.version,
            graph_updates=self._graph_updates,
            sessions_invalidated=self._sessions_invalidated,
            refreshed_candidates=self._refreshed_candidates,
            stale_evictions=sum(
                state.augmenter.stats().stale_evictions
                for state in self.sessions.states()))

    def _owner_map(self) -> np.ndarray | None:
        """Current shard-owner map (``None`` on the monolithic path)."""
        return self.router.store.owner if self.router is not None else None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, session_id: str, episode: Episode,
                     shots: int = 3, tenant_id: str | None = None,
                     priority=None,
                     _open_index: int | None = None) -> SessionState:
        """Bind ``session_id`` to an episode; encodes its pool once.

        Candidates the encoding memo holds — encoded by another session,
        or by an earlier episode, and not made stale by an update since —
        are read from it; only the rest are sampled and encoded.

        ``tenant_id``/``priority`` are kept on the session, where the
        gateway routes by them, and in its durable manifest (when a
        :class:`~repro.persist.PersistentStore` is attached) so a restart
        — or a replica-set failover — re-opens the session for its owner.
        ``_open_index`` is the restore path's override: re-opened sessions
        keep their original open order (the per-open RNG draw sequence
        depends on it).

        Raises ``ValueError`` — before any encode, RNG draw, store insert
        or manifest write — unless the episode has at least two ways, at
        least one candidate, one integer label in ``[0, num_ways)`` per
        candidate, every candidate servable by :meth:`validate`'s rule,
        and ``shots`` at least 1.  A malformed episode would otherwise
        open fine and then fail every query batched with its own, or
        fail inside sampling.
        """
        _validate_episode(episode, shots)
        self._validate_candidates(episode.candidates)
        if priority is not None:
            priority = Priority(priority)
        fields = self._encode_pool(episode, shots)
        augmenter = PromptAugmenter(
            self.config, rng=np.random.default_rng(self.rng.integers(2**32)))
        state = SessionState(
            session_id=session_id, num_ways=episode.num_ways, shots=shots,
            augmenter=augmenter, tenant_id=tenant_id, priority=priority,
            graph_version=self.dataset.graph.version, **fields)
        evicted = self.sessions.put(state)
        self._sessions_opened += 1
        if self.persist is not None:
            for victim in evicted:
                self.persist.sessions.remove(victim)
            index = (self._session_open_index if _open_index is None
                     else _open_index)
            self._session_open_index = max(self._session_open_index,
                                           index) + 1
            self.persist.sessions.write(SessionManifest(
                session_id=session_id, open_index=index, shots=shots,
                graph_version=self.dataset.graph.version,
                episode=episode_to_jsonable(episode),
                tenant_id=tenant_id,
                priority=None if priority is None else int(priority)))
        return state

    def _validate_candidates(self, candidates: list) -> None:
        """Raise ``ValueError`` naming the first candidate that is not
        servable on the live graph, by ``validate_datapoint``'s rule.

        Candidates the encoding memo holds are not checked again: every
        entry was validated on its way in, and most opens find most of
        their pool there.
        """
        graph = self.dataset.graph
        for index, point in enumerate(candidates):
            try:
                if point in self.memo:
                    continue
            except TypeError:  # unhashable: no datapoint, as checked next
                pass
            try:
                validate_datapoint(point, graph.num_nodes,
                                   graph.num_relations, self.dataset.task)
            except ValueError as exc:
                raise ValueError(
                    f"candidate {index} ({point!r}): {exc}") from None

    def close_session(self, session_id: str) -> SessionState | None:
        """Drop a session's cache and ledger; returns the final state."""
        state = self.sessions.close(session_id)
        if self.persist is not None and state is not None:
            self.persist.sessions.remove(session_id)
        return state

    def _sweep_sessions(self) -> None:
        """TTL sweep that also retires expired sessions' manifests."""
        expired = self.sessions.sweep()
        if self.persist is not None:
            for session_id in expired:
                self.persist.sessions.remove(session_id)

    # ------------------------------------------------------------------
    # Live graph updates (cache-epoch invalidation)
    # ------------------------------------------------------------------
    def update_graph(self, update: GraphUpdate,
                     log: bool = True) -> AppliedUpdate:
        """Apply one live mutation batch and invalidate what it changed.

        The graph (and, when sharded, the owner shards) absorbs the
        update in place.  Its :class:`~repro.serving.memo.UpdateFootprint`
        — the touched-node mask and the changed-edge lookup — is built
        once and decides for the memo and every session alike: the
        encoding memo drops, and every session marks stale, the entries
        and pool candidates whose encodings read something the update
        changed (a touched row their sampler read, or an added or removed
        edge with both ends in their node set).  A session whose pool or
        answered queries hold any touched node is marked stale and
        refreshed — its stale candidates re-encoded, Augmenter cache
        purged — before its next prediction.  Everything else keeps its
        encodings and caches: it provably samples and encodes to the
        same bytes on the new graph.

        With a :class:`~repro.persist.PersistentStore` attached, the
        update is WAL-logged (and fsynced) *before* the in-memory apply —
        a crash between the two replays the record on restart, a crash
        mid-append tears the log's tail, which replay drops: either way
        durability and memory agree.  ``log=False`` is the replay path
        itself (re-applying an already-logged record must not re-log it).
        """
        if not self._mutable:
            raise RuntimeError(
                "live graph updates require mutable_graph=True in the "
                "model config")
        if self.persist is not None and log:
            self.persist.log_update(update,
                                    base_version=self.dataset.graph.version)
        applied = self.dataset.graph.apply_updates(update)
        if self.router is not None:
            self.router.apply_updates(applied)
        footprint = UpdateFootprint(
            self.dataset.graph, applied,
            self.pipeline.generator.reads_only_seed_rows)
        self.memo.evict(footprint)
        for state in self.sessions.states():
            if state.mark_touched(footprint) and not state.stale:
                state.stale = True
                self._sessions_invalidated += 1
        self._graph_updates += 1
        return applied

    def save_snapshot(self) -> int:
        """Checkpoint the current graph (and owner map) into the store.

        Compacts the WAL behind the snapshot.  Call between update
        batches (the drain loop is synchronous, so any point outside
        :meth:`update_graph` is quiescent).  Returns the snapshot's graph
        version.
        """
        if self.persist is None:
            raise RuntimeError(
                "save_snapshot requires a PersistentStore (pass persist= "
                "to the server)")
        return self.persist.save_snapshot(self.dataset.graph,
                                          owner=self._owner_map())

    def reload_model(self, state_dict: dict) -> None:
        """Swap in new model weights and re-anchor every live session.

        Order matters: weights load in place (the pipeline and the shard
        router share the model object), the encoding memo is emptied of
        old-weight rows, and then every open session re-anchors — every
        candidate marked stale, so the one refresh path re-encodes the
        whole pool under the new weights and purges the Augmenter cache
        — and no later prediction mixes old-weight state with new
        weights.
        Callers coordinating with in-flight traffic drain first — the
        gateway's :meth:`~repro.serving.ServingGateway.reload_model`
        does exactly that.
        """
        self.model.load_state_dict(state_dict)
        self.model.eval()
        self.memo.clear()
        for state in self.sessions.states():
            state.stale_candidates[:] = True
            self._refresh_session(state)

    def _encode_pool(self, episode: Episode, shots: int) -> dict:
        """Select and encode an episode's candidate pool for a session.

        Returns the session fields built from it: the ``pool``'s
        datapoints, ``candidate_emb``, ``candidate_importance``,
        ``pool_labels``, the ``selector_state`` of those arrays, and the
        candidates' subgraph node ids as the encode pass sampled them
        (``pool_nodes``, with ``pool_node_owner``).
        """
        pool, pool_labels = self.pipeline.select_candidate_pool(episode,
                                                                shots)
        candidate_emb, candidate_importance, nodes = self._encode(pool)
        pool_nodes, pool_node_owner = index_node_sets(nodes)
        return {
            "pool": pool,
            "candidate_emb": candidate_emb,
            "candidate_importance": candidate_importance,
            "pool_labels": pool_labels,
            "selector_state": self.pipeline.selector.pool_state(
                candidate_emb, pool_labels),
            "pool_nodes": pool_nodes,
            "pool_node_owner": pool_node_owner}

    def _refresh_session(self, session: SessionState) -> None:
        """Re-anchor a stale session to the current graph epoch.

        Re-encodes only the candidates marked stale, in pool order and in
        one call (the memo answers those another session re-encoded since
        the update), splices their rows and node ids into the session and
        rebuilds its selector state; then purges the Augmenter cache and
        the query node mask.  The result is byte-identical to encoding
        the whole pool again: sampling is deterministic per datapoint and
        a sample whose read rows are untouched visits the same nodes,
        induction keeps only edges with both ends in the node set (so one
        with no changed edge inside reads the same edges), and an encoder
        row does not depend on the batch it rides in.  A session made
        stale only by nodes its candidates did not read re-encodes
        nothing.
        """
        rows = np.flatnonzero(session.stale_candidates)
        if rows.size:
            emb, importance, nodes = self._encode(
                [session.pool[i] for i in rows])
            session.splice_candidates(rows, emb, importance, nodes)
            session.selector_state = self.pipeline.selector.pool_state(
                session.candidate_emb, session.pool_labels)
            session.stale_candidates[:] = False
            self._refreshed_candidates += int(rows.size)
        session.reset_queries()
        session.graph_version = self.dataset.graph.version
        session.stale = False

    def _encode(self, datapoints: list, arena=None
                ) -> tuple[np.ndarray, np.ndarray, list]:
        """Rows, importance and node ids of ``datapoints``, in their
        order: the encoding memo's where it holds them, and one
        ``encode_points`` call (through ``arena``) for the distinct
        rest, which the memo then keeps."""
        with scoped_registry(self.obs):
            return self.memo.encode(
                datapoints,
                lambda points: self.pipeline.encode_points(points,
                                                           arena=arena))

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def validate(self, datapoint: Datapoint) -> None:
        """Raise ``ValueError`` unless ``datapoint`` is servable on the
        live graph for the dataset's task (see
        :func:`~repro.graph.datapoints.validate_datapoint`).

        Entry points call this before enqueueing, so a malformed request
        fails alone at submit instead of failing its whole micro-batch.
        """
        graph = self.dataset.graph
        validate_datapoint(datapoint, graph.num_nodes, graph.num_relations,
                           self.dataset.task)

    def submit(self, session_id: str, datapoint: Datapoint,
               trace=None) -> int:
        """Enqueue one query for ``session_id``; returns its ticket.

        Raises ``KeyError`` when the session is unknown (never opened,
        evicted, or expired) — callers re-open and resubmit — and
        ``ValueError`` for a malformed datapoint (:meth:`validate`).
        ``trace`` optionally attaches a sampled
        :class:`~repro.obs.TraceContext` that rides the queue and
        collects the batch tick's per-stage spans.
        """
        self._sweep_sessions()
        self.sessions.get(session_id)  # liveness check + recency touch
        self.validate(datapoint)
        return self.scheduler.submit(session_id, datapoint, trace=trace)

    def result(self, request_id: int) -> ServeResult | None:
        """Completed result for a ticket, if its batch has run."""
        return self._results.get(request_id)

    def step(self) -> list[ServeResult]:
        """Serve the next micro-batch of the server's own queue.

        Its results are kept for :meth:`result` lookup by ticket.
        """
        results = self.serve(self.scheduler.next_batch())
        for result in results:
            self._results[result.request_id] = result
        while len(self._results) > self.result_buffer_size:
            self._results.popitem(last=False)
        return results

    def drain(self) -> list[ServeResult]:
        """Flush the queue completely; returns results in arrival order."""
        results: list[ServeResult] = []
        while len(self.scheduler):
            results.extend(self.step())
        return results

    def serve(self, batch: list[PendingRequest]) -> list[ServeResult]:
        """Run ``batch`` as one micro-batch; results come in its order.

        The TTL sweep runs once, first; a request whose session expired
        or was closed while it was queued answers ``session-expired``.
        Each request's wait counts from its ``submitted_at``.  Requests
        are not validated again — the entry point that queued them did
        (:meth:`submit`, ``ServingGateway.submit_nowait``) — and results
        are not kept for :meth:`result`: the caller holds them.
        """
        self._sweep_sessions()
        if not batch:
            return []
        with scoped_registry(self.obs):
            return self._process_scoped(batch)

    # ------------------------------------------------------------------
    def _process_scoped(self, batch: list[PendingRequest]
                        ) -> list[ServeResult]:
        start = self.clock()
        obs = self.obs
        wait_hist = obs.histogram(
            "repro_server_queue_wait_seconds",
            "Micro-batch scheduler queue wait per request.")
        results: list[ServeResult | None] = [None] * len(batch)
        waits = [max(start - request.submitted_at, 0.0) for request in batch]
        # Each live session's requests in arrival order, sessions in the
        # order of their first request; ``live`` lists the requests whose
        # session is still open, the only ones worth encoding.
        queues: dict[str, tuple[SessionState, list[int]]] = {}
        live: list[int] = []
        for i, request in enumerate(batch):
            try:
                session = self.sessions.get(request.session_id)
            except KeyError:
                results[i] = ServeResult(
                    request_id=request.request_id,
                    session_id=request.session_id,
                    prediction=-1, confidence=0.0, batch_size=len(batch),
                    wait_s=waits[i], service_s=0.0, error="session-expired")
                continue
            queues.setdefault(request.session_id, (session, []))[1].append(i)
            live.append(i)
        # Hot path: every live query's subgraph — across sessions — in one
        # disjoint-union GNN pass, assembled into the server's reusable
        # arena buffers (no per-batch allocation); datapoints the memo
        # holds skip it.  The batch scope attaches the encode/shard-stage
        # spans to every traced request riding this batch.
        row = dict(zip(live, range(len(live))))
        if live:
            traces = [batch[i].trace for i in live
                      if batch[i].trace is not None]
            with batch_scope(traces), span("encode"):
                emb, importance, nodes = self._encode(
                    [batch[i].datapoint for i in live], arena=self.arena)
        for session, _ in queues.values():
            if session.stale:
                # The graph mutated inside this session's sampled region:
                # re-encode its touched candidates and drop its
                # pseudo-label cache before answering, so no pre-mutation
                # subgraph survives into this prediction.
                self._refresh_session(session)
        # Wave k holds the k-th request of each session: one task-GNN
        # forward per wave, and every session's Augmenter updated before
        # its next request predicts — so each cache evolves exactly as
        # under per-query serving.
        depth = max((len(rows) for _, rows in queues.values()), default=0)
        for k in range(depth):
            wave = [(session, rows[k]) for session, rows in queues.values()
                    if k < len(rows)]
            entries = [PredictEntry(
                session.candidate_emb, session.candidate_importance,
                session.pool_labels, session.selector_state,
                session.num_ways, session.shots, emb[row[i]:row[i] + 1],
                importance[row[i]:row[i] + 1], session.augmenter,
                batch[i].trace)
                for session, i in wave]
            traces = [entry.trace for entry in entries]
            with batch_scope(traces), span("predict"):
                answers = self.pipeline.predict_batch(entries)
            for (session, i), (preds, confs, _) in zip(wave, answers):
                request = batch[i]
                wait_hist.observe(waits[i])
                if self._mutable:
                    # The query's embedding now lives in the session (as a
                    # potential cached prompt and as hit history), so
                    # future correctness depends on its subgraph's nodes.
                    session.record_query_nodes(nodes[row[i]])
                service_s = max(self.clock() - start, 0.0)
                session.stats.record(waits[i], service_s, self.clock())
                results[i] = ServeResult(
                    request_id=request.request_id,
                    session_id=request.session_id,
                    prediction=int(preds[0]), confidence=float(confs[0]),
                    batch_size=len(batch), wait_s=waits[i],
                    service_s=service_s)
        self._queries += sum(r.ok for r in results)
        self._batches += 1
        self._encoded_subgraphs += len(batch)
        obs.histogram("repro_server_batch_size",
                      "Requests per released micro-batch.",
                      buckets=BATCH_SIZE_BUCKETS).observe(len(batch))
        return results

    # ------------------------------------------------------------------
    @classmethod
    def from_pretrained(cls, source: str, dataset: Dataset,
                        config: GraphPrompterConfig | None = None,
                        pretrain_steps: int = 400, fast: bool = False,
                        context=None, **server_kwargs) -> "PromptServer":
        """Warm-start a server from the shared disk artifact cache.

        Loads (or trains once and caches) the GraphPrompter state
        pre-trained on ``source`` via the experiments'
        :class:`~repro.experiments.common.ExperimentContext`, then binds it
        to ``dataset``.  Pass an existing ``context`` to share artifacts
        with other experiments in-process.
        """
        # Imported lazily: experiments imports serving for serve-bench.
        from ..experiments.common import ExperimentContext, default_config

        config = config or default_config()
        if context is None:
            context = ExperimentContext(pretrain_steps=pretrain_steps,
                                        fast=fast)
        state = context.pretrained_state(source, config)
        model = GraphPrompterModel(dataset.graph.feature_dim,
                                   dataset.graph.num_relations, config)
        model.load_state_dict(state)
        return cls(model, dataset, **server_kwargs)

    @classmethod
    def restore(cls, model: GraphPrompterModel, persist: PersistentStore,
                task: str, name: str | None = None,
                **server_kwargs) -> "PromptServer":
        """Warm-start a server from a :class:`~repro.persist.PersistentStore`.

        The durable trio is rehydrated in order:

        1. **snapshot** — the graph (and, when the dead server was
           sharded, its owner map, so the restored partition is the same
           partition, not a fresh strategy assignment);
        2. **WAL replay** — every update logged after the snapshot is
           re-applied through :meth:`update_graph` (``log=False``), which
           routes each mutation through the graph *and* the shard store
           exactly as live traffic did;
        3. **session manifests** — sessions re-open in their original
           open order (reproducing the per-open RNG draw sequence) with
           their recorded tenant/priority.

        By the serving stack's bit-identity contracts the restored server
        answers every query exactly as the dead one would have.  The
        replay count lands in ``last_recovery_replayed``.
        """
        start = time.perf_counter()
        graph, owner = persist.load_graph()
        dataset = Dataset(graph, task, name=name)
        server = cls(model, dataset, persist=persist, shard_owner=owner,
                     **server_kwargs)
        replayed = persist.replay_records(
            graph,
            apply=lambda _graph, update: server.update_graph(update,
                                                             log=False))
        server.last_recovery_replayed = replayed
        for manifest in persist.sessions.load_all():
            server.open_session(
                manifest.session_id,
                episode_from_jsonable(manifest.episode),
                shots=manifest.shots,
                tenant_id=manifest.tenant_id,
                priority=manifest.priority,
                _open_index=manifest.open_index)
        persist.record_recovery_seconds(time.perf_counter() - start)
        return server
