"""Online inference façade: many sessions, one model, micro-batched encoding.

:class:`PromptServer` turns the offline episode runner into a serving loop:

* ``open_session`` — bind a session id to an episode definition; the
  candidate pool is encoded **once** and reused for every query of the
  session (the amortization the offline runner only got within one call).
* ``submit`` — enqueue a single query for a session; returns a ticket.
* ``step`` / ``drain`` — release micro-batches: all pending queries, across
  sessions, are encoded in **one** GNN pass (the per-query cost driver),
  then each query runs the Selector → Augmenter → task-graph step against
  its own session's state, in strict arrival order.

Because prediction stays per-query (only the encoder is batched) and
subgraph sampling is deterministic per datapoint, serving with any
``max_batch_size`` produces bit-identical predictions to per-query serving
— micro-batching is purely a throughput optimization.

The drain loop itself stays synchronous and deterministic (that is what
keeps the batching policy testable).  Constructed with ``num_shards > 1``,
the server routes every micro-batch through a :class:`ShardRouter` — the
graph is split into shards (:mod:`repro.shard`), each batch is encoded
one shard slice at a time, and the rows are merged back in submission
order.  Sharded sampling is bit-identical to the monolithic sampler and
encoding is batch-composition-invariant, so sharded serving returns
exactly the same predictions.  ``clock`` is injectable for TTL tests.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.config import GraphPrompterConfig
from ..core.episodes import Episode
from ..core.inference import GraphPrompterPipeline
from ..core.model import GraphPrompterModel
from ..core.prompt_augmenter import PromptAugmenter
from ..datasets.base import Dataset
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
from ..shard import ShardCounters
from .router import ShardRouter
from .scheduler import MicroBatchScheduler, PendingRequest
from .session import SessionState, SessionStore

__all__ = ["ServeResult", "ServerStats", "PromptServer"]


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
    """

    queries: int = 0
    batches: int = 0
    encoded_subgraphs: int = 0
    sessions_opened: int = 0
    sessions_evicted: int = 0
    sessions_expired: int = 0
    shards: tuple[ShardCounters, ...] = ()
    #: Per-tenant QoS ledgers (admitted/shed counts, QPS, queue-wait
    #: percentiles, deadline misses, attributed shard work).  Filled by
    #: :class:`~repro.serving.ServingGateway`; empty when the server is
    #: driven directly.
    tenants: tuple = ()
    #: Live-update ledger: current graph epoch, update batches applied,
    #: sessions marked stale by an update, and cache entries the live
    #: sessions' Augmenters dropped as graph-stale (capacity evictions
    #: are counted separately, per session).
    graph_version: int = 0
    graph_updates: int = 0
    sessions_invalidated: int = 0
    stale_evictions: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Average encoded subgraphs per batch."""
        return self.encoded_subgraphs / self.batches if self.batches else 0.0

    @property
    def halo_fetches(self) -> int:
        """Total cross-shard row fetches (0 when unsharded)."""
        return sum(c.halo_fetches for c in self.shards)


class PromptServer:
    """Multi-session online GraphPrompter inference over one dataset."""

    def __init__(self, model: GraphPrompterModel, dataset: Dataset,
                 max_batch_size: int = 16, max_wait_s: float = 0.0,
                 session_capacity: int = 64,
                 session_ttl_s: float | None = None,
                 result_buffer_size: int = 4096,
                 rng: np.random.Generator | int | None = None,
                 clock=time.monotonic,
                 num_shards: int | None = None,
                 shard_strategy: str | None = None,
                 registry: MetricsRegistry | None = None,
                 persist: PersistentStore | None = None,
                 shard_owner: np.ndarray | None = None):
        if result_buffer_size < 1:
            raise ValueError("result_buffer_size must be at least 1")
        if num_shards is not None and num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        model.eval()
        self.model = model
        self.dataset = dataset
        self.config: GraphPrompterConfig = model.config
        self.rng = np.random.default_rng(rng)
        self.clock = clock
        # Observability home: an explicit registry wins, else the ambient
        # one (process-global unless a scope is active), else — with
        # metrics disabled — a dead registry whose instruments drop every
        # record after one branch.
        if registry is not None:
            self.obs = registry
        elif self.config.obs_metrics_enabled:
            self.obs = get_registry()
        else:
            self.obs = MetricsRegistry(enabled=False)
        self.pipeline = GraphPrompterPipeline(model, dataset, rng=self.rng)
        # Serving requires order-independent subgraphs: the same query must
        # encode identically whether it rides a batch of 1 or 16.
        self.pipeline.generator.deterministic = True
        # Sharding: unspecified knobs fall back to the config; one shard
        # keeps the monolithic hot path.
        num_shards = (self.config.num_shards if num_shards is None
                      else num_shards)
        shard_strategy = shard_strategy or self.config.shard_strategy
        self.router: ShardRouter | None = None
        if num_shards > 1:
            self.router = ShardRouter(
                model, dataset.graph, num_shards=num_shards,
                strategy=shard_strategy, owner=shard_owner)
            # Candidate pools and query batches both flow through
            # encode_points — route them all through the shards.
            self.pipeline.point_encoder = self.router.encode_points
        self.scheduler = MicroBatchScheduler(max_batch_size=max_batch_size,
                                             max_wait_s=max_wait_s,
                                             clock=clock)
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
            sessions_opened=self._sessions_opened,
            sessions_evicted=self.sessions.evicted_total,
            sessions_expired=self.sessions.expired_total,
            shards=self.router.stats() if self.router is not None else (),
            graph_version=self.dataset.graph.version,
            graph_updates=self._graph_updates,
            sessions_invalidated=self._sessions_invalidated,
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

        ``tenant_id``/``priority`` are recorded in the session's durable
        manifest (when a :class:`~repro.persist.PersistentStore` is
        attached) so a restart — or a replica-set failover — can re-open
        the session for its owner.  ``_open_index`` is the restore path's
        override: re-opened sessions keep their original open order (the
        per-open RNG draw sequence depends on it).
        """
        pool, pool_labels = self.pipeline.select_candidate_pool(episode,
                                                                shots)
        with scoped_registry(self.obs):
            candidate_emb, candidate_importance = (
                self.pipeline.encode_points(pool))
        augmenter = PromptAugmenter(
            self.config, rng=np.random.default_rng(self.rng.integers(2**32)))
        state = SessionState(
            session_id=session_id, num_ways=episode.num_ways, shots=shots,
            candidate_emb=candidate_emb,
            candidate_importance=candidate_importance,
            pool_labels=pool_labels, augmenter=augmenter,
            episode=episode,
            graph_version=self.dataset.graph.version,
            dependent_nodes=self._dependencies(pool))
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
    def _dependencies(self, datapoints: list) -> set:
        """Every node the datapoints' sampled subgraphs visit.

        Sampling is deterministic per datapoint, so re-running the (cheap)
        node-set sampler reproduces exactly the node sets the encoder
        consumed — and a mutation that touches none of them cannot change
        any of the session's subgraphs, which is what makes
        dependency-scoped invalidation sound.  Only node sets are needed,
        so no subgraph is induced here.  Empty (free) when the graph is
        immutable.
        """
        if not self._mutable:
            return set()
        generator = self.pipeline.generator
        dependencies: set[int] = set()
        for datapoint in datapoints:
            dependencies.update(generator.node_set_for(datapoint).tolist())
        return dependencies

    def update_graph(self, update: GraphUpdate,
                     log: bool = True) -> AppliedUpdate:
        """Apply one live mutation batch and invalidate what it touched.

        The graph (and, when sharded, the owner shards) absorbs the
        update in place; sessions whose sampled subgraphs
        intersect the touched nodes are marked stale and refreshed —
        candidate pool re-encoded, Augmenter cache purged — before their
        next prediction.  Sessions outside the touched region keep their
        caches: their subgraphs provably cannot have changed.

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
        touched = set(applied.touched_nodes.tolist())
        for state in self.sessions.states():
            if not state.stale and state.dependent_nodes & touched:
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

    def refresh_sessions(self) -> int:
        """Eagerly re-anchor every stale session; returns the count.

        Staleness is normally resolved lazily (on a session's next
        prediction); this forces the re-anchor now — e.g. to bound
        first-query latency after a large update, or to align a reference
        run with a freshly-recovered server in differential tests.
        """
        refreshed = 0
        for state in self.sessions.states():
            if state.stale:
                self._refresh_session(state)
                refreshed += 1
        return refreshed

    def reload_model(self, state_dict: dict) -> None:
        """Swap in new model weights and re-anchor every live session.

        Order matters: weights load in place (the pipeline and the shard
        router share the model object), and then every open session
        re-anchors (pool re-encoded under the new weights, Augmenter
        cache purged) so no later prediction mixes old-weight state with
        new weights.
        Callers coordinating with in-flight traffic drain first — the
        gateway's :meth:`~repro.serving.ServingGateway.reload_model`
        does exactly that.
        """
        self.model.load_state_dict(state_dict)
        self.model.eval()
        for state in self.sessions.states():
            self._refresh_session(state)

    def _refresh_session(self, session: SessionState) -> None:
        """Re-anchor a stale session to the current graph epoch."""
        pool, pool_labels = self.pipeline.select_candidate_pool(
            session.episode, session.shots)
        with scoped_registry(self.obs):
            session.candidate_emb, session.candidate_importance = (
                self.pipeline.encode_points(pool))
        session.pool_labels = pool_labels
        session.augmenter.invalidate()
        session.dependent_nodes = self._dependencies(pool)
        session.graph_version = self.dataset.graph.version
        session.stale = False

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

    def step(self, force: bool = False) -> list[ServeResult]:
        """Run one micro-batch if the release policy fires (or ``force``)."""
        self._sweep_sessions()
        if not (force or self.scheduler.ready()):
            return []
        batch = self.scheduler.next_batch()
        if not batch:
            return []
        return self._process(batch)

    def drain(self) -> list[ServeResult]:
        """Flush the queue completely; returns results in arrival order."""
        results: list[ServeResult] = []
        while len(self.scheduler):
            results.extend(self.step(force=True))
        return results

    # ------------------------------------------------------------------
    def _process(self, batch: list[PendingRequest]) -> list[ServeResult]:
        """One coalesced encoder pass, then per-session scatter."""
        with scoped_registry(self.obs):
            return self._process_scoped(batch)

    def _process_scoped(self, batch: list[PendingRequest]
                        ) -> list[ServeResult]:
        start = self.clock()
        obs = self.obs
        traces = [request.trace for request in batch
                  if request.trace is not None]
        # Hot path: every pending subgraph — across sessions — in one
        # disjoint-union GNN pass, assembled into the scheduler's reusable
        # arena buffers (no per-tick batch allocation).  The batch scope
        # attaches the encode/shard-stage spans to every traced request
        # riding this batch.
        with batch_scope(traces), span("encode"):
            emb, importance = self.pipeline.encode_points(
                [request.datapoint for request in batch],
                arena=self.scheduler.arena)
        wait_hist = obs.histogram(
            "repro_server_queue_wait_seconds",
            "Micro-batch scheduler queue wait per request.")
        results = []
        for i, request in enumerate(batch):
            wait_s = max(start - request.submitted_at, 0.0)
            try:
                session = self.sessions.get(request.session_id)
            except KeyError:
                results.append(ServeResult(
                    request_id=request.request_id,
                    session_id=request.session_id,
                    prediction=-1, confidence=0.0, batch_size=len(batch),
                    wait_s=wait_s, service_s=0.0, error="session-expired"))
                continue
            if session.stale:
                # The graph mutated inside this session's sampled region:
                # re-encode its pool and drop its pseudo-label cache
                # before answering, so no pre-mutation subgraph survives
                # into this prediction.
                self._refresh_session(session)
            # Prediction stays per-query and in arrival order, so each
            # session's Augmenter cache evolves exactly as it would under
            # per-query serving — batching never changes answers.
            with batch_scope([request.trace]), span("predict"):
                preds, confs, inserted = self.pipeline.predict_batch(
                    session.candidate_emb, session.candidate_importance,
                    session.pool_labels, emb[i:i + 1],
                    importance[i:i + 1], session.num_ways, session.shots,
                    augmenter=session.augmenter)
            wait_hist.observe(wait_s)
            if self._mutable:
                # The query's embedding now lives in the session (as a
                # potential cached prompt and as hit history), so future
                # correctness depends on its subgraph's nodes too.
                session.dependent_nodes.update(
                    self._dependencies([request.datapoint]))
            service_s = max(self.clock() - start, 0.0)
            session.stats.record(wait_s, service_s, inserted, self.clock())
            results.append(ServeResult(
                request_id=request.request_id,
                session_id=request.session_id,
                prediction=int(preds[0]), confidence=float(confs[0]),
                batch_size=len(batch), wait_s=wait_s, service_s=service_s))
        self._queries += sum(r.ok for r in results)
        self._batches += 1
        self._encoded_subgraphs += len(batch)
        obs.histogram("repro_server_batch_size",
                      "Requests per released micro-batch.",
                      buckets=BATCH_SIZE_BUCKETS).observe(len(batch))
        for result in results:
            self._results[result.request_id] = result
        while len(self._results) > self.result_buffer_size:
            self._results.popitem(last=False)
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
