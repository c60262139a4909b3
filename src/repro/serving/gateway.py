"""Async multi-tenant serving gateway over :class:`PromptServer`.

:class:`ServingGateway` owns the request lifecycle end-to-end for many
tenants sharing one model:

* **Admission** — every submit passes the
  :class:`~repro.serving.qos.AdmissionController`: per-tenant token-bucket
  rate limiting and quota accounting, then a bounded admission queue with
  class-aware occupancy shedding.  A refused request resolves
  *immediately* with a typed :class:`~repro.serving.qos.Overloaded`
  result — under any overload, nothing ever hangs.
* **Priority batching** — admitted requests queue per
  :class:`~repro.serving.qos.Priority` class in a
  :class:`~repro.serving.scheduler.MicroBatchScheduler`: a batch releases
  on size, on age, or when its oldest request has spent its configured
  fraction of deadline budget waiting.  The drain loop always serves
  ready interactive batches before batch-class before background.
* **Execution** — each released class batch is one server micro-batch
  (:meth:`PromptServer.serve`); the class queue is the request's only
  queue.  Admitted requests get **bit-identical predictions** to direct
  server calls: sessions keep a fixed priority class, per-session arrival
  order is preserved inside one class queue, micro-batch composition
  never changes predictions, and each session's Augmenter evolves in the
  same order either way.
* **Routing** — each request is routed by the tenant and class kept on
  its server-side :class:`~repro.serving.session.SessionState`; the
  gateway keeps no copy of the session table, so a session the server
  evicted or closed is unknown here too and a restored one routes at once.
* **Graceful drain / hot swap** — :meth:`update_graph` and
  :meth:`reload_model` first drain every admitted in-flight request under
  the swap lock, then mutate; zero requests are dropped, and sessions are
  re-anchored so no post-swap answer comes from pre-swap state.

Per-tenant accounting (QPS, shed rate, queue-wait percentiles, deadline
misses) lives in one :class:`~repro.serving.qos.TenantLedger` per tenant
and flows up into ``ServerStats.tenants``.  The gateway creates no
counter of its own: a scrape or an SLO snapshot exports the ledgers into
the metrics registry through :func:`repro.obs.bridge.collect`.  Only the
class-queue wait histogram is recorded live, as a distribution no ledger
keeps.

Every setting is a :class:`ServingGateway` keyword, validated there
before any state is built.

The gateway is an asyncio front-end, but all compute stays synchronous
inside the event loop (numpy releases nothing by going async); asyncio
buys concurrent request producers, backpressure, and a place to hang the
drain loop.  Construct with ``auto_drain=False`` for deterministic tests:
no background task runs, and the test pumps explicitly.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace

from ..graph.datapoints import Datapoint
from ..graph.delta import AppliedUpdate, GraphUpdate
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .qos import (
    UNAVAILABLE_SHUTDOWN,
    AdmissionController,
    Overloaded,
    Priority,
    TenantLedger,
    Unavailable,
)
from .scheduler import MicroBatchScheduler
from .server import PromptServer, ServeResult, ServerStats

__all__ = ["DEFAULT_DEADLINES_S", "GatewayResult", "ServingGateway"]

#: Deadline budget per priority class (seconds from submit), unless
#: ``ServingGateway(deadlines=...)`` overrides a class.
DEFAULT_DEADLINES_S = {
    Priority.INTERACTIVE: 0.05,
    Priority.BATCH: 0.5,
    Priority.BACKGROUND: 5.0,
}


@dataclass(frozen=True)
class GatewayResult:
    """One admitted request's answer, with gateway-side accounting."""

    tenant_id: str
    session_id: str
    priority: Priority
    result: ServeResult | None
    #: Time spent in the gateway's class queue, submit to batch release.
    #: ``result.wait_s`` counts on from release to the start of the
    #: server's micro-batch, so the two add up without overlap.
    queue_wait_s: float
    deadline_missed: bool
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the request resolved successfully end to end."""
        return (self.error is None and self.result is not None
                and self.result.ok)

    @property
    def prediction(self) -> int:
        """Predicted class id, or -1 when the request failed."""
        return self.result.prediction if self.result is not None else -1


@dataclass
class _InFlight:
    """Bookkeeping for one admitted request awaiting its batch."""

    future: asyncio.Future
    tenant_id: str
    session_id: str
    priority: Priority
    submitted_at: float
    deadline: float


class ServingGateway:
    """Admission, priority batching, and QoS accounting for one server.

    Settings:

    * ``max_queue`` — bound of the admission queue across all classes;
      lower classes shed earlier, at fixed fractions of it
      (:data:`~repro.serving.qos.SHED_QUEUE_FRACTIONS`).
    * ``max_batch_size`` / ``max_wait_s`` — size and age release bounds
      of each class queue.
    * ``flush_fraction`` — fraction of a request's deadline budget it may
      spend queued before its class queue force-flushes.
    * ``tenant_rate_qps`` / ``tenant_burst`` — per-tenant token bucket
      (rate 0 = unlimited); ``tenant_quota`` — absolute admitted-query
      quota per tenant (0 = unlimited).
    * ``deadlines`` — ``{Priority: seconds}`` overriding classes of
      :data:`DEFAULT_DEADLINES_S`.
    * ``trace_every`` — trace every N-th submitted request (0 = off).

    A bad value raises ``ValueError`` before any state is built.
    ``clock`` defaults to the server's clock, so fake-clock servers get a
    fake-clock gateway for free.
    """

    def __init__(self, server: PromptServer, *,
                 max_queue: int = 128,
                 max_batch_size: int = 16,
                 max_wait_s: float = 1.0,
                 flush_fraction: float = 0.5,
                 tenant_rate_qps: float = 0.0,
                 tenant_burst: float = 16.0,
                 tenant_quota: int = 0,
                 deadlines: dict | None = None,
                 auto_drain: bool = True,
                 clock=None,
                 registry: MetricsRegistry | None = None,
                 trace_every: int = 0):
        #: Deadline budget per priority class (seconds from submit).
        self.deadlines = dict(DEFAULT_DEADLINES_S)
        for priority, budget in (deadlines or {}).items():
            if not isinstance(priority, Priority):
                raise ValueError(f"deadlines are keyed by Priority, got "
                                 f"{priority!r}")
            if not budget > 0:
                raise ValueError(f"the {priority.name} deadline must be "
                                 f"positive, got {budget!r}")
            self.deadlines[priority] = budget
        self.server = server
        self.clock = clock if clock is not None else server.clock
        # Each setting lives with the object it shapes: the admission
        # controller owns the queue bound and tenant limits, each class
        # queue its release policy.
        self.admission = AdmissionController(
            max_queue=max_queue, tenant_rate_qps=tenant_rate_qps,
            tenant_burst=tenant_burst, tenant_quota=tenant_quota,
            clock=self.clock)
        self._queues = {
            priority: MicroBatchScheduler(
                max_batch_size=max_batch_size, max_wait_s=max_wait_s,
                flush_fraction=flush_fraction, clock=self.clock)
            for priority in Priority
        }
        self.tracer = Tracer(every=trace_every)
        #: Shared with the server by default, so one scrape covers the
        #: gateway's ledgers and queue waits and the server's metrics.
        self.obs = registry if registry is not None else server.obs
        self._m_queue_wait = self.obs.histogram(
            "repro_gateway_queue_wait_seconds",
            "Class-queue wait before batch release.", ("priority",))
        self._endpoint = None
        self._ledgers: dict[str, TenantLedger] = {}
        # Tenants of sessions the server already holds (a restored
        # server's) keep their recorded class for open_session's check.
        for state in server.sessions.states():
            if state.tenant_id is not None:
                self.ledger(state.tenant_id, state.priority)
        self._inflight: dict[tuple[Priority, int], _InFlight] = {}
        self._swap_lock = asyncio.Lock()
        self._wakeup = asyncio.Event()
        self._auto_drain = auto_drain
        self._drain_task: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Session + tenant registration
    # ------------------------------------------------------------------
    def ledger(self, tenant_id: str,
               priority: Priority = Priority.INTERACTIVE) -> TenantLedger:
        """Get or create the accounting ledger for ``tenant_id``."""
        entry = self._ledgers.get(tenant_id)
        if entry is None:
            entry = TenantLedger(tenant_id=tenant_id, priority=priority)
            self._ledgers[tenant_id] = entry
        return entry

    def open_session(self, tenant_id: str, session_id: str, episode,
                     shots: int = 3,
                     priority: Priority = Priority.INTERACTIVE,
                     _open_index: int | None = None):
        """Open a server session owned by ``tenant_id`` at ``priority``.

        The priority class is fixed for the session's lifetime — that is
        what guarantees its requests drain in submission order — and per
        *tenant*: QoS accounting (and the overload gates built on it) is
        keyed by the tenant's class, so one tenant mixing classes would
        silently misclassify part of its traffic.  Model separate
        workloads of one customer as separate tenant ids.

        The tenant and priority live on the server's session state, which
        routes every later request; with a
        :class:`~repro.persist.PersistentStore` they also ride the
        session's durable manifest, so a restart (or replica failover)
        re-opens the session for its owner and a gateway over the
        restored server routes it with no extra step.
        """
        priority = Priority(priority)
        existing = self._ledgers.get(tenant_id)
        if existing is not None and existing.priority != priority:
            raise ValueError(
                f"tenant {tenant_id!r} already serves "
                f"{existing.priority.name} sessions; a tenant's sessions "
                f"must share one priority class (use a distinct tenant id "
                f"per class)")
        state = self.server.open_session(
            session_id, episode, shots=shots, tenant_id=tenant_id,
            priority=priority, _open_index=_open_index)
        self.ledger(tenant_id, priority)
        return state

    def close_session(self, session_id: str):
        """Close the session server-side.

        Its requests still queued here answer ``session-expired``.
        """
        return self.server.close_session(session_id)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        """Total admitted-but-unreleased requests across all classes."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def closed(self) -> bool:
        """True once the gateway stopped accepting work (close/abort)."""
        return self._closed

    def _flush_hint_s(self, priority: Priority) -> float:
        queue = self._queues[priority]
        flush_at = queue.next_flush_at()
        if flush_at is None:
            return queue.max_wait_s
        return max(flush_at - self.clock(), 0.0)

    def submit_nowait(self, session_id: str, datapoint: Datapoint):
        """Admit-or-shed one query without awaiting the answer.

        Returns an :class:`Overloaded` (shed — final, resolve
        immediately) or an :class:`asyncio.Future` resolving to the
        request's :class:`GatewayResult`.  Must run inside an event loop.
        An unknown session (never opened with a tenant, or since closed,
        evicted or expired) raises ``KeyError`` and a malformed datapoint
        ``ValueError``, both before the tenant ledger counts the request
        as submitted.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        # No recency touch: a request refreshes its session's LRU place
        # and TTL when it is served, so a shed one keeps no session alive.
        session = self.server.sessions.peek(session_id)
        if session is None or session.tenant_id is None:
            raise KeyError(
                f"unknown session {session_id!r} — open_session() it on "
                f"a gateway first (or it was closed, evicted or expired)")
        tenant_id, priority = session.tenant_id, session.priority
        self.server.validate(datapoint)
        ledger = self.ledger(tenant_id, priority)
        now = self.clock()
        ledger.record_submit(now)
        # Deterministic 1-in-N sampling: a counter, not an RNG draw, so
        # tracing can never perturb prediction streams.
        trace = self.tracer.maybe_trace()
        reason = self.admission.admit(tenant_id, priority,
                                      self.queue_depth(), ledger.admitted)
        if trace is not None:
            trace.add_span("admission", max(self.clock() - now, 0.0))
            trace.meta.update(tenant=tenant_id, session=session_id,
                              priority=priority.name.lower())
        if reason is not None:
            ledger.record_shed(reason)
            if trace is not None:
                trace.meta["outcome"] = f"shed:{reason}"
                self.tracer.record(trace)
            return Overloaded(
                tenant_id=tenant_id, session_id=session_id,
                priority=priority, reason=reason,
                retry_after_s=self.admission.retry_after(
                    tenant_id, reason,
                    flush_hint_s=self._flush_hint_s(priority)))
        ledger.admitted += 1
        deadline = now + self.deadlines[priority]
        request_id = self._queues[priority].submit(session_id, datapoint,
                                                   deadline=deadline,
                                                   trace=trace)
        future = asyncio.get_running_loop().create_future()
        self._inflight[(priority, request_id)] = _InFlight(
            future=future, tenant_id=tenant_id, session_id=session_id,
            priority=priority, submitted_at=now, deadline=deadline)
        self._ensure_drain_task()
        self._wakeup.set()
        return future

    async def submit(self, session_id: str, datapoint: Datapoint):
        """Submit one query and await its result.

        Returns a :class:`GatewayResult` for admitted requests or an
        :class:`Overloaded` for shed ones — never raises for overload,
        never hangs (the drain loop, or any concurrent ``flush``, always
        releases every admitted batch).
        """
        outcome = self.submit_nowait(session_id, datapoint)
        if isinstance(outcome, Overloaded):
            return outcome
        return await outcome

    # ------------------------------------------------------------------
    # Drain machinery
    # ------------------------------------------------------------------
    def _ensure_drain_task(self) -> None:
        if not self._auto_drain or self._closed:
            return
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain_loop())

    async def _drain_loop(self) -> None:
        """Background pump: serve ready batches, sleep until the next."""
        try:
            while not self._closed:
                try:
                    processed = await self.pump()
                except Exception:
                    # The failing batch's futures were settled with a
                    # typed error before the raise; the loop must stay
                    # alive to keep serving the other queues.
                    continue
                if processed:
                    continue
                flush_at = [queue.next_flush_at()
                            for queue in self._queues.values()]
                pending = [at for at in flush_at if at is not None]
                self._wakeup.clear()
                if not pending:
                    await self._wakeup.wait()
                    continue
                delay = max(min(pending) - self.clock(), 0.0)
                try:
                    await asyncio.wait_for(self._wakeup.wait(),
                                           timeout=max(delay, 1e-3))
                except asyncio.TimeoutError:
                    pass
        except asyncio.CancelledError:
            pass

    async def pump(self) -> int:
        """Serve every currently-ready batch; returns requests served.

        Higher classes drain first: all ready interactive batches are
        served before any batch-class batch, and so on.
        """
        served = 0
        progress = True
        while progress:
            progress = False
            for priority in Priority:
                queue = self._queues[priority]
                if queue.ready():
                    async with self._swap_lock:
                        served += self._process_batch(
                            priority, queue.next_batch())
                    progress = True
                    break  # re-check interactive before lower classes
            if progress:
                await asyncio.sleep(0)  # let producers interleave
        return served

    async def flush(self) -> int:
        """Force-drain every admitted request (any batch size)."""
        async with self._swap_lock:
            return await self._flush_locked()

    async def _flush_locked(self) -> int:
        served = 0
        while self.queue_depth():
            for priority in Priority:
                queue = self._queues[priority]
                while len(queue):
                    served += self._process_batch(priority,
                                                  queue.next_batch())
        return served

    def _process_batch(self, priority: Priority, batch: list) -> int:
        """Run one released class batch as one server micro-batch."""
        if not batch:
            return 0
        release_at = self.clock()
        try:
            # The class queue's wait ends at release and is recorded in
            # _resolve; the server's wait starts there.
            results = self.server.serve(
                [replace(request, submitted_at=release_at)
                 for request in batch])
        except Exception as failure:
            # Never-hang contract: the batch is already popped, so every
            # one of its futures must settle even when the hot path
            # blows up.  Settle with a typed error, then re-raise so an
            # explicit pump()/flush() caller sees the failure (the
            # background drain loop logs-and-survives it).
            done_at = self.clock()
            reason = f"internal: {type(failure).__name__}: {failure}"
            for request in batch:
                self._resolve(priority, request, None, release_at,
                              done_at, error=reason)
            raise
        done_at = self.clock()
        for request, result in zip(batch, results):
            self._resolve(priority, request, result, release_at, done_at)
        return len(batch)

    def _resolve(self, priority: Priority, request,
                 result: ServeResult | None, release_at: float,
                 done_at: float, error: str | None = None) -> None:
        """Settle one request's future and its tenant's ledger."""
        inflight = self._inflight.pop((priority, request.request_id), None)
        if inflight is None:  # pragma: no cover - submit always registers
            return
        queue_wait_s = max(release_at - inflight.submitted_at, 0.0)
        missed = done_at > inflight.deadline
        if error is None and result is not None and not result.ok:
            error = result.error
        outcome = GatewayResult(
            tenant_id=inflight.tenant_id, session_id=inflight.session_id,
            priority=priority, result=result, queue_wait_s=queue_wait_s,
            deadline_missed=missed, error=error)
        ledger = self.ledger(inflight.tenant_id)
        if error is not None:
            # Failures stay out of completed/QPS/wait percentiles and
            # deadline misses: a tenant whose requests all errored must
            # not look healthy, and the miss rate is over completions.
            ledger.record_error(done_at)
        else:
            ledger.record_complete(queue_wait_s, missed, done_at)
        self._m_queue_wait.observe(queue_wait_s,
                                   priority=priority.name.lower())
        trace = getattr(request, "trace", None)
        if trace is not None:
            trace.add_span("queue_wait", queue_wait_s)
            trace.add_span("total",
                           max(done_at - inflight.submitted_at, 0.0))
            trace.meta["outcome"] = "ok" if error is None else error
            self.tracer.record(trace)
        if not inflight.future.done():
            inflight.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Graceful drain / hot swap
    # ------------------------------------------------------------------
    async def update_graph(self, update: GraphUpdate,
                           log: bool = True) -> AppliedUpdate:
        """Apply a live graph mutation with zero dropped requests.

        Under the swap lock: every admitted in-flight request is drained
        through the *pre-mutation* graph, then the server absorbs the
        update (memo eviction, session epoch invalidation).  Requests
        admitted while the swap holds the lock simply queue behind it.
        ``log=False`` skips the WAL append — for callers (the replica
        set) that logged the update once already and are fanning it out.
        """
        async with self._swap_lock:
            await self._flush_locked()
            return self.server.update_graph(update, log=log)

    async def reload_model(self, state_dict: dict) -> None:
        """Hot-swap model weights with zero dropped requests.

        In-flight requests drain under the old weights; then the new
        state loads in place and every open session re-anchors — pools
        re-encoded, Augmenter caches purged — so no post-swap prediction
        mixes old-weight state with new weights.
        """
        async with self._swap_lock:
            await self._flush_locked()
            self.server.reload_model(state_dict)

    def start_metrics_endpoint(self, host: str = "127.0.0.1",
                               port: int = 0):
        """Expose ``GET /metrics`` over HTTP for this gateway.

        Each scrape collects the ledgers into the shared registry
        (:func:`repro.obs.bridge.collect`) and renders Prometheus text
        exposition.  Returns the running
        :class:`~repro.obs.MetricsEndpoint` (its ``.url`` is the scrape
        target); idempotent — a second call returns the first endpoint.
        ``close()`` shuts it down with the gateway.
        """
        if self._endpoint is None:
            from ..obs.bridge import scrape
            from ..obs.httpd import MetricsEndpoint
            self._endpoint = MetricsEndpoint(lambda: scrape(self),
                                             host=host, port=port)
        return self._endpoint

    def abort(self, reason: str = UNAVAILABLE_SHUTDOWN) -> int:
        """Immediate shutdown: settle everything in flight, serve nothing.

        The never-hang contract through process death: admission closes,
        every queued-but-unreleased batch is discarded, and every admitted
        request whose future is still pending resolves with a typed
        :class:`~repro.serving.qos.Unavailable` — no dangling future, no
        ``CancelledError`` surfacing to a tenant.  Synchronous on purpose
        so a replica-set failover can kill a replica without awaiting it.
        Idempotent; returns the number of requests settled.
        """
        self._closed = True
        now = self.clock()
        for queue in self._queues.values():
            while len(queue):
                queue.next_batch()
        inflight, self._inflight = self._inflight, {}
        settled = 0
        for (priority, _), entry in inflight.items():
            if entry.future.done():
                continue
            entry.future.set_result(Unavailable(
                tenant_id=entry.tenant_id, session_id=entry.session_id,
                priority=priority, reason=reason))
            self.ledger(entry.tenant_id).record_error(now)
            settled += 1
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
        self._wakeup.set()
        if self._drain_task is not None:
            self._drain_task.cancel()
            self._drain_task = None
        return settled

    async def close(self, drain: bool = True) -> None:
        """Stop the drain loop; by default after serving the queues.

        ``drain=False`` skips the final flush — in-flight requests settle
        with :class:`~repro.serving.qos.Unavailable` instead (the
        kill-switch the replica set pulls on failover).
        """
        if drain and not self._closed:
            await self.flush()
        task = self._drain_task
        self.abort()
        if task is not None:
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def __aenter__(self) -> "ServingGateway":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServerStats:
        """Server counters with the per-tenant QoS ledgers attached."""
        return replace(
            self.server.stats,
            tenants=tuple(self._ledgers[tenant].snapshot()
                          for tenant in sorted(self._ledgers)))
