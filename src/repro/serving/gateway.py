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
  :class:`~repro.serving.qos.DeadlineAwareScheduler`: a batch releases on
  size, on age, or when its oldest request has spent its configured
  fraction of deadline budget waiting.  The drain loop always serves
  ready interactive batches before batch-class before background.
* **Execution** — each released batch rides the untouched
  :class:`PromptServer` hot path (submit → drain), so admitted requests
  get **bit-identical predictions** to direct server calls: sessions keep
  a fixed priority class, per-session arrival order is preserved inside
  one class queue, micro-batch composition never changes predictions
  (PR 1's invariant), and each session's Augmenter evolves in the same
  order either way.
* **Graceful drain / hot swap** — :meth:`update_graph` and
  :meth:`reload_model` first drain every admitted in-flight request under
  the swap lock, then mutate; zero requests are dropped, and sessions are
  re-anchored so no post-swap answer comes from pre-swap state.

Per-tenant accounting (QPS, shed rate, queue-wait percentiles, deadline
misses, attributed per-shard work) flows up through
:class:`~repro.serving.qos.TenantLedger` into ``ServerStats.tenants``.

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
    DeadlineAwareScheduler,
    Overloaded,
    Priority,
    TenantLedger,
    Unavailable,
)
from .server import PromptServer, ServeResult, ServerStats

__all__ = ["GatewayResult", "ServingGateway"]


@dataclass(frozen=True)
class GatewayResult:
    """One admitted request's answer, with gateway-side accounting."""

    tenant_id: str
    session_id: str
    priority: Priority
    result: ServeResult | None
    #: Time spent in the gateway's class queue before batch release (the
    #: server-side micro-batch wait is inside ``result.wait_s``).
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

    Unspecified knobs default to the server config's ``gateway_*``
    fields.  ``clock`` defaults to the server's clock, so fake-clock
    servers get a fake-clock gateway for free.
    """

    def __init__(self, server: PromptServer, *,
                 max_queue: int | None = None,
                 max_batch_size: int | None = None,
                 max_wait_s: float | None = None,
                 flush_fraction: float | None = None,
                 tenant_rate_qps: float | None = None,
                 tenant_burst: float | None = None,
                 tenant_quota: int | None = None,
                 deadlines: dict | None = None,
                 auto_drain: bool = True,
                 clock=None,
                 registry: MetricsRegistry | None = None,
                 trace_every: int | None = None):
        config = server.config
        self.server = server
        self.clock = clock if clock is not None else server.clock
        #: Shared with the server by default, so one scrape covers the
        #: gateway's admission counters and the server's batch metrics.
        self.obs = registry if registry is not None else server.obs
        self.tracer = Tracer(
            every=config.obs_trace_every if trace_every is None
            else trace_every)
        obs = self.obs
        tenant_labels = ("tenant", "priority")
        self._m_submitted = obs.counter(
            "repro_gateway_submitted_total",
            "Requests offered to gateway admission.", tenant_labels)
        self._m_admitted = obs.counter(
            "repro_gateway_admitted_total",
            "Requests admitted past the gateway.", tenant_labels)
        self._m_shed = obs.counter(
            "repro_gateway_shed_total",
            "Requests refused at admission, by shed reason.",
            ("tenant", "priority", "reason"))
        self._m_completed = obs.counter(
            "repro_gateway_completed_total",
            "Admitted requests resolved successfully.", tenant_labels)
        self._m_errors = obs.counter(
            "repro_gateway_errors_total",
            "Admitted requests resolved with an error.", tenant_labels)
        self._m_misses = obs.counter(
            "repro_gateway_deadline_misses_total",
            "Resolved requests that blew their deadline.", tenant_labels)
        self._m_queue_wait = obs.histogram(
            "repro_gateway_queue_wait_seconds",
            "Class-queue wait before batch release.", ("priority",))
        self._endpoint = None

        def _knob(value, default):
            return default if value is None else value

        self.max_queue = _knob(max_queue, config.gateway_max_queue)
        self.max_batch_size = _knob(max_batch_size,
                                   config.gateway_max_batch_size)
        self.max_wait_s = _knob(max_wait_s, config.gateway_max_wait_s)
        self.flush_fraction = _knob(flush_fraction,
                                   config.gateway_flush_fraction)
        #: Deadline budget per priority class (seconds from submit).
        self.deadlines = {
            Priority.INTERACTIVE: config.gateway_deadline_interactive_s,
            Priority.BATCH: config.gateway_deadline_batch_s,
            Priority.BACKGROUND: config.gateway_deadline_background_s,
        }
        if deadlines:
            self.deadlines.update(deadlines)
        self.admission = AdmissionController(
            max_queue=self.max_queue,
            tenant_rate_qps=_knob(tenant_rate_qps,
                                 config.gateway_tenant_rate_qps),
            tenant_burst=_knob(tenant_burst, config.gateway_tenant_burst),
            tenant_quota=_knob(tenant_quota, config.gateway_tenant_quota),
            clock=self.clock)
        self._queues = {
            priority: DeadlineAwareScheduler(
                max_batch_size=self.max_batch_size,
                max_wait_s=self.max_wait_s,
                flush_fraction=self.flush_fraction, clock=self.clock)
            for priority in Priority
        }
        #: session id -> (tenant id, priority); fixed at open time so a
        #: session's requests always share one class queue (per-session
        #: FIFO is what keeps gateway serving bit-identical).
        self._sessions: dict[str, tuple[str, Priority]] = {}
        self._ledgers: dict[str, TenantLedger] = {}
        self._inflight: dict[tuple[Priority, int], _InFlight] = {}
        self._swap_lock = asyncio.Lock()
        self._wakeup = asyncio.Event()
        self._auto_drain = auto_drain
        self._drain_task: asyncio.Task | None = None
        self._closed = False
        self._batches = 0

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

        When the server has a :class:`~repro.persist.PersistentStore`,
        the tenant and priority ride the session's durable manifest, so a
        restart (or replica failover) re-opens the session for its owner.
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
        self._sessions[session_id] = (tenant_id, priority)
        self.ledger(tenant_id, priority)
        return state

    def adopt_sessions(self) -> int:
        """Register a restored server's sessions with this gateway.

        :meth:`PromptServer.restore` re-opens every manifested session on
        the *server*; this reads the same manifests to rebuild the
        gateway-side session → (tenant, priority) map and tenant ledgers,
        so restored sessions are immediately routable.  Returns the
        number of sessions adopted.
        """
        persist = self.server.persist
        if persist is None:
            return 0
        adopted = 0
        for manifest in persist.sessions.load_all():
            if manifest.session_id not in self.server.sessions:
                continue
            tenant_id = manifest.tenant_id or "default"
            priority = (Priority.INTERACTIVE if manifest.priority is None
                        else Priority(manifest.priority))
            self._sessions[manifest.session_id] = (tenant_id, priority)
            self.ledger(tenant_id, priority)
            adopted += 1
        return adopted

    def close_session(self, session_id: str):
        """Drop gateway bookkeeping for the session and close it server-side."""
        self._sessions.pop(session_id, None)
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
        flush_at = self._queues[priority].next_flush_at()
        if flush_at is None:
            return self.max_wait_s
        return max(flush_at - self.clock(), 0.0)

    def submit_nowait(self, session_id: str, datapoint: Datapoint):
        """Admit-or-shed one query without awaiting the answer.

        Returns an :class:`Overloaded` (shed — final, resolve
        immediately) or an :class:`asyncio.Future` resolving to the
        request's :class:`GatewayResult`.  Must run inside an event loop.
        A malformed datapoint raises ``ValueError`` here, before the
        tenant ledger counts it as submitted.
        """
        if self._closed:
            raise RuntimeError("gateway is closed")
        try:
            tenant_id, priority = self._sessions[session_id]
        except KeyError:
            raise KeyError(
                f"unknown session {session_id!r} — open_session() it on "
                f"this gateway first (or it was closed)") from None
        self.server.validate(datapoint)
        ledger = self.ledger(tenant_id, priority)
        now = self.clock()
        ledger.record_submit(now)
        # Deterministic 1-in-N sampling: a counter, not an RNG draw, so
        # tracing can never perturb prediction streams.
        trace = self.tracer.maybe_trace()
        klass = priority.name.lower()
        self._m_submitted.inc(tenant=tenant_id, priority=klass)
        reason = self.admission.admit(tenant_id, priority,
                                      self.queue_depth())
        if reason is not None:
            ledger.record_shed(reason)
            self._m_shed.inc(tenant=tenant_id, priority=klass,
                             reason=reason)
            if trace is not None:
                trace.add_span("admission", max(self.clock() - now, 0.0))
                trace.meta.update(tenant=tenant_id, session=session_id,
                                  priority=klass, outcome=f"shed:{reason}")
                self.tracer.record(trace)
            return Overloaded(
                tenant_id=tenant_id, session_id=session_id,
                priority=priority, reason=reason,
                retry_after_s=self.admission.retry_after(
                    tenant_id, reason,
                    flush_hint_s=self._flush_hint_s(priority)))
        ledger.admitted += 1
        ledger.tokens_consumed += 1.0
        self._m_admitted.inc(tenant=tenant_id, priority=klass)
        if trace is not None:
            trace.add_span("admission", max(self.clock() - now, 0.0))
            trace.meta.update(tenant=tenant_id, session=session_id,
                              priority=klass)
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

    def _shard_totals(self) -> tuple[int, int]:
        shards = self.server.stats.shards
        return (sum(c.requests for c in shards),
                sum(c.halo_fetches for c in shards))

    def _process_batch(self, priority: Priority, batch: list) -> int:
        """Run one released class batch through the server hot path."""
        if not batch:
            return 0
        release_at = self.clock()
        requests_before, halo_before = self._shard_totals()
        tickets: dict[int, object] = {}
        errors: list[tuple[object, str]] = []
        for request in batch:
            try:
                ticket = self.server.submit(request.session_id,
                                            request.datapoint,
                                            trace=request.trace)
            except KeyError:
                errors.append((request, "session-expired"))
                continue
            tickets[ticket] = request
        try:
            results = self.server.drain() if tickets else []
        except Exception as failure:
            # Never-hang contract: the batch is already popped, so every
            # one of its futures must settle even when the hot path
            # blows up.  Settle with a typed error, then re-raise so an
            # explicit pump()/flush() caller sees the failure (the
            # background drain loop logs-and-survives it).
            done_at = self.clock()
            reason = f"internal: {type(failure).__name__}: {failure}"
            for request in tickets.values():
                self._resolve(priority, request, None, release_at,
                              done_at, error=reason)
            for request, expired in errors:
                self._resolve(priority, request, None, release_at,
                              done_at, error=expired)
            raise
        done_at = self.clock()
        requests_after, halo_after = self._shard_totals()

        by_ticket = {result.request_id: result for result in results}
        tenant_share: dict[str, int] = {}
        for request, reason in errors:
            self._resolve(priority, request, None, release_at, done_at,
                          error=reason)
        for ticket, request in tickets.items():
            tenant_id = self._resolve(priority, request,
                                      by_ticket.get(ticket),
                                      release_at, done_at)
            if tenant_id is not None:
                tenant_share[tenant_id] = tenant_share.get(tenant_id, 0) + 1
        # Per-shard work flows up into tenant ledgers: each tenant is
        # attributed its proportional share of this batch's shard-counter
        # deltas (routed requests, halo fetches).
        total = sum(tenant_share.values())
        if total:
            request_delta = requests_after - requests_before
            halo_delta = halo_after - halo_before
            for tenant_id, count in tenant_share.items():
                ledger = self.ledger(tenant_id)
                ledger.shard_requests += request_delta * count / total
                ledger.halo_fetches += halo_delta * count / total
        self._batches += 1
        return len(batch)

    def _resolve(self, priority: Priority, request,
                 result: ServeResult | None, release_at: float,
                 done_at: float, error: str | None = None) -> str | None:
        """Settle one request's future + ledger; returns its tenant id."""
        inflight = self._inflight.pop((priority, request.request_id), None)
        if inflight is None:  # pragma: no cover - submit always registers
            return None
        queue_wait_s = max(release_at - inflight.submitted_at, 0.0)
        missed = done_at > inflight.deadline
        if error is None and result is not None and not result.ok:
            error = result.error
        outcome = GatewayResult(
            tenant_id=inflight.tenant_id, session_id=inflight.session_id,
            priority=priority, result=result, queue_wait_s=queue_wait_s,
            deadline_missed=missed, error=error)
        ledger = self.ledger(inflight.tenant_id)
        klass = priority.name.lower()
        if error is not None:
            # Failures stay out of completed/QPS/wait percentiles: a
            # tenant whose requests all errored must not look healthy.
            ledger.record_error(done_at)
            self._m_errors.inc(tenant=inflight.tenant_id, priority=klass)
        else:
            ledger.record_complete(queue_wait_s, missed, done_at)
            self._m_completed.inc(tenant=inflight.tenant_id,
                                  priority=klass)
        if missed:
            self._m_misses.inc(tenant=inflight.tenant_id, priority=klass)
        self._m_queue_wait.observe(queue_wait_s, priority=klass)
        trace = getattr(request, "trace", None)
        if trace is not None:
            trace.add_span("queue_wait", queue_wait_s)
            trace.add_span("total",
                           max(done_at - inflight.submitted_at, 0.0))
            trace.meta["outcome"] = "ok" if error is None else error
            self.tracer.record(trace)
        if not inflight.future.done():
            inflight.future.set_result(outcome)
        return inflight.tenant_id

    # ------------------------------------------------------------------
    # Graceful drain / hot swap
    # ------------------------------------------------------------------
    async def update_graph(self, update: GraphUpdate,
                           log: bool = True) -> AppliedUpdate:
        """Apply a live graph mutation with zero dropped requests.

        Under the swap lock: every admitted in-flight request is drained
        through the *pre-mutation* graph, then the server absorbs the
        update (shard rebuilds, session epoch invalidation).  Requests
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

        Each scrape re-collects the legacy ledgers into the shared
        registry and renders Prometheus text exposition.  Returns the
        running :class:`~repro.obs.MetricsEndpoint` (its ``.url`` is the
        scrape target); idempotent — a second call returns the first
        endpoint.  ``close()`` shuts it down with the gateway.
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
            self._m_errors.inc(tenant=entry.tenant_id,
                               priority=priority.name.lower())
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
