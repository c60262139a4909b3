"""Quality-of-service primitives for the multi-tenant serving gateway.

The serving layer below this module (:class:`~repro.serving.PromptServer`)
is single-tenant and trusting: every submitted query is queued, its queue
is unbounded, and it releases batches when its caller drains it.
Production prompt-serving traffic is neither single-tenant nor polite —
it is bursty, heterogeneous across tasks, and overload is a when-not-if —
so the gateway needs the classic QoS vocabulary, which this module
provides as small deterministic pieces:

* :class:`Priority` — interactive / batch / background request classes,
  each with its own deadline budget;
* :class:`TokenBucket` — per-tenant rate limiting (sustained QPS + burst);
* :class:`AdmissionController` — bounded admission with class-aware load
  shedding: lower classes are refused while queue occupancy is high so
  that interactive traffic keeps its latency under overload;
* :class:`Overloaded` — the *typed* rejection every shed request gets
  immediately (a shed request never hangs and never raises);
* :class:`TenantLedger` / :class:`TenantStats` — per-tenant accounting:
  submitted/admitted/shed/completed/error counts, QPS, queue-wait
  percentiles and deadline misses.  The ledger is the one owner of these
  counts: admission reads its ``admitted`` for the quota check, and the
  metrics registry receives them only through the scrape-time bridge
  (:func:`repro.obs.bridge.collect`).

Everything takes an injectable ``clock`` and draws no hidden randomness,
so admission and shedding decisions replay exactly under a seeded burst
schedule — the property ``tests/test_gateway.py`` pins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

__all__ = [
    "Priority",
    "TokenBucket",
    "Overloaded",
    "Unavailable",
    "AdmissionController",
    "TenantLedger",
    "TenantStats",
    "SHED_QUEUE_FRACTIONS",
    "WAIT_WINDOW",
]


class Priority(IntEnum):
    """Request class, ordered best-first (lower value = more urgent)."""

    INTERACTIVE = 0
    BATCH = 1
    BACKGROUND = 2


#: Fraction of the admission-queue bound each class may fill before it is
#: shed.  Interactive may use the whole queue; batch is refused once the
#: queue is half full; background once it is a quarter full.  The gaps are
#: what keeps interactive latency bounded under overload: by the time the
#: queue could delay an interactive request, lower classes are already
#: being turned away.
SHED_QUEUE_FRACTIONS = {
    Priority.INTERACTIVE: 1.0,
    Priority.BATCH: 0.5,
    Priority.BACKGROUND: 0.25,
}

#: Queue waits each tenant ledger keeps for its percentiles (the oldest
#: falls out first), so a long-running gateway's snapshots track recent
#: behaviour without unbounded growth.
WAIT_WINDOW = 4096

#: ``Overloaded.reason`` values.
SHED_QUEUE_FULL = "queue-full"
SHED_RATE_LIMITED = "rate-limited"
SHED_QUOTA_EXHAUSTED = "quota-exhausted"


@dataclass(frozen=True)
class Overloaded:
    """Typed load-shed result: the request was refused, not queued.

    Returned synchronously from admission — a shed request resolves
    immediately with this (never a hang, never an exception), carrying
    enough context for the caller to back off and retry.
    """

    tenant_id: str
    session_id: str
    priority: Priority
    reason: str
    #: Suggested back-off: time until the shedding condition can clear
    #: (token-bucket refill time, or one flush interval for a full queue).
    retry_after_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Always False: a shed request never succeeded."""
        return False


#: ``Unavailable.reason`` values.
UNAVAILABLE_SHUTDOWN = "shutdown"
UNAVAILABLE_FAILOVER = "replica-failover"


@dataclass(frozen=True)
class Unavailable:
    """Typed shutdown/failover result: the request was accepted but the
    serving process went away before (or while) computing it.

    The never-hang contract extends through shutdown: when a gateway is
    aborted (or a replica is killed mid-flight), every admitted,
    still-unresolved request settles with this — never a dangling future,
    never a raw ``CancelledError`` surfacing to the tenant.  Unlike
    :class:`Overloaded`, the work may be retried immediately against a
    surviving replica; durable state (WAL + manifests) guarantees the
    retried answer is the same one the dead process would have served.
    """

    tenant_id: str
    session_id: str
    priority: Priority
    reason: str = UNAVAILABLE_SHUTDOWN

    @property
    def ok(self) -> bool:
        """Always False: the gateway was shutting down."""
        return False


class TokenBucket:
    """Standard token bucket: ``rate`` tokens/s refill, ``burst`` capacity.

    ``rate <= 0`` disables the limiter (every acquire succeeds) — the
    gateway's ``tenant_rate_qps=0`` "unlimited".  Time comes from the
    injected ``clock`` so refill is exact under test-controlled time.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()

    @property
    def tokens(self) -> float:
        """Current token balance (after refilling to now)."""
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self.clock()
        elapsed = max(now - self._refilled_at, 0.0)
        self._refilled_at = now
        if self.rate > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_acquire(self, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; never blocks."""
        if self.rate <= 0:
            return True
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    def seconds_until(self, cost: float = 1.0) -> float:
        """Time until ``cost`` tokens will have refilled (0 if ready)."""
        if self.rate <= 0:
            return 0.0
        self._refill()
        deficit = cost - self._tokens
        return max(deficit, 0.0) / self.rate


@dataclass
class TenantLedger:
    """Mutable per-tenant accounting the gateway updates in place.

    Queue waits are kept in a float64 ring of :data:`WAIT_WINDOW`
    entries (the newest waits; O(1) per completion).  Deadline misses
    count completed requests only, the denominator the deadline-miss SLO
    divides by.
    """

    tenant_id: str
    priority: Priority = Priority.INTERACTIVE
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    #: Admitted requests that came back with a gateway/server error
    #: (e.g. ``session-expired``) — counted apart from ``completed`` so
    #: an all-failures tenant cannot look healthy in the stats.
    errors: int = 0
    shed_rate_limited: int = 0
    shed_queue_full: int = 0
    shed_quota: int = 0
    deadline_misses: int = 0
    first_submit_at: float | None = None
    last_complete_at: float | None = None
    _waits: np.ndarray = field(
        default_factory=lambda: np.empty(WAIT_WINDOW), repr=False,
        compare=False)
    #: Waits ever written to the ring; the next one goes to this index
    #: modulo :data:`WAIT_WINDOW`.
    _waits_written: int = field(default=0, repr=False)

    @property
    def shed(self) -> int:
        """Total shed requests across all shed reasons."""
        return self.shed_rate_limited + self.shed_queue_full + self.shed_quota

    def record_submit(self, now: float) -> None:
        """Count one submitted request."""
        self.submitted += 1
        if self.first_submit_at is None:
            self.first_submit_at = now

    def record_shed(self, reason: str) -> None:
        """Count one shed request under its reason bucket."""
        if reason == SHED_RATE_LIMITED:
            self.shed_rate_limited += 1
        elif reason == SHED_QUOTA_EXHAUSTED:
            self.shed_quota += 1
        else:
            self.shed_queue_full += 1

    def record_complete(self, wait_s: float, missed_deadline: bool,
                        now: float) -> None:
        """Count one completion with its wait time and deadline verdict."""
        self.completed += 1
        self.deadline_misses += int(missed_deadline)
        self.last_complete_at = now
        self._waits[self._waits_written % WAIT_WINDOW] = wait_s
        self._waits_written += 1

    def record_error(self, now: float) -> None:
        """An admitted request failed (not shed, not a success).

        Errors stay out of the wait percentiles and the completed/QPS
        ledger — they count separately so per-tenant failure is visible.
        """
        self.errors += 1
        self.last_complete_at = now

    def snapshot(self) -> "TenantStats":
        """Immutable stats view (QPS over first-submit → last-complete)."""
        if self._waits_written:
            p50, p95 = np.percentile(
                self._waits[:min(self._waits_written, WAIT_WINDOW)],
                [50, 95])
        else:
            p50 = p95 = 0.0
        elapsed = 0.0
        if (self.first_submit_at is not None
                and self.last_complete_at is not None):
            elapsed = max(self.last_complete_at - self.first_submit_at, 0.0)
        qps = self.completed / elapsed if elapsed > 0 else 0.0
        shed_rate = self.shed / self.submitted if self.submitted else 0.0
        return TenantStats(
            tenant_id=self.tenant_id, priority=self.priority,
            submitted=self.submitted, admitted=self.admitted,
            completed=self.completed, errors=self.errors, shed=self.shed,
            shed_rate_limited=self.shed_rate_limited,
            shed_queue_full=self.shed_queue_full,
            shed_quota=self.shed_quota, shed_rate=shed_rate, qps=qps,
            wait_p50_s=float(p50), wait_p95_s=float(p95),
            deadline_misses=self.deadline_misses)


@dataclass(frozen=True)
class TenantStats:
    """Frozen per-tenant QoS snapshot, surfaced via ``ServerStats``."""

    tenant_id: str
    priority: Priority
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    errors: int = 0
    shed: int = 0
    shed_rate_limited: int = 0
    shed_queue_full: int = 0
    shed_quota: int = 0
    shed_rate: float = 0.0
    qps: float = 0.0
    wait_p50_s: float = 0.0
    wait_p95_s: float = 0.0
    deadline_misses: int = 0


class AdmissionController:
    """Bounded, class-aware, per-tenant-rate-limited admission.

    One decision per request, strictly in this order:

    1. **Quota** — a tenant whose admitted count (its ledger's, passed
       in) has reached the absolute query quota is refused
       (``quota-exhausted``); 0 means unlimited.
    2. **Occupancy** — the request's class must still fit under its
       fraction of ``max_queue`` (``queue-full``): interactive may fill
       the whole queue, batch half, background a quarter
       (:data:`SHED_QUEUE_FRACTIONS`).  Checked *before* the token
       bucket so a shed-by-occupancy request never burns the tenant's
       rate budget.
    3. **Rate** — the tenant's token bucket must yield a token
       (``rate-limited``); rate 0 means unlimited.

    The controller keeps only the token buckets — it never touches the
    queues or counts requests — so decisions are a deterministic function
    of (schedule, clock).
    """

    def __init__(self, max_queue: int, tenant_rate_qps: float = 0.0,
                 tenant_burst: float = 16.0, tenant_quota: int = 0,
                 clock=time.monotonic):
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if tenant_rate_qps < 0:
            raise ValueError("tenant_rate_qps must be non-negative")
        if tenant_burst <= 0:
            raise ValueError("tenant_burst must be positive")
        if tenant_quota < 0:
            raise ValueError("tenant_quota must be non-negative")
        self.max_queue = max_queue
        self.tenant_rate_qps = float(tenant_rate_qps)
        self.tenant_burst = float(tenant_burst)
        self.tenant_quota = int(tenant_quota)
        self.clock = clock
        self._buckets: dict[str, TokenBucket] = {}

    def bucket(self, tenant_id: str) -> TokenBucket:
        """Get or create the token bucket for ``tenant_id``."""
        bucket = self._buckets.get(tenant_id)
        if bucket is None:
            bucket = TokenBucket(self.tenant_rate_qps, self.tenant_burst,
                                 clock=self.clock)
            self._buckets[tenant_id] = bucket
        return bucket

    def class_capacity(self, priority: Priority) -> int:
        """Queue slots ``priority`` may occupy (at least 1)."""
        return max(int(self.max_queue * SHED_QUEUE_FRACTIONS[priority]), 1)

    def admit(self, tenant_id: str, priority: Priority, queued_now: int,
              admitted: int) -> str | None:
        """Decide one request; returns ``None`` (admit) or a shed reason.

        ``queued_now`` is the gateway's current total queue occupancy
        across all classes; ``admitted`` is how many of the tenant's
        requests were admitted so far (its ledger's count).
        """
        quota = self.tenant_quota
        if quota and admitted >= quota:
            return SHED_QUOTA_EXHAUSTED
        bucket = self.bucket(tenant_id)
        if queued_now >= self.class_capacity(priority):
            # Occupancy is checked before the token is spent so a shed
            # request does not also burn the tenant's rate budget.
            return SHED_QUEUE_FULL
        if not bucket.try_acquire():
            return SHED_RATE_LIMITED
        return None

    def retry_after(self, tenant_id: str, reason: str,
                    flush_hint_s: float = 0.0) -> float:
        """Back-off suggestion for a shed decision."""
        if reason == SHED_RATE_LIMITED:
            return self.bucket(tenant_id).seconds_until()
        if reason == SHED_QUEUE_FULL:
            return flush_hint_s
        return float("inf")  # quota never refills by waiting
