"""Cross-session micro-batching of the GNN encoding hot path.

Per-query cost is dominated by encoding the query's data graph (Table VIII
measures the GNN pass as the bulk of inference time), and the encoder is a
batched disjoint-union pass — encoding 16 subgraphs in one call costs far
less than 16 single-subgraph calls.  A :class:`MicroBatchScheduler` queue
therefore coalesces pending queries *across sessions* into micro-batches.
A batch releases

* when ``max_batch_size`` requests are waiting, or
* when the oldest request has waited ``max_wait_s`` (latency bound), or
* when the oldest request has spent ``flush_fraction`` of its deadline
  budget waiting (requests that carry a deadline only).

The gateway keeps one such queue per priority class and runs each batch
it releases as one server micro-batch; the server's own queue serves
direct ``submit`` callers and releases on ``step`` / ``drain``.

Requests leave in arrival order.  Only the order *within* a session
matters for the answers: the server predicts a batch in waves that keep
each session's queries in this order, so each session's cache updates
replay exactly as under per-query serving.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from ..graph.datapoints import Datapoint

__all__ = ["PendingRequest", "MicroBatchScheduler"]


@dataclass(frozen=True)
class PendingRequest:
    """One enqueued query waiting for a micro-batch slot.

    ``deadline`` is an absolute clock time by which the caller wants the
    answer; ``None`` (the default, and what the plain server submits)
    means the request releases on size and age only.  The gateway's
    class queues use it to flush shallow queues before the budget is
    gone.

    ``trace`` optionally carries the request's sampled
    :class:`~repro.obs.TraceContext` through the queue, so the batch
    tick can attach its per-stage spans; ``None`` (the overwhelmingly
    common case) costs nothing downstream.
    """

    request_id: int
    session_id: str
    datapoint: Datapoint
    submitted_at: float
    deadline: float | None = None
    trace: object | None = None


class MicroBatchScheduler:
    """Size / age / deadline-fraction micro-batch release policy.

    The deadline rule flushes a shallow queue before its oldest request's
    budget (submit → deadline) is gone, leaving the rest for service.
    With ``flush_fraction=1`` and deadline == submit + ``max_wait_s`` it
    coincides with the age rule, which the equivalence test pins.
    """

    def __init__(self, max_batch_size: int = 16, max_wait_s: float = 0.0,
                 flush_fraction: float = 0.5, clock=time.monotonic):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if not 0.0 < flush_fraction <= 1.0:
            raise ValueError("flush_fraction must be in (0, 1]")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.flush_fraction = flush_fraction
        self.clock = clock
        self._queue: "deque[PendingRequest]" = deque()
        self._next_request_id = 0

    def __len__(self) -> int:
        return len(self._queue)

    def submit(self, session_id: str, datapoint: Datapoint,
               deadline: float | None = None,
               trace: object | None = None) -> int:
        """Enqueue one query; returns its ticket (request id)."""
        request_id = self._next_request_id
        self._next_request_id += 1
        self._queue.append(PendingRequest(
            request_id=request_id, session_id=session_id,
            datapoint=datapoint, submitted_at=self.clock(),
            deadline=deadline, trace=trace))
        return request_id

    def _deadline_flush_at(self) -> float | None:
        """Absolute time the oldest request forces a deadline flush."""
        oldest = self._queue[0]
        if oldest.deadline is None:
            return None
        budget = max(oldest.deadline - oldest.submitted_at, 0.0)
        return oldest.submitted_at + self.flush_fraction * budget

    def next_flush_at(self) -> float | None:
        """Earliest absolute time a waiting batch will self-release.

        ``None`` when the queue is empty.  The gateway's drain loop uses
        this to sleep exactly until the next forced flush instead of
        polling.
        """
        if not self._queue:
            return None
        wait_flush = self._queue[0].submitted_at + self.max_wait_s
        deadline_flush = self._deadline_flush_at()
        if deadline_flush is None:
            return wait_flush
        return min(wait_flush, deadline_flush)

    def ready(self) -> bool:
        """Should a micro-batch be released right now?"""
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch_size:
            return True
        now = self.clock()
        if now - self._queue[0].submitted_at >= self.max_wait_s:
            return True
        deadline_flush = self._deadline_flush_at()
        return deadline_flush is not None and now >= deadline_flush

    def next_batch(self) -> list[PendingRequest]:
        """Pop up to ``max_batch_size`` requests in arrival order."""
        batch = []
        while self._queue and len(batch) < self.max_batch_size:
            batch.append(self._queue.popleft())
        return batch
