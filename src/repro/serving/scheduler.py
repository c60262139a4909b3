"""Cross-session micro-batching of the GNN encoding hot path.

Per-query cost is dominated by encoding the query's data graph (Table VIII
measures the GNN pass as the bulk of inference time), and the encoder is a
batched disjoint-union pass — encoding 16 subgraphs in one call costs far
less than 16 single-subgraph calls.  The scheduler therefore coalesces
pending queries *across sessions* into micro-batches:

* a batch is released when ``max_batch_size`` requests are waiting, or
* when the oldest request has waited ``max_wait_s`` (latency bound), or
* unconditionally on ``drain`` (flush).

Requests leave in arrival order.  Only the order *within* a session
matters for the answers: the server predicts a batch in waves that keep
each session's queries in this order, so each session's cache updates
replay exactly as under per-query serving.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..gnn.batch import BatchArena
from ..graph.datapoints import Datapoint

__all__ = ["PendingRequest", "MicroBatchScheduler", "batch_seed_nodes"]


def batch_seed_nodes(batch) -> np.ndarray:
    """All seed nodes of one micro-batch, concatenated (with duplicates).

    Accepts :class:`PendingRequest` entries or bare datapoints.  This is
    the batched-frontier handle: the shard router feeds it to
    :meth:`~repro.shard.ShardedGraphStore.prefetch_rows` so a single
    shard round-trip warms the halo cache for every concurrent session's
    first expansion, instead of each session fetching its own seeds.
    """
    seeds = [np.asarray(getattr(item, "datapoint", item).nodes,
                        dtype=np.int64).reshape(-1)
             for item in batch]
    if not seeds:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(seeds)


@dataclass(frozen=True)
class PendingRequest:
    """One enqueued query waiting for a micro-batch slot.

    ``deadline`` is an absolute clock time by which the caller wants the
    answer; ``None`` (the default, and what the plain server submits)
    means the request only participates in the base size/age release
    policy.  The gateway's :class:`~repro.serving.qos.DeadlineAwareScheduler`
    uses it to flush shallow queues before the budget is gone.

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
    """Max-batch-size / max-wait-time micro-batch release policy."""

    def __init__(self, max_batch_size: int = 16, max_wait_s: float = 0.0,
                 clock=time.monotonic):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self.clock = clock
        self._queue: "deque[PendingRequest]" = deque()
        self._next_request_id = 0
        # One arena per scheduler: every released micro-batch is assembled
        # into the same reusable buffers, so the large per-batch arrays are
        # recycled instead of reallocated each tick.  Safe because a tick
        # fully consumes its batch (encode → scatter results) before the
        # next one is assembled.
        self.arena = BatchArena()

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

    def ready(self) -> bool:
        """Should a micro-batch be released right now?"""
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch_size:
            return True
        return self.clock() - self._queue[0].submitted_at >= self.max_wait_s

    def next_batch(self) -> list[PendingRequest]:
        """Pop up to ``max_batch_size`` requests in arrival order."""
        batch = []
        while self._queue and len(batch) < self.max_batch_size:
            batch.append(self._queue.popleft())
        return batch
