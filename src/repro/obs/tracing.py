"""Request tracing: per-stage spans with deterministic 1-in-N sampling.

A :class:`TraceContext` follows one request through the stack — gateway
admission, class-queue wait, micro-batch encode, per-query predict —
collecting named :class:`Span` durations.  Two properties keep
tracing safe to leave on in the serving path:

* **Bit-identity.**  Sampling is a counter (`every`-th submit), not a
  random draw, and a traced request's code path only *reads* the clock —
  no RNG is consumed anywhere, so a traced run's predictions are
  bit-identical to an untraced run's (``tests/test_obs.py`` pins it).

* **Batch ambience.**  The encode hot path works on whole micro-batches,
  so stage timers cannot take a per-request argument.  Instead the
  server opens a :func:`batch_scope` naming the traced requests of the
  current batch, and every :func:`span` inside attaches its duration to
  each of them (thread-local, nesting-safe) while also feeding the
  ambient registry's ``repro_stage_seconds`` histogram — one mechanism
  for live traces, scraped metrics, and the perf harness alike.

* **Self time.**  Spans nest (``encode`` wraps ``sample``,
  ``batch_assembly`` and ``forward``), so each records its *self* time:
  its duration minus the spans nested in it on the same thread.  Stage
  totals therefore add up to the covered time instead of counting a
  nested stage once more in every enclosing one.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from .metrics import get_registry

__all__ = ["Span", "TraceContext", "Tracer", "batch_scope", "span"]

#: Registry histogram every :func:`span` feeds, labelled by stage name.
STAGE_METRIC = "repro_stage_seconds"
STAGE_HELP = "Hot-path stage duration in seconds, by pipeline stage."


@dataclass(frozen=True)
class Span:
    """One named stage's measured duration inside a trace."""

    name: str
    duration_s: float


class TraceContext:
    """Per-stage span ledger for one sampled request."""

    __slots__ = ("trace_id", "spans", "meta")

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self.meta: dict = {}

    def add_span(self, name: str, duration_s: float) -> None:
        self.spans.append(Span(name, duration_s))

    def stage_seconds(self) -> dict:
        """Total recorded seconds per stage name (insertion order)."""
        totals: dict[str, float] = {}
        for entry in self.spans:
            totals[entry.name] = (totals.get(entry.name, 0.0)
                                  + entry.duration_s)
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stages = ", ".join(f"{name}={seconds * 1e3:.2f}ms"
                           for name, seconds in self.stage_seconds().items())
        return f"TraceContext({self.trace_id}: {stages})"


class Tracer:
    """Deterministic 1-in-N request sampler with a bounded trace buffer.

    ``every=0`` (the default) disables tracing: :meth:`maybe_trace`
    returns ``None`` for every request at the cost of one comparison.
    ``every=1`` traces everything — still bit-identical, because tracing
    only ever reads the clock.
    """

    def __init__(self, every: int = 0, capacity: int = 256):
        if every < 0:
            raise ValueError("every must be non-negative")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.every = every
        self.seen = 0
        self.sampled = 0
        self._completed: deque = deque(maxlen=capacity)

    def maybe_trace(self) -> TraceContext | None:
        """Sample decision for the next request (deterministic counter)."""
        index = self.seen
        self.seen += 1
        if self.every <= 0 or index % self.every:
            return None
        self.sampled += 1
        return TraceContext(f"req-{index:08d}")

    def record(self, trace: TraceContext) -> None:
        """File a finished trace (oldest falls out past capacity)."""
        self._completed.append(trace)

    def completed(self) -> list:
        """Finished traces, oldest first."""
        return list(self._completed)


# ----------------------------------------------------------------------
# Ambient batch scope: which traces the current thread's spans feed.
# ----------------------------------------------------------------------
_ACTIVE = threading.local()


@contextmanager
def batch_scope(traces: list):
    """Attach every :func:`span` in the block to ``traces``.

    The server's batch tick opens one scope over the whole-batch encode
    (each traced request in the batch shares the encode spans) and
    a per-request scope around each predict call.  ``None`` entries are
    tolerated so callers can pass ``[request.trace]`` unconditionally.
    """
    live = [trace for trace in traces if trace is not None]
    previous = getattr(_ACTIVE, "traces", [])
    _ACTIVE.traces = live
    try:
        yield live
    finally:
        _ACTIVE.traces = previous


@contextmanager
def span(stage: str):
    """Time a block: feed its self time to the stage histogram + traces.

    The single profiling hook shared by the sampler, the arena batcher,
    the fused forward and the serving loop — so live scrapes and sampled
    traces read the same numbers.  The recorded value is the block's
    duration minus the spans nested in it on this thread.
    """
    registry = get_registry()
    traces = getattr(_ACTIVE, "traces", [])
    # This thread's open spans: seconds covered by each one's children.
    stack = getattr(_ACTIVE, "nested", None)
    if stack is None:
        stack = _ACTIVE.nested = []
    stack.append(0.0)
    start = time.perf_counter()
    try:
        yield
    finally:
        duration = time.perf_counter() - start
        self_s = duration - stack.pop()
        if stack:
            stack[-1] += duration
        registry.histogram(STAGE_METRIC, STAGE_HELP,
                           ("stage",)).observe(self_s, stage=stage)
        for trace in traces:
            trace.add_span(stage, self_s)
