"""Outside-in span recorder: the per-layer cost ledger of one traced run.

The ledger times each layer from the outside by swapping the public
function the benchmark's calls reach for a wrapper that records a span
(name, start, end, parent span, tick) around the original.  Nothing under
``src/`` changes: wrapping patches the attribute the caller looks up (a
class attribute for methods, the importing module's global for free
functions) and :meth:`Ledger.restore` puts the original back.

Spans live in memory during the run.  A layer's *self* time is its span's
duration minus the part its direct child spans cover, so nested layers are
never double-counted and the self times of all spans add up to the time
the spans cover.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

__all__ = ["Ledger"]

_NAME, _START, _END, _PARENT = range(4)


class Ledger:
    """In-memory span recorder with per-layer self time and counters.

    ``delays`` maps a span name to a busy-wait (seconds) added inside every
    span of that name: the benchmark's self-test uses it to check that a
    slowed layer moves only its own row.
    """

    def __init__(self, delays: dict | None = None):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Micro-batch tick (client round) the next spans belong to.
        self.tick = 0
        self.delays = dict(delays or {})
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a class (methods, classmethods, staticmethods) or a
        module (functions looked up as its globals).  ``count`` optionally
        receives ``(counts, args, result)`` after each call to bump
        counters measured at the same boundary.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._traced(raw.__func__, name, count))
        else:
            patched = self._traced(raw, name, count)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def restore(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _traced(self, fn, name: str, count):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        delay = self.delays.get(name, 0.0)
        clock = time.perf_counter

        def enter() -> int:
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.tick])
            stack.append(index)
            return index

        def leave(index: int, start: float) -> None:
            if delay:
                until = clock() + delay
                while clock() < until:
                    pass
            end = clock()
            stack.pop()
            span = spans[index]
            span[_START] = start
            span[_END] = end

        if inspect.iscoroutinefunction(fn):
            async def traced_async(*args, **kwargs):
                index = enter()
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    leave(index, start)
                if count is not None:
                    count(counts, args, result)
                return result
            return traced_async

        def traced(*args, **kwargs):
            index = enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index, start)
            if count is not None:
                count(counts, args, result)
            return result
        return traced

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_seconds(self, scopes=()) -> dict:
        """Total self time in seconds per span name.

        With ``scopes`` (span names), keys become ``(scope, name)`` pairs,
        where ``scope`` is the nearest enclosing span (or the span itself)
        whose name is in ``scopes``, else ``None``: this splits a layer's
        time between, say, session opens and the query path.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        scope_of: list = [None] * len(spans)
        for index, span in enumerate(spans):
            parent = span[_PARENT]
            if parent >= 0:
                child[parent] += span[_END] - span[_START]
            if span[_NAME] in scopes:
                scope_of[index] = span[_NAME]
            elif parent >= 0:
                scope_of[index] = scope_of[parent]
        totals: dict = defaultdict(float)
        for span, covered, scope in zip(spans, child, scope_of):
            key = (scope, span[_NAME]) if scopes else span[_NAME]
            totals[key] += span[_END] - span[_START] - covered
        return dict(totals)

    def calls(self) -> dict[str, int]:
        """Number of spans recorded per name."""
        totals: dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[_NAME]] += 1
        return dict(totals)

    def write(self, path: str) -> None:
        """Dump every span as tab-separated ``name start end parent tick``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\ttick\n")
            for name, start, end, parent, tick in self.spans:
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                          f"{tick}\n")
