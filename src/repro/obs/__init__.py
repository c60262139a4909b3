"""Unified observability: metrics registry, tracing, Prometheus export.

One substrate for every signal the stack emits:

* :mod:`repro.obs.metrics` — typed Counter/Gauge/Histogram instruments in
  a thread-safe :class:`MetricsRegistry`; fixed log-scale buckets make
  histogram snapshot deltas exact.
* :mod:`repro.obs.tracing` — :class:`TraceContext` per-stage spans with
  deterministic 1-in-N sampling (no RNG: traced runs stay bit-identical
  to untraced ones) and the :func:`span` profiling hook the sampler,
  batcher, encoder forward, and shard fan-out all share.
* :mod:`repro.obs.exposition` — Prometheus text-exposition writer.
* :mod:`repro.obs.bridge` — :func:`collect` exports the counts their
  owners keep (``ServerStats``, the gateway's tenant ledgers, shard and
  cache counters) into the registry; every scrape and every SLO snapshot
  is taken right after it.  :func:`scrape` is the one-call
  gateway/server exposition.
* :mod:`repro.obs.httpd` — optional stdlib ``GET /metrics`` endpoint.
* :mod:`repro.obs.slo` — declarative SLO specs + multi-window burn-rate
  evaluation over registry snapshot deltas, with per-stage latency
  attribution; drives the ``serve-bench-scenarios`` verdicts.

``repro metrics`` (:mod:`repro.obs.cli`) demos the whole layer against a
synthetic burst; the serving gateway exposes the same text via
:meth:`~repro.serving.ServingGateway.start_metrics_endpoint`.
"""

from .bridge import collect, export_sessions, export_stats, scrape
from .exposition import escape_label_value, render
from .httpd import MetricsEndpoint
from .metrics import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    scoped_registry,
    set_global_registry,
)
from .slo import (
    LatencyQuantileSLO,
    RatioSLO,
    RecoveryTimeSLO,
    SLOCheck,
    SLOSpec,
    SLOVerdict,
    deadline_miss_slo,
    render_report,
    shed_rate_slo,
    snapshot_delta,
)
from .slo import evaluate as evaluate_slos
from .tracing import Span, TraceContext, Tracer, batch_scope, span

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyQuantileSLO",
    "MetricsEndpoint",
    "MetricsRegistry",
    "RatioSLO",
    "RecoveryTimeSLO",
    "SLOCheck",
    "SLOSpec",
    "SLOVerdict",
    "Span",
    "TraceContext",
    "Tracer",
    "batch_scope",
    "collect",
    "deadline_miss_slo",
    "escape_label_value",
    "evaluate_slos",
    "export_sessions",
    "export_stats",
    "get_registry",
    "render",
    "render_report",
    "scoped_registry",
    "scrape",
    "set_global_registry",
    "shed_rate_slo",
    "snapshot_delta",
    "span",
]
