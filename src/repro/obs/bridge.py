"""Bridge collectors: the serving objects' own counts, exported at scrape time.

Each count the serving stack keeps has exactly one owner — the server's
counters (:class:`~repro.serving.ServerStats`),
the encoding memo's hits and misses (read into ``ServerStats``), the
gateway's per-tenant ledgers (:class:`~repro.serving.TenantStats`) or a
session's Augmenter cache (:class:`~repro.cache.stats.CacheStats`) — and
the registry is not it.  Registries are shared: several servers
and gateways, or a whole replica fleet, can record into one, so a
registry-owned count would merge theirs.  This module exports the
owners' values into the registry instead, and :func:`collect` is the one
path: every scrape and every SLO snapshot is taken right after it.  No
hot path counts an event twice.

A count that only ever grows is exported as a counter (named ``*_total``).
A figure summed over *live* sessions can fall — a closed session leaves
the sum, and a stale refresh clears its cache's counters — so it is
exported as a gauge, named without ``_total``.

Everything here is duck-typed on the stats dataclasses' attributes, so
the obs package never imports the serving package (which imports obs) —
the dependency points one way.
"""

from __future__ import annotations

from .exposition import render
from .metrics import MetricsRegistry, get_registry

__all__ = ["export_stats", "export_sessions", "collect", "scrape"]


def export_stats(stats, registry: MetricsRegistry) -> None:
    """Export a ``ServerStats`` snapshot (tenants included)."""
    counter, gauge = registry.counter, registry.gauge
    counter("repro_server_queries_total",
            "Queries answered by the server.").set(stats.queries)
    counter("repro_server_batches_total",
            "Micro-batches the server has processed.").set(stats.batches)
    counter("repro_server_encoded_subgraphs_total",
            "Requests in the micro-batches the server released (not "
            "encodes: the encoding memo answers some without one)."
            ).set(stats.encoded_subgraphs)
    counter("repro_server_encode_memo_hits_total",
            "Datapoint lookups the encoding memo answered without "
            "encoding, over session opens, refreshes and query batches."
            ).set(stats.memo_hits)
    counter("repro_server_encode_memo_misses_total",
            "Datapoints encoded because the encoding memo lacked them."
            ).set(stats.memo_misses)
    counter("repro_sessions_opened_total",
            "Sessions opened over the server lifetime."
            ).set(stats.sessions_opened)
    counter("repro_sessions_evicted_total",
            "Sessions evicted by the LRU bound.").set(stats.sessions_evicted)
    counter("repro_sessions_expired_total",
            "Sessions expired by the idle TTL.").set(stats.sessions_expired)
    gauge("repro_graph_version",
          "Current graph epoch (live-update counter)."
          ).set(stats.graph_version)
    counter("repro_graph_updates_total",
            "Live graph mutation batches applied.").set(stats.graph_updates)
    counter("repro_sessions_invalidated_total",
            "Sessions marked stale by a graph mutation."
            ).set(stats.sessions_invalidated)
    counter("repro_server_refreshed_candidates_total",
            "Pool rows stale-session refreshes replaced, re-encoded or "
            "read from the encoding memo.").set(stats.refreshed_candidates)
    gauge("repro_cache_stale_evictions",
          "Augmenter cache entries the live sessions dropped as "
          "graph-stale.").set(stats.stale_evictions)

    tenant_labels = ("tenant", "priority")
    submitted = counter("repro_gateway_submitted_total",
                        "Requests offered to gateway admission.",
                        tenant_labels)
    admitted = counter("repro_gateway_admitted_total",
                       "Requests admitted past the gateway.", tenant_labels)
    completed = counter("repro_gateway_completed_total",
                        "Admitted requests resolved successfully.",
                        tenant_labels)
    errors = counter("repro_gateway_errors_total",
                     "Admitted requests resolved with an error.",
                     tenant_labels)
    shed = counter("repro_gateway_shed_total",
                   "Requests refused at admission, by shed reason.",
                   ("tenant", "priority", "reason"))
    misses = counter("repro_gateway_deadline_misses_total",
                     "Completed requests that missed their deadline.",
                     tenant_labels)
    qps = gauge("repro_tenant_qps",
                "Completed-request throughput per tenant.", tenant_labels)
    wait_p50 = gauge("repro_tenant_wait_p50_seconds",
                     "Median queue wait per tenant (recent window).",
                     tenant_labels)
    wait_p95 = gauge("repro_tenant_wait_p95_seconds",
                     "p95 queue wait per tenant (recent window).",
                     tenant_labels)
    for tenant in stats.tenants:
        labels = dict(tenant=tenant.tenant_id,
                      priority=tenant.priority.name.lower())
        submitted.set(tenant.submitted, **labels)
        admitted.set(tenant.admitted, **labels)
        completed.set(tenant.completed, **labels)
        errors.set(tenant.errors, **labels)
        misses.set(tenant.deadline_misses, **labels)
        qps.set(tenant.qps, **labels)
        wait_p50.set(tenant.wait_p50_s, **labels)
        wait_p95.set(tenant.wait_p95_s, **labels)
        shed.set(tenant.shed_queue_full, reason="queue-full", **labels)
        shed.set(tenant.shed_rate_limited, reason="rate-limited", **labels)
        shed.set(tenant.shed_quota, reason="quota-exhausted", **labels)


def export_sessions(server, registry: MetricsRegistry) -> None:
    """Sum the live sessions' ``CacheStats`` into registry gauges.

    Each sum covers the sessions alive now, each since its cache's last
    invalidation, so it can fall: these are gauges, not counters.
    """
    gauge = registry.gauge
    states = server.sessions.states()
    gauge("repro_sessions_live",
          "Sessions currently resident in the store.").set(len(states))
    totals = dict(hits=0, misses=0, insertions=0, evictions=0, size=0)
    for state in states:
        stats = state.cache_stats()
        totals["hits"] += stats.hits
        totals["misses"] += stats.misses
        totals["insertions"] += stats.insertions
        totals["evictions"] += stats.evictions
        totals["size"] += stats.size
    scope = "across live sessions, since each cache's last invalidation"
    gauge("repro_session_cache_hits",
          f"Augmenter cache hits {scope}.").set(totals["hits"])
    gauge("repro_session_cache_misses",
          f"Augmenter cache misses {scope}.").set(totals["misses"])
    gauge("repro_session_cache_insertions",
          f"Augmenter cache insertions {scope}.").set(totals["insertions"])
    gauge("repro_session_cache_evictions",
          f"Augmenter capacity evictions {scope}.").set(totals["evictions"])
    gauge("repro_session_cache_entries",
          "Cached prompts resident across live sessions."
          ).set(totals["size"])
    lookups = totals["hits"] + totals["misses"]
    gauge("repro_session_cache_hit_rate",
          f"Aggregate Augmenter hit rate {scope}."
          ).set(totals["hits"] / lookups if lookups else 0.0)


def collect(target, registry: MetricsRegistry | None = None
            ) -> MetricsRegistry:
    """Export a server's or gateway's counts into ``registry``.

    ``target`` is a :class:`~repro.serving.PromptServer` or a
    :class:`~repro.serving.ServingGateway` (detected by its ``server``
    attribute).  The default registry is the target's own (``.obs``), so
    live histograms and exported counts land in one scrape.  Call it
    right before every scrape or snapshot: between calls the registry
    holds the counts as of the last one.
    """
    server = getattr(target, "server", target)
    if registry is None:
        registry = getattr(target, "obs", None) or get_registry()
    export_stats(target.stats, registry)
    export_sessions(server, registry)
    return registry


def scrape(target, registry: MetricsRegistry | None = None) -> str:
    """One-call exposition: collect the counts, render the registry."""
    return render(collect(target, registry))
