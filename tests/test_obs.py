"""Tests for the unified observability layer (repro.obs).

Covers the metric primitives (bucket boundaries, quantile estimation),
the Prometheus text exposition (format, escaping), the gateway trace
pipeline (per-stage spans, deterministic sampling), and the
bit-identity contract: tracing must never change predictions.
"""

import asyncio
import re
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import (
    GraphPrompterConfig,
    GraphPrompterModel,
    PretrainConfig,
    Pretrainer,
    sample_episode,
)
from repro.datasets import Dataset, EDGE_TASK
from repro.datasets.synthetic import synthetic_knowledge_graph
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsEndpoint,
    MetricsRegistry,
    Tracer,
    collect,
    escape_label_value,
    render,
    scoped_registry,
    scrape,
    span,
)
from repro.obs.slo import counter_total
from repro.obs.tracing import batch_scope
from repro.serving import (
    Overloaded,
    Priority,
    PromptServer,
    ServingGateway,
    TenantLedger,
)
from repro.serving.qos import WAIT_WINDOW


class FakeClock:
    """Manually advanced clock for deadline and TTL timing."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "help", ("tenant",))
        c.inc(tenant="a")
        c.inc(2.5, tenant="a")
        c.inc(tenant="b")
        assert c.value(tenant="a") == pytest.approx(3.5)
        assert c.value(tenant="b") == pytest.approx(1.0)
        assert c.sum() == pytest.approx(4.5)
        assert c.sum(tenant="a") == pytest.approx(3.5)

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "", ("tenant",))
        with pytest.raises(ValueError):
            c.inc()
        with pytest.raises(ValueError):
            c.inc(tenant="a", extra="x")
        with pytest.raises(ValueError):
            c.inc(wrong="a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total")
        with pytest.raises(TypeError):
            reg.histogram("x_total")

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(5.0)
        g.inc(-2.0)
        assert g.value() == pytest.approx(3.0)


class TestHistogram:
    def test_default_buckets_are_increasing_log2(self):
        assert len(DEFAULT_BUCKETS) == 22
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-5)
        for lo, hi in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]):
            assert hi == pytest.approx(2.0 * lo)

    def test_bucket_boundaries_are_inclusive_upper(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)   # == bound -> its own bucket (le is inclusive)
        h.observe(1.5)   # between 1 and 2
        h.observe(4.0)   # last finite bound
        h.observe(99.0)  # beyond every bound -> overflow (+Inf)
        (series,) = h.series().values()
        assert series.counts == [1, 1, 1, 1]
        assert series.count == 4
        assert series.total == pytest.approx(105.5)

    def test_quantile_interpolates_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)
        # All mass in the (1, 2] bucket: any quantile lands inside it.
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)

    def test_quantile_spread_across_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 3.0, 6.0):
            for _ in range(25):
                h.observe(value)
        assert h.quantile(0.10) <= 1.0
        assert 1.0 <= h.quantile(0.40) <= 2.0
        assert 2.0 <= h.quantile(0.60) <= 4.0
        assert 4.0 <= h.quantile(0.90) <= 8.0

    def test_quantile_clamps_beyond_last_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_mean_and_validation(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0))
        assert h.mean() == 0.0
        h.observe(0.5)
        h.observe(1.5)
        assert h.mean() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("bad2", buckets=())


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestExposition:
    def test_help_type_and_series_lines(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "counts things", ("k",)).inc(k="v")
        text = render(reg)
        assert "# HELP c_total counts things\n" in text
        assert "# TYPE c_total counter\n" in text
        assert 'c_total{k="v"} 1\n' in text

    def test_histogram_renders_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = render(reg)
        assert 'h_bucket{le="1"} 1\n' in text
        assert 'h_bucket{le="2"} 2\n' in text
        assert 'h_bucket{le="+Inf"} 3\n' in text
        assert "h_sum 11\n" in text
        assert "h_count 3\n" in text

    def test_label_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        reg = MetricsRegistry()
        reg.counter("c_total", "", ("k",)).inc(k='x"\\\n')
        assert 'c_total{k="x\\"\\\\\\n"} 1\n' in render(reg)

    def test_instrument_without_series_still_typed(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "present but unfired")
        text = render(reg)
        assert "# TYPE c_total counter\n" in text
        assert "\nc_total " not in text

    def test_every_line_is_valid_exposition(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "h", ("x",)).inc(x="1")
        reg.gauge("b").set(2.5)
        reg.histogram("c_seconds").observe(0.02)
        line_re = re.compile(
            r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
            r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$")
        for line in render(reg).strip().splitlines():
            assert line_re.match(line), f"invalid exposition line: {line!r}"


# ----------------------------------------------------------------------
# Spans + tracing primitives
# ----------------------------------------------------------------------
class TestSpansAndTracer:
    def test_span_feeds_stage_histogram_and_traces(self):
        from repro.obs import TraceContext

        reg = MetricsRegistry()
        trace = TraceContext("t0")
        with scoped_registry(reg), batch_scope([trace, None]):
            with span("unit_test_stage"):
                pass
        hist = reg.histogram("repro_stage_seconds")
        assert hist.count(stage="unit_test_stage") == 1
        assert [s.name for s in trace.spans] == ["unit_test_stage"]

    def test_nested_span_records_self_time(self, monkeypatch):
        """The outer stage records its duration minus the inner one's, in
        the histogram and in traces alike."""
        from types import SimpleNamespace

        from repro.obs import TraceContext, tracing

        # Clock reads: outer enters, inner enters, inner leaves, outer leaves.
        ticks = iter([0.0, 1.0, 4.0, 10.0])
        monkeypatch.setattr(tracing, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks)))
        reg = MetricsRegistry()
        trace = TraceContext("t0")
        with scoped_registry(reg), batch_scope([trace]):
            with span("outer"):
                with span("inner"):
                    pass
        hist = reg.histogram("repro_stage_seconds")
        assert hist.total(stage="inner") == 3.0
        assert hist.total(stage="outer") == 7.0
        assert trace.stage_seconds() == {"inner": 3.0, "outer": 7.0}

    def test_tracer_samples_deterministically(self):
        tracer = Tracer(every=3)
        picks = [tracer.maybe_trace() is not None for _ in range(9)]
        assert picks == [True, False, False] * 3
        assert tracer.seen == 9
        assert tracer.sampled == 3

    def test_tracer_zero_disables(self):
        tracer = Tracer(every=0)
        assert all(tracer.maybe_trace() is None for _ in range(10))
        with pytest.raises(ValueError):
            Tracer(every=-1)
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_tracer_capacity_bounds_buffer(self):
        tracer = Tracer(every=1, capacity=4)
        for _ in range(10):
            tracer.record(tracer.maybe_trace())
        done = tracer.completed()
        assert len(done) == 4
        assert done[-1].trace_id == "req-00000009"


# ----------------------------------------------------------------------
# Gateway integration: scrape coverage, traces, bit-identity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    """A briefly pre-trained model + dataset shared by the obs tests."""
    graph = synthetic_knowledge_graph(300, 8, 2400, rng=0, name="kg-obs")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=12, max_subgraph_nodes=10,
                                 num_gnn_layers=2)
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations, config)
    Pretrainer(model, dataset, PretrainConfig(steps=60, num_ways=4),
               rng=0).train()
    return dataset, config, model


def _run_burst(model, dataset, *, trace_every, registry, queries=6):
    """One mixed-priority burst; returns (gateway, predictions list)."""
    episodes = [sample_episode(dataset, num_ways=3, num_queries=queries,
                               rng=100 + i) for i in range(3)]
    classes = [Priority.INTERACTIVE, Priority.BATCH, Priority.BACKGROUND]

    async def run():
        server = PromptServer(model, dataset, max_batch_size=4, rng=0,
                              num_shards=2, registry=registry)
        gateway = ServingGateway(server, auto_drain=False,
                                 trace_every=trace_every,
                                 registry=registry)
        for i, episode in enumerate(episodes):
            gateway.open_session(f"tenant-{i}", f"s{i}", episode,
                                 priority=classes[i])
        futures = []
        for q in range(queries):
            for i, episode in enumerate(episodes):
                out = gateway.submit_nowait(f"s{i}", episode.queries[q])
                assert not isinstance(out, Overloaded)
                futures.append(out)
            await gateway.flush()
        predictions = [f.result().prediction for f in futures]
        await gateway.close()
        return gateway, predictions

    return asyncio.run(run())


class TestGatewayObservability:
    def test_traced_run_is_bit_identical_to_untraced(self, served):
        dataset, _, model = served
        _, traced = _run_burst(model, dataset, trace_every=1,
                               registry=MetricsRegistry())
        _, untraced = _run_burst(model, dataset, trace_every=0,
                                 registry=MetricsRegistry())
        assert traced == untraced

    def test_traces_cover_every_stage(self, served):
        dataset, _, model = served
        gateway, _ = _run_burst(model, dataset, trace_every=1,
                                registry=MetricsRegistry())
        done = gateway.tracer.completed()
        assert len(done) == 18  # 3 sessions x 6 queries, every=1
        for trace in done:
            stages = trace.stage_seconds()
            for stage in ("admission", "sample", "batch_assembly",
                          "forward", "shard_encode", "encode", "predict",
                          "select", "task_gnn", "augment", "queue_wait",
                          "total"):
                assert stage in stages, (
                    f"{trace.trace_id} missing {stage}: {stages}")
            assert trace.meta["outcome"] == "ok"
            assert stages["total"] >= 0.0
            # Each request rides one prediction wave with the other
            # sessions' queries: the wave's predict and task-GNN spans
            # reach every trace in it, but selection is the request's own.
            names = [span.name for span in trace.spans]
            assert names.count("select") == 1
            assert names.count("predict") == names.count("task_gnn") == 1

    def test_one_in_n_sampling(self, served):
        dataset, _, model = served
        gateway, _ = _run_burst(model, dataset, trace_every=4,
                                registry=MetricsRegistry())
        assert gateway.tracer.seen == 18
        assert gateway.tracer.sampled == 5  # indices 0, 4, 8, 12, 16
        assert len(gateway.tracer.completed()) == 5

    def test_scrape_covers_every_layer(self, served):
        dataset, _, model = served
        registry = MetricsRegistry()
        gateway, _ = _run_burst(model, dataset, trace_every=2,
                                registry=registry)
        text = scrape(gateway, registry)
        for name in (
                # tenant ledgers and the live queue-wait histogram
                "repro_gateway_submitted_total",
                "repro_gateway_admitted_total",
                "repro_gateway_completed_total",
                'repro_gateway_submitted_total{tenant="tenant-0"',
                "repro_gateway_queue_wait_seconds_bucket",
                # server + session counts
                "repro_server_queries_total",
                "repro_server_batches_total",
                "repro_server_batch_size_bucket",
                "repro_server_encode_memo_hits_total",
                "repro_server_encode_memo_misses_total",
                "repro_sessions_live",
                "repro_session_cache_hits",
                # shard layer
                'repro_shard_requests_total{shard="0"}',
                # kernel stage histograms
                'repro_stage_seconds_bucket{stage="sample"',
                'repro_stage_seconds_bucket{stage="forward"',
                'repro_stage_seconds_bucket{stage="shard_encode"',
        ):
            assert name in text, f"scrape missing {name}"

    def test_tenant_ledgers_are_the_one_owner_of_request_counts(
            self, served):
        """A burst records no request count in the registry; ``collect``
        exports each tenant ledger field once, under the gateway names.
        A request that errors after its deadline is an error, not a
        miss, in the ledger and the registry alike."""
        dataset, _, model = served
        registry = MetricsRegistry()
        clock = FakeClock()
        episodes = [sample_episode(dataset, num_ways=3, num_queries=4,
                                   rng=200 + i) for i in range(2)]

        async def run():
            server = PromptServer(model, dataset, max_batch_size=4, rng=0,
                                  session_ttl_s=10.0, clock=clock,
                                  registry=registry)
            gateway = ServingGateway(server, auto_drain=False, max_queue=4,
                                     registry=registry)
            gateway.open_session("steady", "s0", episodes[0])
            gateway.open_session("bulk", "s1", episodes[1],
                                 priority=Priority.BACKGROUND)
            for q in range(3):
                # The second background request finds the class's one
                # queue slot taken and is shed.
                gateway.submit_nowait("s1", episodes[1].queries[q])
                gateway.submit_nowait("s1", episodes[1].queries[q])
                gateway.submit_nowait("s0", episodes[0].queries[q])
                await gateway.flush()
            late = gateway.submit_nowait("s0", episodes[0].queries[3])
            clock.advance(1.0)  # completes past its 50 ms budget
            await gateway.flush()
            doomed = gateway.submit_nowait("s1", episodes[1].queries[3])
            clock.advance(11.0)  # the session expires while queued
            await gateway.flush()
            await gateway.close()
            return gateway, late.result(), doomed.result()

        gateway, late, doomed = asyncio.run(run())
        assert late.ok and late.deadline_missed
        assert not doomed.ok and doomed.deadline_missed
        ledgers = {t.tenant_id: t for t in gateway.stats.tenants}
        assert ledgers["steady"].deadline_misses == 1
        assert ledgers["bulk"].shed_queue_full == 3
        assert ledgers["bulk"].errors == 1
        assert ledgers["bulk"].deadline_misses == 0

        counts = {"repro_gateway_submitted_total": "submitted",
                  "repro_gateway_admitted_total": "admitted",
                  "repro_gateway_shed_total": "shed",
                  "repro_gateway_completed_total": "completed",
                  "repro_gateway_errors_total": "errors",
                  "repro_gateway_deadline_misses_total": "deadline_misses"}
        before = registry.snapshot()
        for name in counts:
            assert not before.get(name, {}).get("series"), name
        after = collect(gateway, registry).snapshot()
        for name, field in counts.items():
            assert after[name]["kind"] == "counter"
            for tenant in ledgers.values():
                labels = {"tenant": tenant.tenant_id,
                          "priority": tenant.priority.name.lower()}
                assert (counter_total(after, name, labels)
                        == getattr(tenant, field)), (name, tenant)
        for reason, field in (("queue-full", "shed_queue_full"),
                              ("rate-limited", "shed_rate_limited"),
                              ("quota-exhausted", "shed_quota")):
            assert (counter_total(after, "repro_gateway_shed_total",
                                  {"tenant": "bulk", "reason": reason})
                    == getattr(ledgers["bulk"], field))

    def test_metrics_endpoint_serves_scrape(self, served):
        dataset, _, model = served
        registry = MetricsRegistry()

        async def run():
            server = PromptServer(model, dataset, max_batch_size=4, rng=0,
                                  registry=registry)
            gateway = ServingGateway(server, auto_drain=False,
                                     registry=registry)
            episode = sample_episode(dataset, num_ways=3, num_queries=2,
                                     rng=7)
            gateway.open_session("t", "s", episode)
            future = gateway.submit_nowait("s", episode.queries[0])
            await gateway.flush()
            await future
            endpoint = gateway.start_metrics_endpoint()
            assert gateway.start_metrics_endpoint() is endpoint
            with urllib.request.urlopen(endpoint.url) as response:
                body = response.read().decode("utf-8")
                content_type = response.headers["Content-Type"]
            await gateway.close()
            assert gateway._endpoint is None  # close() shut it down
            return body, content_type

        body, content_type = asyncio.run(run())
        assert "text/plain; version=0.0.4" in content_type
        assert "repro_gateway_submitted_total" in body
        assert "repro_server_queries_total" in body


class TestCollectedCounters:
    def test_collected_counters_never_fall(self):
        """Across a session close and a stale refresh (which clears the
        session's cache counters), no counter series of a collected
        snapshot falls: sums over live sessions are gauges.  Counter
        families, and only they, are named ``*_total``."""
        from repro.graph import GraphUpdate

        graph = synthetic_knowledge_graph(200, 6, 1600, rng=3,
                                          name="kg-fall")
        dataset = Dataset(graph, EDGE_TASK, rng=0)
        config = GraphPrompterConfig(hidden_dim=8, max_subgraph_nodes=10,
                                     mutable_graph=True)
        model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                                   config)
        registry = MetricsRegistry()
        episodes = {f"s{i}": sample_episode(dataset, num_ways=3,
                                            num_queries=4, rng=300 + i)
                    for i in range(2)}

        async def run():
            server = PromptServer(model, dataset, max_batch_size=4, rng=0,
                                  registry=registry)
            gateway = ServingGateway(server, auto_drain=False,
                                     registry=registry)
            for session, episode in episodes.items():
                gateway.open_session("t", session, episode)
            snapshots = []

            async def serve(session, queries):
                for q in queries:
                    gateway.submit_nowait(session,
                                          episodes[session].queries[q])
                await gateway.flush()
                snapshots.append(collect(gateway, registry).snapshot())

            await serve("s0", range(3))
            await serve("s1", range(3))
            gateway.close_session("s1")
            snapshots.append(collect(gateway, registry).snapshot())
            state = server.sessions.get("s0")
            touched = sorted(state.dependent_nodes)[:2]
            await gateway.update_graph(GraphUpdate(
                add_src=[touched[0]], add_dst=[touched[-1]], add_rel=[0]))
            assert state.stale
            await serve("s0", [3])
            assert state.augmenter.stats().stale_evictions > 0
            await gateway.close()
            return snapshots

        snapshots = asyncio.run(run())
        for earlier, later in zip(snapshots, snapshots[1:]):
            for name, entry in later.items():
                if entry["kind"] != "counter":
                    continue
                before = {tuple(key): value for key, value
                          in earlier.get(name, {}).get("series", [])}
                for key, value in entry["series"]:
                    assert value >= before.get(tuple(key), 0.0), (name, key)
        for name, entry in snapshots[-1].items():
            assert (entry["kind"] == "counter") == name.endswith("_total"), (
                name, entry["kind"])


class TestTenantWaitWindow:
    @pytest.mark.parametrize("extra", [-5, 0, 1, 7, WAIT_WINDOW + 3])
    def test_wait_percentiles_cover_the_newest_window(self, extra):
        """After ``WAIT_WINDOW + extra`` completions the ledger's p50 and
        p95 — what ``collect`` exports as ``repro_tenant_wait_*`` — equal
        ``np.percentile`` over the newest ``WAIT_WINDOW`` waits."""
        waits = np.random.default_rng(extra + 10).exponential(
            0.01, size=WAIT_WINDOW + extra)
        ledger = TenantLedger(tenant_id="t")
        for i, wait_s in enumerate(waits):
            ledger.record_complete(float(wait_s), False, now=float(i))
        stats = ledger.snapshot()
        p50, p95 = np.percentile(waits[-WAIT_WINDOW:], [50, 95])
        assert (stats.wait_p50_s, stats.wait_p95_s) == (p50, p95)
        assert stats.completed == waits.size


class TestEndpointUnit:
    def test_serves_render_fn_and_404(self):
        endpoint = MetricsEndpoint(lambda: "metric_total 1\n")
        try:
            with urllib.request.urlopen(endpoint.url) as response:
                assert response.read() == b"metric_total 1\n"
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{endpoint.port}/other")
            assert caught.value.code == 404
        finally:
            endpoint.close()

    def test_render_failure_is_500(self):
        def boom():
            raise RuntimeError("no metrics today")

        endpoint = MetricsEndpoint(boom)
        try:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(endpoint.url)
            assert caught.value.code == 500
        finally:
            endpoint.close()
