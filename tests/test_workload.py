"""Tests for the seeded workload generator (determinism contracts)."""

import numpy as np
import pytest

from repro.workload import (
    PRIORITY_CLASSES,
    DiurnalArrivals,
    FlashCrowdQueries,
    MarkovModulatedArrivals,
    PoissonArrivals,
    TenantSpec,
    UniformQueries,
    WorkloadGenerator,
    WorkloadTrace,
    ZipfQueries,
    ZipfTenants,
    generate_trace,
)

TENANTS = ZipfTenants((
    TenantSpec("acme", "interactive", 2),
    TenantSpec("globex", "batch", 2),
    TenantSpec("initech", "background", 1),
), skew=1.0)

ARRIVALS = [
    PoissonArrivals(rate_qps=30.0),
    MarkovModulatedArrivals(base_qps=10.0, burst_qps=150.0,
                            p_enter=0.1, p_exit=0.1),
    DiurnalArrivals(base_qps=25.0, amplitude=0.5, period_s=3.0),
]

QUERIES = [
    UniformQueries(),
    ZipfQueries(skew=1.2),
    FlashCrowdQueries(base=ZipfQueries(skew=1.0), window=(0.5, 1.5),
                      hot_query=0, hot_weight=0.9),
]


def make_trace(arrivals, queries, seed, n=60):
    return generate_trace(arrivals, TENANTS, queries=queries,
                          num_queries=8, seed=seed, num_events=n)


# ----------------------------------------------------------------------
# Determinism: the issue's satellite contract.
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("arrivals", ARRIVALS,
                             ids=lambda a: type(a).__name__)
    @pytest.mark.parametrize("queries", QUERIES,
                             ids=lambda q: type(q).__name__)
    def test_same_seed_byte_identical_across_runs(self, arrivals, queries):
        a = make_trace(arrivals, queries, seed=7)
        b = make_trace(arrivals, queries, seed=7)
        assert a.to_jsonl() == b.to_jsonl()
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("arrivals", ARRIVALS,
                             ids=lambda a: type(a).__name__)
    def test_chunked_equals_one_shot(self, arrivals):
        one_shot = make_trace(arrivals, QUERIES[2], seed=3, n=60)
        generator = WorkloadGenerator(arrivals, TENANTS,
                                      queries=QUERIES[2], num_queries=8,
                                      seed=3)
        chunks = ()
        for size in (1, 7, 13, 25, 14):
            chunks += generator.take(size)
        assert WorkloadTrace(chunks).to_jsonl() == one_shot.to_jsonl()

    def test_distinct_seeds_distinct_traces(self):
        a = make_trace(ARRIVALS[0], QUERIES[0], seed=0)
        b = make_trace(ARRIVALS[0], QUERIES[0], seed=1)
        assert a.fingerprint() != b.fingerprint()

    def test_generator_tracks_generated_count(self):
        generator = WorkloadGenerator(ARRIVALS[0], TENANTS, seed=0)
        generator.take(5)
        generator.take(3)
        assert generator.generated == 8


# ----------------------------------------------------------------------
# Event/trace semantics.
# ----------------------------------------------------------------------
class TestTrace:
    def test_events_well_formed(self):
        trace = make_trace(ARRIVALS[1], QUERIES[1], seed=11)
        last = 0.0
        for event in trace:
            assert event.arrival_s > last
            last = event.arrival_s
            assert event.priority in PRIORITY_CLASSES
            assert 0 <= event.query < 8
            assert event.session.startswith(event.tenant + "/")
        assert trace.duration_s == last

    def test_sessions_unique_in_first_arrival_order(self):
        trace = make_trace(ARRIVALS[0], QUERIES[0], seed=5)
        plan = trace.sessions()
        assert len({session for _, _, session in plan}) == len(plan)
        first_seen = []
        seen = set()
        for event in trace:
            if event.session not in seen:
                seen.add(event.session)
                first_seen.append(event.session)
        assert [session for _, _, session in plan] == first_seen

    def test_ticks_partition_the_trace_in_order(self):
        trace = make_trace(ARRIVALS[1], QUERIES[0], seed=9)
        rebuilt = []
        previous = -1
        for tick, events in trace.ticks(0.25):
            assert tick > previous
            previous = tick
            assert events
            for event in events:
                assert int(event.arrival_s / 0.25) == tick
            rebuilt.extend(events)
        assert tuple(rebuilt) == trace.events

    def test_fingerprint_sensitive_to_any_event(self):
        trace = make_trace(ARRIVALS[0], QUERIES[0], seed=2, n=10)
        mutated = WorkloadTrace(trace.events[:-1])
        assert mutated.fingerprint() != trace.fingerprint()


# ----------------------------------------------------------------------
# Model smoke (shape, not statistics).
# ----------------------------------------------------------------------
class TestModels:
    def test_zipf_concentrates_on_first_ranks(self):
        rng = np.random.default_rng(0)
        skewed = ZipfQueries(skew=2.0)
        draws = [skewed.sample(rng, 0.0, 8) for _ in range(400)]
        counts = np.bincount(draws, minlength=8)
        assert counts[0] > counts[-1]
        assert counts[0] == max(counts)

    def test_flash_crowd_hot_inside_window_only(self):
        model = FlashCrowdQueries(base=UniformQueries(),
                                  window=(10.0, 20.0), hot_query=3,
                                  hot_weight=1.0)
        rng = np.random.default_rng(0)
        inside = [model.sample(rng, 15.0, 8) for _ in range(50)]
        assert set(inside) == {3}
        outside = [model.sample(rng, 5.0, 8) for _ in range(200)]
        assert len(set(outside)) > 1

    def test_tenant_mix_respects_declared_sessions(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            spec, session = TENANTS.sample(rng)
            assert session.split("/s")[0] == spec.tenant
            assert int(session.split("/s")[1]) < spec.sessions

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_qps=0.0)
        with pytest.raises(ValueError):
            MarkovModulatedArrivals(base_qps=1.0, burst_qps=10.0,
                                    p_enter=0.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(base_qps=5.0, amplitude=1.0)
        with pytest.raises(ValueError):
            TenantSpec("x", "urgent")
        with pytest.raises(ValueError):
            ZipfTenants((TenantSpec("a", "batch"),
                         TenantSpec("a", "batch")))
        with pytest.raises(ValueError):
            FlashCrowdQueries(base=UniformQueries(), window=(2.0, 1.0))
        with pytest.raises(ValueError):
            WorkloadGenerator(ARRIVALS[0], TENANTS, num_queries=0)
        with pytest.raises(ValueError):
            list(make_trace(ARRIVALS[0], QUERIES[0], seed=0).ticks(0.0))

    @pytest.mark.parametrize("build, message", [
        (lambda: TenantSpec("x", "batch", sessions=0),
         "at least one session"),
        (lambda: ZipfTenants(()), "at least one tenant"),
        (lambda: ZipfTenants((TenantSpec("a", "batch"),), skew=-0.5),
         "skew must be non-negative"),
        (lambda: ZipfQueries(skew=-0.5), "skew must be non-negative"),
        (lambda: FlashCrowdQueries(base=UniformQueries(), window=(0.0, 1.0),
                                   hot_weight=0.0), "hot_weight"),
        (lambda: FlashCrowdQueries(base=UniformQueries(), window=(0.0, 1.0),
                                   hot_query=-1), "hot_query"),
        (lambda: MarkovModulatedArrivals(base_qps=10.0, burst_qps=0.0),
         "rates must be positive"),
        (lambda: DiurnalArrivals(base_qps=0.0), "base_qps must be positive"),
        (lambda: DiurnalArrivals(base_qps=5.0, period_s=0.0),
         "period_s must be positive"),
    ], ids=["tenant-without-sessions", "no-tenants", "negative-tenant-skew",
            "negative-query-skew", "zero-hot-weight", "negative-hot-query",
            "zero-burst-rate", "zero-diurnal-rate", "zero-diurnal-period"])
    def test_each_rule_refuses_its_input(self, build, message):
        """Every model checks its own fields at construction, so a bad
        scenario fails where it is declared rather than mid-trace."""
        with pytest.raises(ValueError, match=message):
            build()
