"""Tests for the async multi-tenant gateway (admission, QoS, hot swap)."""

import asyncio

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
from repro.graph import EdgeInput, NodeInput
from repro.obs import MetricsRegistry
from repro.serving import (
    AdmissionController,
    MicroBatchScheduler,
    Overloaded,
    Priority,
    PromptServer,
    ServingGateway,
    TokenBucket,
)
from repro.serving.qos import (
    SHED_QUEUE_FULL,
    SHED_QUOTA_EXHAUSTED,
    SHED_RATE_LIMITED,
    WAIT_WINDOW,
    TenantLedger,
)


class FakeClock:
    """Manually advanced clock for deterministic QoS timing."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# QoS primitives
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert all(bucket.try_acquire() for _ in range(3))
        assert not bucket.try_acquire()
        assert bucket.seconds_until() == pytest.approx(0.5)
        clock.advance(0.5)  # refills one token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_zero_rate_means_unlimited(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())
        assert all(bucket.try_acquire() for _ in range(100))
        assert bucket.seconds_until() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def test_class_occupancy_thresholds(self):
        admission = AdmissionController(max_queue=8, clock=FakeClock())
        # background sheds at 1/4 of the bound, batch at 1/2,
        # interactive only at the full bound.
        assert admission.admit("t", Priority.BACKGROUND, 1, 0) is None
        assert (admission.admit("t", Priority.BACKGROUND, 2, 1)
                == SHED_QUEUE_FULL)
        assert admission.admit("t", Priority.BATCH, 3, 1) is None
        assert admission.admit("t", Priority.BATCH, 4, 2) == SHED_QUEUE_FULL
        assert admission.admit("t", Priority.INTERACTIVE, 7, 2) is None
        assert (admission.admit("t", Priority.INTERACTIVE, 8, 3)
                == SHED_QUEUE_FULL)

    def test_rate_limit_and_retry_after(self):
        clock = FakeClock()
        admission = AdmissionController(max_queue=100, tenant_rate_qps=1.0,
                                        tenant_burst=2.0, clock=clock)
        assert admission.admit("t", Priority.INTERACTIVE, 0, 0) is None
        assert admission.admit("t", Priority.INTERACTIVE, 0, 1) is None
        assert (admission.admit("t", Priority.INTERACTIVE, 0, 2)
                == SHED_RATE_LIMITED)
        assert (admission.retry_after("t", SHED_RATE_LIMITED)
                == pytest.approx(1.0))
        clock.advance(1.0)
        assert admission.admit("t", Priority.INTERACTIVE, 0, 2) is None

    def test_queue_full_does_not_spend_tokens(self):
        admission = AdmissionController(max_queue=4, tenant_rate_qps=1.0,
                                        tenant_burst=1.0, clock=FakeClock())
        assert (admission.admit("t", Priority.INTERACTIVE, 4, 0)
                == SHED_QUEUE_FULL)
        # The bucket still holds its token: a later in-bounds request
        # is admitted instead of double-penalised.
        assert admission.admit("t", Priority.INTERACTIVE, 0, 0) is None

    def test_quota_exhaustion_is_per_tenant(self):
        admission = AdmissionController(max_queue=100, tenant_quota=2,
                                        clock=FakeClock())
        assert admission.admit("a", Priority.BATCH, 0, 0) is None
        assert admission.admit("a", Priority.BATCH, 0, 1) is None
        assert (admission.admit("a", Priority.BATCH, 0, 2)
                == SHED_QUOTA_EXHAUSTED)
        assert (admission.retry_after("a", SHED_QUOTA_EXHAUSTED)
                == float("inf"))
        assert admission.admit("b", Priority.BATCH, 0, 0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=1, tenant_quota=-1)


class TestTenantLedger:
    def test_percentiles_and_shed_rate(self):
        ledger = TenantLedger(tenant_id="t")
        for _ in range(8):
            ledger.record_submit(0.0)
        for reason in (SHED_RATE_LIMITED, SHED_QUEUE_FULL,
                       SHED_QUOTA_EXHAUSTED):
            ledger.record_shed(reason)
        for wait in (0.1, 0.2, 0.3, 0.4):
            ledger.record_complete(wait, False, now=1.0)
        ledger.record_complete(5.0, True, now=2.0)
        stats = ledger.snapshot()
        assert stats.shed == 3
        assert stats.shed_rate == pytest.approx(3 / 8)
        assert stats.deadline_misses == 1
        assert stats.wait_p50_s == pytest.approx(0.3)
        assert stats.qps == pytest.approx(5 / 2.0)

    def test_wait_window_bounds_memory(self):
        ledger = TenantLedger(tenant_id="t")
        for i in range(WAIT_WINDOW + 6):
            ledger.record_complete(float(i), False, now=float(i))
        assert len(ledger._waits) == WAIT_WINDOW
        # The newest WAIT_WINDOW waits: 6 .. WAIT_WINDOW + 5.
        assert ledger.snapshot().wait_p50_s == pytest.approx(
            6 + (WAIT_WINDOW - 1) / 2)


class TestDeadlineAwareScheduler:
    """The deadline-fraction release of :class:`MicroBatchScheduler`."""

    def _point(self):
        from repro.graph import NodeInput

        return NodeInput(0)

    def test_deadline_flush_fires_before_max_wait(self):
        clock = FakeClock()
        scheduler = MicroBatchScheduler(max_batch_size=8, max_wait_s=10.0,
                                        flush_fraction=0.5, clock=clock)
        scheduler.submit("s", self._point(), deadline=clock() + 1.0)
        assert not scheduler.ready()
        assert scheduler.next_flush_at() == pytest.approx(0.5)
        clock.advance(0.49)
        assert not scheduler.ready()
        clock.advance(0.02)
        assert scheduler.ready()  # half the budget spent waiting

    def test_no_deadline_falls_back_to_max_wait(self):
        clock = FakeClock()
        scheduler = MicroBatchScheduler(max_batch_size=8, max_wait_s=2.0,
                                        flush_fraction=0.5, clock=clock)
        scheduler.submit("s", self._point())
        assert scheduler.next_flush_at() == pytest.approx(2.0)
        clock.advance(1.9)
        assert not scheduler.ready()
        clock.advance(0.2)
        assert scheduler.ready()

    def test_equivalent_to_base_policy_when_shallow(self):
        """flush_fraction=1 + deadline=submit+max_wait == no deadline.

        Scanned over a grid of submit/advance times: at every instant a
        queue of requests without a deadline and one of requests with
        that deadline agree on ``ready()``, so shallow queues drain on
        the exact same schedule either way.
        """
        for gap in (0.0, 0.3, 1.1, 2.4):
            clock_a, clock_b = FakeClock(), FakeClock()
            base = MicroBatchScheduler(max_batch_size=4, max_wait_s=1.0,
                                       flush_fraction=1.0, clock=clock_a)
            deadline = MicroBatchScheduler(max_batch_size=4, max_wait_s=1.0,
                                           flush_fraction=1.0, clock=clock_b)
            base.submit("s", self._point())
            deadline.submit("s", self._point(),
                            deadline=clock_b() + 1.0)
            for _ in range(12):
                assert base.ready() == deadline.ready()
                clock_a.advance(gap / 6 + 0.1)
                clock_b.advance(gap / 6 + 0.1)
            assert base.ready() and deadline.ready()

    def test_batch_size_release_unchanged(self):
        clock = FakeClock()
        scheduler = MicroBatchScheduler(max_batch_size=2, max_wait_s=9.0,
                                        flush_fraction=0.5, clock=clock)
        scheduler.submit("s", self._point(), deadline=clock() + 9.0)
        assert not scheduler.ready()
        scheduler.submit("s", self._point(), deadline=clock() + 9.0)
        assert scheduler.ready()

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(flush_fraction=0.0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(flush_fraction=1.5)


# ----------------------------------------------------------------------
# Gateway integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    """A briefly pre-trained model + dataset shared by the gateway tests."""
    graph = synthetic_knowledge_graph(300, 8, 2400, rng=0, name="kg-gate")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=12, max_subgraph_nodes=10,
                                 num_gnn_layers=2)
    model = GraphPrompterModel(dataset.graph.feature_dim,
                               dataset.graph.num_relations, config)
    Pretrainer(model, dataset, PretrainConfig(steps=60, num_ways=4),
               rng=0).train()
    return dataset, config, model


def burst_plan(dataset, num_queries=6, seed=0):
    """Fixed tenant/session/episode mix for the burst tests."""
    episodes = [sample_episode(dataset, num_ways=3,
                               num_queries=num_queries, rng=seed * 100 + i)
                for i in range(3)]
    return [
        ("tenant-i", Priority.INTERACTIVE, "si", episodes[0]),
        ("tenant-b", Priority.BATCH, "sb", episodes[1]),
        ("tenant-g", Priority.BACKGROUND, "sg", episodes[2]),
    ]


async def replay_burst(gateway, plan, rounds, per_round):
    """Submit per_round queries per session each round, flush between.

    Returns (outcome map, admitted keys in submission order).
    """
    outcomes, admitted, futures = {}, [], {}
    for round_id in range(rounds):
        for offset in range(per_round):
            q = round_id * per_round + offset
            for _, _, session_id, episode in plan:
                key = (session_id, q)
                out = gateway.submit_nowait(session_id, episode.queries[q])
                if isinstance(out, Overloaded):
                    outcomes[key] = out
                else:
                    futures[key] = out
                    admitted.append(key)
        await gateway.flush()
    await gateway.flush()
    for key, future in futures.items():
        assert future.done(), f"{key} hung"
        outcomes[key] = future.result()
    return outcomes, admitted


def direct_replay(model, dataset, plan, admitted, seed=0):
    """Reference predictions: same sessions, per-query, no gateway."""
    server = PromptServer(model, dataset, max_batch_size=1, rng=seed)
    episodes = {}
    for _, _, session_id, episode in plan:
        server.open_session(session_id, episode)
        episodes[session_id] = episode
    reference = {}
    for session_id, q in admitted:
        server.submit(session_id, episodes[session_id].queries[q])
        (result,) = server.drain()
        reference[(session_id, q)] = result.prediction
    return reference


class TestGateway:
    def _gateway(self, model, dataset, seed=0, server_batch=16, **knobs):
        server = PromptServer(model, dataset, max_batch_size=server_batch,
                              rng=seed)
        return ServingGateway(server, auto_drain=False, **knobs)

    @pytest.mark.parametrize("server_batch", [16, 2])
    def test_admitted_predictions_bit_identical_to_direct(self, served,
                                                          server_batch):
        dataset, config, model = served
        plan = burst_plan(dataset)

        async def main():
            gateway = self._gateway(model, dataset, max_batch_size=4,
                                    max_queue=1024,
                                    server_batch=server_batch)
            for tenant, priority, session_id, episode in plan:
                gateway.open_session(tenant, session_id, episode,
                                     priority=priority)
            outcomes, admitted = await replay_burst(gateway, plan, 2, 3)
            await gateway.close()
            return outcomes, admitted

        outcomes, admitted = run(main())
        assert len(admitted) == 18  # nothing shed at this scale
        reference = direct_replay(model, dataset, plan, admitted)
        for key in admitted:
            assert outcomes[key].ok
            assert outcomes[key].prediction == reference[key]

    def test_shed_decisions_deterministic_under_seeded_burst(self, served):
        dataset, config, model = served

        def one_run():
            plan = burst_plan(dataset)

            async def main():
                gateway = self._gateway(model, dataset, max_queue=4,
                                        max_batch_size=4)
                for tenant, priority, session_id, episode in plan:
                    gateway.open_session(tenant, session_id, episode,
                                         priority=priority)
                outcomes, admitted = await replay_burst(gateway, plan, 2, 3)
                stats = gateway.stats
                await gateway.close()
                return outcomes, admitted, stats

            return run(main())

        first_out, first_adm, first_stats = one_run()
        second_out, second_adm, second_stats = one_run()
        assert first_adm == second_adm
        sheds = {key: out.reason for key, out in first_out.items()
                 if isinstance(out, Overloaded)}
        assert sheds  # the tiny queue actually shed something
        assert sheds == {key: out.reason
                         for key, out in second_out.items()
                         if isinstance(out, Overloaded)}
        assert ([(t.tenant_id, t.admitted, t.shed)
                 for t in first_stats.tenants]
                == [(t.tenant_id, t.admitted, t.shed)
                    for t in second_stats.tenants])
        predictions = {key: out.prediction
                       for key, out in first_out.items()
                       if not isinstance(out, Overloaded)}
        assert predictions == {key: out.prediction
                               for key, out in second_out.items()
                               if not isinstance(out, Overloaded)}

    def test_flooding_tenant_never_starves_interactive(self, served):
        """Quota + class shedding isolate tenants: a batch tenant
        hammering the queue cannot push out another tenant's
        interactive traffic."""
        dataset, config, model = served
        episodes = [sample_episode(dataset, num_ways=3, num_queries=6,
                                   rng=50 + i) for i in range(2)]

        async def main():
            gateway = self._gateway(model, dataset, max_queue=8,
                                    max_batch_size=4)
            gateway.open_session("calm", "si", episodes[0],
                                 priority=Priority.INTERACTIVE)
            gateway.open_session("flood", "sb", episodes[1],
                                 priority=Priority.BATCH)
            flood_outcomes, calm_futures = [], []
            for q in range(6):
                # The flooder bursts 6 copies of its query — past the
                # batch class's half-queue allowance — before the calm
                # tenant's single interactive request each round.
                for _ in range(6):
                    flood_outcomes.append(
                        gateway.submit_nowait("sb", episodes[1].queries[q]))
                calm_futures.append(
                    gateway.submit_nowait("si", episodes[0].queries[q]))
                await gateway.flush()
            stats = gateway.stats
            await gateway.close()
            return flood_outcomes, calm_futures, stats

        flood_outcomes, calm_futures, stats = run(main())
        by_tenant = {t.tenant_id: t for t in stats.tenants}
        assert by_tenant["flood"].shed > 0
        assert by_tenant["calm"].shed == 0
        assert by_tenant["calm"].admitted == 6
        for future in calm_futures:
            assert not isinstance(future, Overloaded)
            assert future.result().ok

    def test_deadline_flush_serves_shallow_queue(self, served):
        """A single queued request is released by deadline budget, not
        max-wait, and the answer equals the direct per-query one."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=2, rng=7)
        clock = FakeClock()

        async def main():
            server = PromptServer(model, dataset, rng=0, clock=clock)
            gateway = ServingGateway(server, auto_drain=False,
                                     max_wait_s=60.0, flush_fraction=0.5,
                                     deadlines={Priority.INTERACTIVE: 1.0},
                                     clock=clock)
            gateway.open_session("t", "s", episode)
            future = gateway.submit_nowait("s", episode.queries[0])
            assert await gateway.pump() == 0  # budget not yet half spent
            clock.advance(0.51)
            assert await gateway.pump() == 1  # deadline flush, not max-wait
            await gateway.close()
            return future.result()

        outcome = run(main())
        assert outcome.ok and not outcome.deadline_missed
        reference = direct_replay(
            model, dataset,
            [("t", Priority.INTERACTIVE, "s", episode)], [("s", 0)])
        assert outcome.prediction == reference[("s", 0)]

    def test_deadline_miss_is_counted(self, served):
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=2, rng=8)
        clock = FakeClock()

        async def main():
            server = PromptServer(model, dataset, rng=0, clock=clock)
            gateway = ServingGateway(server, auto_drain=False,
                                     max_wait_s=60.0,
                                     deadlines={Priority.INTERACTIVE: 1.0},
                                     clock=clock)
            gateway.open_session("t", "s", episode)
            future = gateway.submit_nowait("s", episode.queries[0])
            clock.advance(5.0)  # way past the whole budget
            await gateway.flush()
            stats = gateway.stats
            await gateway.close()
            return future.result(), stats

        outcome, stats = run(main())
        assert outcome.ok and outcome.deadline_missed
        assert stats.tenants[0].deadline_misses == 1

    def test_overload_rejections_are_typed_and_immediate(self, served):
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=9)

        async def main():
            gateway = self._gateway(model, dataset, max_queue=2)
            gateway.open_session("t", "s", episode,
                                 priority=Priority.BACKGROUND)
            outcomes = [gateway.submit_nowait("s", episode.queries[0])
                        for _ in range(4)]
            await gateway.flush()
            await gateway.close()
            return outcomes

        outcomes = run(main())
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        assert shed and all(o.reason == SHED_QUEUE_FULL for o in shed)
        assert all(not o.ok for o in shed)
        assert all(o.retry_after_s >= 0.0 for o in shed)

    def test_rate_limited_tenant_quota_accounting(self, served):
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=10)

        async def main():
            gateway = self._gateway(model, dataset, tenant_rate_qps=1.0,
                                    tenant_burst=2.0)
            gateway.open_session("t", "s", episode)
            outcomes = [gateway.submit_nowait("s", episode.queries[q])
                        for q in range(4)]
            await gateway.flush()
            stats = gateway.stats
            await gateway.close()
            return outcomes, stats

        outcomes, stats = run(main())
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        assert len(shed) == 2
        assert all(o.reason == SHED_RATE_LIMITED for o in shed)
        assert all(o.retry_after_s > 0 for o in shed)
        tenant = stats.tenants[0]
        assert tenant.admitted == 2
        assert tenant.shed_rate == pytest.approx(0.5)

    def test_mixed_priority_tenant_rejected(self, served):
        """QoS accounting is keyed by the tenant's class — one tenant
        cannot silently split across classes."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=2, rng=12)

        async def main():
            gateway = self._gateway(model, dataset)
            gateway.open_session("t", "s1", episode,
                                 priority=Priority.BATCH)
            with pytest.raises(ValueError, match="share one priority"):
                gateway.open_session("t", "s2", episode,
                                     priority=Priority.INTERACTIVE)
            gateway.open_session("t", "s3", episode,
                                 priority=Priority.BATCH)  # same class ok
            await gateway.close()

        run(main())

    def test_expired_session_counts_as_error_not_completion(self, served):
        """A request whose session expired resolves with an error and
        lands in the ledger's error counter, not completed/waits."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=2, rng=13)
        clock = FakeClock()

        async def main():
            server = PromptServer(model, dataset, session_ttl_s=10.0,
                                  rng=0, clock=clock)
            gateway = ServingGateway(server, auto_drain=False, clock=clock)
            gateway.open_session("t", "s", episode)
            future = gateway.submit_nowait("s", episode.queries[0])
            clock.advance(11.0)  # session expires while queued
            await gateway.flush()
            stats = gateway.stats
            await gateway.close()
            return future.result(), stats

        outcome, stats = run(main())
        assert not outcome.ok
        assert outcome.error == "session-expired"
        tenant = stats.tenants[0]
        assert tenant.errors == 1
        assert tenant.completed == 0
        assert tenant.admitted == 1
        assert tenant.qps == 0.0  # no successes → no throughput claim

    def test_server_failure_settles_futures_never_hangs(self, served):
        """If the server hot path raises, the popped batch's futures
        settle with a typed error (never-hang contract) and the gateway
        keeps serving afterwards."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=14)

        async def main():
            server = PromptServer(model, dataset, rng=0)
            gateway = ServingGateway(server, auto_drain=False)
            gateway.open_session("t", "s", episode)
            real_serve = server.serve
            server.serve = lambda batch: (_ for _ in ()).throw(
                RuntimeError("worker pool died"))
            doomed = gateway.submit_nowait("s", episode.queries[0])
            with pytest.raises(RuntimeError, match="worker pool died"):
                await gateway.flush()
            assert doomed.done()
            server.serve = real_serve
            healthy = gateway.submit_nowait("s", episode.queries[1])
            await gateway.flush()
            stats = gateway.stats
            await gateway.close()
            return doomed.result(), healthy.result(), stats

        failed, ok, stats = run(main())
        assert not failed.ok
        assert failed.error.startswith("internal: RuntimeError")
        assert ok.ok
        tenant = stats.tenants[0]
        assert tenant.errors == 1 and tenant.completed == 1

    def test_malformed_datapoint_rejected_before_ledgers(self, served):
        """A malformed query raises at ``submit_nowait`` — before the tenant
        ledger counts it — while a valid query from another tenant rides
        the next batch and is answered."""
        dataset, config, model = served
        graph = dataset.graph
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=16)
        bad_inputs = (EdgeInput(-1, 5), EdgeInput(graph.num_nodes + 5, 5),
                      EdgeInput(0, 1, relation=graph.num_relations),
                      NodeInput(graph.num_nodes), NodeInput(0), "0,1")

        async def main(bad):
            gateway = self._gateway(model, dataset, max_batch_size=4)
            gateway.open_session("tenant-ok", "good", episode)
            gateway.open_session("tenant-bad", "bad", episode)
            future = gateway.submit_nowait("good", episode.queries[0])
            with pytest.raises(ValueError):
                gateway.submit_nowait("bad", bad)
            await gateway.flush()
            stats = gateway.stats
            await gateway.close()
            return future.result(), stats

        for bad in bad_inputs:
            outcome, stats = run(main(bad))
            assert outcome.ok, bad
            ledgers = {t.tenant_id: t for t in stats.tenants}
            assert ledgers["tenant-ok"].completed == 1
            assert ledgers["tenant-bad"].submitted == 0
            for tenant in ledgers.values():
                assert tenant.submitted == tenant.admitted + tenant.shed

    def test_unknown_session_raises_descriptive_keyerror(self, served):
        dataset, config, model = served

        async def main():
            gateway = self._gateway(model, dataset)
            with pytest.raises(KeyError, match="open_session"):
                gateway.submit_nowait("ghost", None)
            await gateway.close()

        run(main())

    def test_class_batch_is_one_server_micro_batch(self, served):
        """A released class batch runs whole as one server micro-batch:
        the server's own queue and its smaller batch bound are never
        touched, and each request is validated once, at admission."""
        dataset, config, model = served
        episodes = [sample_episode(dataset, num_ways=3, num_queries=4,
                                   rng=60 + i) for i in range(2)]
        calls = dict.fromkeys(("submit", "drain", "step", "validate"), 0)

        async def main():
            server = PromptServer(model, dataset, max_batch_size=2, rng=0)
            for name in calls:
                def spy(*args, _real=getattr(server, name), _name=name,
                        **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)
                setattr(server, name, spy)
            gateway = ServingGateway(server, auto_drain=False,
                                     max_batch_size=8)
            for i, episode in enumerate(episodes):
                gateway.open_session("t", f"s{i}", episode)
            futures = [gateway.submit_nowait(f"s{i}", episode.queries[q])
                       for q in range(4)
                       for i, episode in enumerate(episodes)]
            batches = server.stats.batches
            await gateway.flush()
            grew = server.stats.batches - batches
            await gateway.close()
            return [future.result() for future in futures], grew

        outcomes, grew = run(main())
        assert grew == 1
        assert [o.ok and o.result.batch_size for o in outcomes] == [8] * 8
        assert calls == {"submit": 0, "drain": 0, "step": 0, "validate": 8}

    def test_evicted_or_closed_session_raises_before_ledgers(self, served):
        """A session the server evicted or closed is unknown to the
        gateway: a submit raises ``KeyError`` before the tenant ledger
        counts it, so it takes no queue slot, rate token or quota."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=2, rng=61)

        async def main():
            server = PromptServer(model, dataset, session_capacity=4, rng=0)
            gateway = ServingGateway(server, auto_drain=False)
            for i in range(10):
                gateway.open_session("t", f"s{i}", episode)
            server.close_session("s9")
            assert server.sessions.ids() == ["s6", "s7", "s8"]
            before = gateway.ledger("t").snapshot()
            for gone in ("s0", "s9"):
                with pytest.raises(KeyError, match="open_session"):
                    gateway.submit_nowait(gone, episode.queries[0])
            assert gateway.queue_depth() == 0
            after = gateway.ledger("t").snapshot()
            await gateway.close()
            return before, after

        before, after = run(main())
        assert after == before
        assert after.submitted == after.admitted == 0

    def test_restored_session_served_in_its_recorded_class(self, served,
                                                           tmp_path):
        """A gateway over ``PromptServer.restore`` routes a restored
        session by the tenant and class it was opened with, and answers
        as the original server did."""
        from repro.persist import PersistentStore

        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=2, rng=62)
        store_dir = str(tmp_path / "store")

        async def serve_first_query(gateway):
            future = gateway.submit_nowait("s", episode.queries[0])
            await gateway.flush()
            stats = gateway.stats
            await gateway.close()
            return future.result(), stats

        async def main():
            server = PromptServer(model, dataset, rng=0,
                                  persist=PersistentStore(store_dir))
            gateway = ServingGateway(server, auto_drain=False)
            gateway.open_session("t", "s", episode, priority=Priority.BATCH)
            first, _ = await serve_first_query(gateway)
            restored = PromptServer.restore(
                model, PersistentStore(store_dir), dataset.task, rng=0)
            gateway = ServingGateway(restored, auto_drain=False)
            with pytest.raises(ValueError, match="share one priority"):
                gateway.open_session("t", "s2", episode,
                                     priority=Priority.INTERACTIVE)
            again, stats = await serve_first_query(gateway)
            return first, again, stats

        first, again, stats = run(main())
        assert again.ok and again.priority == Priority.BATCH
        assert ([(t.tenant_id, t.priority, t.completed)
                 for t in stats.tenants] == [("t", Priority.BATCH, 1)])
        assert ((again.prediction, again.result.confidence)
                == (first.prediction, first.result.confidence))

    @pytest.mark.parametrize("settings, match", [
        (dict(tenant_rate_qps=-5.0), "tenant_rate_qps"),
        (dict(deadlines={Priority.INTERACTIVE: -1.0}), "deadline"),
        (dict(deadlines={"interactive": 0.1}), "keyed by Priority"),
    ], ids=["negative-rate", "negative-deadline", "string-deadline-key"])
    def test_invalid_setting_raises_before_any_state(self, served,
                                                     settings, match):
        """A setting the gateway would ignore or misapply is refused at
        construction, before the gateway registers anything."""
        dataset, config, model = served
        registry = MetricsRegistry()
        server = PromptServer(model, dataset, rng=0, registry=registry)
        with pytest.raises(ValueError, match=match):
            ServingGateway(server, auto_drain=False, registry=registry,
                           **settings)
        assert registry.instruments() == []

    def test_auto_drain_background_loop(self, served):
        """The default mode: no manual pumping, submit() just resolves."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=11)

        async def main():
            server = PromptServer(model, dataset, rng=0)
            gateway = ServingGateway(
                server, deadlines={Priority.INTERACTIVE: 0.02})
            gateway.open_session("t", "s", episode)
            results = []
            for q in range(4):
                results.append(await gateway.submit("s",
                                                    episode.queries[q]))
            await gateway.close()
            return results

        results = run(main())
        assert all(r.ok for r in results)
        reference = direct_replay(
            model, dataset,
            [("t", Priority.INTERACTIVE, "s", episode)],
            [("s", q) for q in range(4)])
        assert ([r.prediction for r in results]
                == [reference[("s", q)] for q in range(4)])


# ----------------------------------------------------------------------
# Graceful drain / hot swap
# ----------------------------------------------------------------------
def mutable_setup():
    graph = synthetic_knowledge_graph(200, 6, 1600, rng=3, name="kg-mut")
    dataset = Dataset(graph, EDGE_TASK, rng=0)
    config = GraphPrompterConfig(hidden_dim=8, max_subgraph_nodes=10,
                                 mutable_graph=True)
    model = GraphPrompterModel(graph.feature_dim, graph.num_relations,
                               config)
    model.eval()
    return graph, dataset, config, model


class TestGracefulSwap:
    def test_update_graph_drains_inflight_then_matches_cold(self):
        """Queued requests drain pre-mutation (zero drops); post-mutation
        fresh sessions answer exactly like a cold server rebuilt from the
        final live edge list."""
        from repro.graph import GraphUpdate

        graph, dataset, config, model = mutable_setup()
        episode = sample_episode(dataset, num_ways=3, num_queries=6, rng=21)
        update = GraphUpdate(add_src=[0, 1, 2], add_dst=[3, 4, 5],
                             add_rel=[0, 1, 2])

        async def main():
            server = PromptServer(model, dataset, max_batch_size=4, rng=0)
            gateway = ServingGateway(server, auto_drain=False,
                                     max_batch_size=4)
            gateway.open_session("t", "s", episode)
            queued = [gateway.submit_nowait("s", episode.queries[q])
                      for q in range(3)]
            assert gateway.queue_depth() == 3
            applied = await gateway.update_graph(update)
            # Graceful drain: everything queued resolved *before* the
            # mutation landed — zero dropped in-flight requests.
            assert gateway.queue_depth() == 0
            assert all(f.done() and f.result().ok for f in queued)
            assert applied.touched_nodes.size > 0
            post = []
            for q in range(3, 6):
                fut = gateway.submit_nowait("s", episode.queries[q])
                await gateway.flush()
                post.append(fut.result())
            stats = gateway.stats
            await gateway.close()
            return [f.result().prediction for f in queued], post, stats

        pre_preds, post, stats = run(main())
        assert stats.graph_updates == 1
        assert all(r.ok for r in post)

        # Cold reference on the mutated graph: same episode, fresh
        # session, the three post-mutation queries.
        cold_dataset = Dataset(graph.rebuild(), EDGE_TASK, rng=0)
        cold = PromptServer(model, cold_dataset, max_batch_size=4, rng=0)
        cold.open_session("s", episode)
        for q in range(3):
            cold.submit("s", episode.queries[q])
        cold.drain()  # replay the pre-mutation traffic for cache parity
        cold_preds = []
        for q in range(3, 6):
            cold.submit("s", episode.queries[q])
            cold_preds.extend(r.prediction for r in cold.drain())
        assert [r.prediction for r in post] == cold_preds

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_reload_model_hot_swap_matches_cold_server(self, served,
                                                       num_shards):
        """After a weight hot-swap, answers equal a cold monolithic
        server built with the new weights (sessions re-anchored, caches
        purged) — through the shard router too."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=6, rng=22)

        # A differently-trained twin provides the new weights.
        other = GraphPrompterModel(dataset.graph.feature_dim,
                                   dataset.graph.num_relations, config)
        Pretrainer(other, dataset, PretrainConfig(steps=30, num_ways=4),
                   rng=9).train()
        new_state = other.state_dict()

        swap_model = GraphPrompterModel(dataset.graph.feature_dim,
                                        dataset.graph.num_relations,
                                        config)
        swap_model.load_state_dict(model.state_dict())

        async def main():
            server = PromptServer(swap_model, dataset, max_batch_size=4,
                                  rng=0, num_shards=num_shards)
            gateway = ServingGateway(server, auto_drain=False,
                                     max_batch_size=4)
            gateway.open_session("t", "s", episode)
            queued = [gateway.submit_nowait("s", episode.queries[q])
                      for q in range(3)]
            await gateway.reload_model(new_state)
            assert all(f.done() and f.result().ok for f in queued)
            post = []
            for q in range(3, 6):
                fut = gateway.submit_nowait("s", episode.queries[q])
                await gateway.flush()
                post.append(fut.result())
            await gateway.close()
            return post

        post = run(main())
        cold_model = GraphPrompterModel(dataset.graph.feature_dim,
                                        dataset.graph.num_relations,
                                        config)
        cold_model.load_state_dict(new_state)
        cold = PromptServer(cold_model, dataset, max_batch_size=4, rng=0)
        cold.open_session("s", episode)
        cold_preds = []
        for q in range(3, 6):
            cold.submit("s", episode.queries[q])
            cold_preds.extend(r.prediction for r in cold.drain())
        assert [r.prediction for r in post] == cold_preds


class TestStatsWiring:
    def test_server_stats_tenants_default_empty(self, served):
        dataset, config, model = served
        server = PromptServer(model, dataset, rng=0)
        assert server.stats.tenants == ()

    def test_gateway_stats_shard_attribution(self, served):
        """Gateway stats carry the server's shard counters next to the
        tenant ledgers."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=4, rng=33)

        async def main():
            server = PromptServer(model, dataset, rng=0, num_shards=2)
            gateway = ServingGateway(server, auto_drain=False)
            gateway.open_session("t", "s", episode)
            for q in range(4):
                gateway.submit_nowait("s", episode.queries[q])
            await gateway.flush()
            stats = gateway.stats
            await gateway.close()
            return stats

        stats = run(main())
        assert len(stats.shards) == 2
        tenant = stats.tenants[0]
        assert tenant.completed == 4


# ----------------------------------------------------------------------
# Shutdown under load: complete or typed Unavailable, never hang
# ----------------------------------------------------------------------
class TestShutdownUnderLoad:
    def test_abort_settles_every_inflight_request(self, served):
        from repro.serving import Unavailable
        from repro.serving.qos import UNAVAILABLE_SHUTDOWN

        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=6, rng=41)

        async def main():
            server = PromptServer(model, dataset, rng=0)
            gateway = ServingGateway(server, auto_drain=False)
            gateway.open_session("t", "s", episode, priority=Priority.BATCH)
            queued = [gateway.submit_nowait("s", episode.queries[q])
                      for q in range(4)]
            settled = gateway.abort()
            assert settled == 4
            for future in queued:
                assert future.done()
                outcome = future.result()
                assert isinstance(outcome, Unavailable)
                assert not outcome.ok
                assert outcome.reason == UNAVAILABLE_SHUTDOWN
                assert outcome.tenant_id == "t"
                assert outcome.priority == Priority.BATCH
            assert gateway.closed
            assert gateway.abort() == 0  # idempotent
            with pytest.raises(RuntimeError):
                gateway.submit_nowait("s", episode.queries[4])
            await gateway.close()  # close after abort is a clean no-op

        run(main())

    def test_close_without_drain_settles_instead_of_serving(self, served):
        from repro.serving import Unavailable

        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=6, rng=42)

        async def main():
            server = PromptServer(model, dataset, rng=0)
            gateway = ServingGateway(server, auto_drain=False)
            gateway.open_session("t", "s", episode)
            queued = [gateway.submit_nowait("s", episode.queries[q])
                      for q in range(3)]
            await asyncio.wait_for(gateway.close(drain=False), timeout=30)
            assert all(f.done() for f in queued)
            assert all(isinstance(f.result(), Unavailable) for f in queued)

        run(main())

    def test_close_with_drain_completes_inflight(self, served):
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=6, rng=43)

        async def main():
            server = PromptServer(model, dataset, rng=0)
            gateway = ServingGateway(server, auto_drain=False)
            gateway.open_session("t", "s", episode)
            queued = [gateway.submit_nowait("s", episode.queries[q])
                      for q in range(4)]
            await asyncio.wait_for(gateway.close(), timeout=60)
            # Graceful path: everything admitted was *served*, not voided.
            assert all(f.done() and f.result().ok for f in queued)

        run(main())

    def test_abort_with_background_drain_running(self, served):
        """Abort racing the auto-drain pump: every future still settles
        (served or typed Unavailable), and the loop shuts down clean."""
        dataset, config, model = served
        episode = sample_episode(dataset, num_ways=3, num_queries=8, rng=44)

        async def main():
            server = PromptServer(model, dataset, rng=0)
            gateway = ServingGateway(server, max_batch_size=2,
                                     max_wait_s=0.0)  # auto_drain on
            gateway.open_session("t", "s", episode)
            queued = [gateway.submit_nowait("s", episode.queries[q])
                      for q in range(8)]
            from repro.serving import GatewayResult, Unavailable
            await asyncio.sleep(0)  # let the pump start a batch
            gateway.abort()
            for future in queued:
                outcome = await asyncio.wait_for(future, timeout=30)
                assert isinstance(outcome, (GatewayResult, Unavailable))
            assert gateway.closed
            await gateway.close()

        run(main())
