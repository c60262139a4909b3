"""serve-gateway / serve-bench-gateway — multi-tenant QoS experiments.

Not paper artifacts: these characterise the async serving gateway
(:mod:`repro.serving.gateway`) that fronts :class:`PromptServer` with
admission control, priority batching, and load shedding — the regime
PRODIGY-style prompt serving actually runs in (bursty, heterogeneous,
multi-tenant traffic).

``serve-bench-gateway`` runs two phases and **raises** (the CI
gateway-smoke gate) when either QoS contract breaks:

* **Equivalence** — a mixed-tenant workload where everything is admitted:
  every prediction that comes back through the gateway must be
  bit-identical to replaying the same per-session query streams directly
  on a cold :class:`PromptServer` (admission, priority reordering across
  sessions, and deadline batching must never change answers).
* **Overload** — the same tenants offer 2× the admission-queue capacity
  per round.  Required outcomes: every submission resolves (admitted →
  result, shed → typed ``Overloaded``; zero hangs), the interactive
  class is never shed and its p95 queue wait stays under its deadline
  budget, lower classes absorb the shedding, and the admitted subset is
  again bit-identical to a direct replay.

``serve-gateway`` is the CLI demo driver: a smaller version of the same
traffic with per-tenant rate limits switched on, printing the tenant
ledger table (admitted/shed/QPS/p95 wait/deadline misses).
"""

from __future__ import annotations

import asyncio

from ..serving import Overloaded, Priority, PromptServer, ServingGateway
from ..serving.qos import (
    SHED_QUEUE_FULL,
    SHED_QUOTA_EXHAUSTED,
    SHED_RATE_LIMITED,
)
from .common import ExperimentContext, TableResult
from .replay import (
    replay,
    replay_gateway,
    require_identical,
    sample_episodes,
    served_model,
)

__all__ = ["serve_bench_gateway", "serve_gateway_demo"]

#: (tenant id, priority, number of sessions) — the fixed tenant mix both
#: experiments replay.  Interactive first: within each burst round the
#: most urgent traffic reaches admission first, mirroring a front door
#: that drains its listener queue in priority order.
TENANT_MIX = (
    ("acme-interactive", Priority.INTERACTIVE, 2),
    ("globex-batch", Priority.BATCH, 2),
    ("initech-background", Priority.BACKGROUND, 1),
)
NUM_SESSIONS = sum(sessions for _, _, sessions in TENANT_MIX)


async def _run_rounds(gateway, episodes: dict, rounds: int, per_round: int):
    """Open the tenant mix's sessions, then replay ``per_round`` queries
    per session per round, flushing between rounds.

    Returns ``(outcomes, admitted, elapsed seconds)``: ``outcomes`` lists
    ``((session, query index), GatewayResult | Overloaded)`` in submission
    order, ``admitted`` the admitted ``(key, prediction)`` pairs.
    """
    owners = [(tenant_id, priority)
              for tenant_id, priority, sessions in TENANT_MIX
              for _ in range(sessions)]
    for (tenant_id, priority), (session_id, episode) in zip(
            owners, episodes.items()):
        gateway.open_session(tenant_id, session_id, episode,
                             priority=priority)
    ticks = [[(session_id, round_id * per_round + offset)
              for offset in range(per_round) for session_id in episodes]
             for round_id in range(rounds)]
    outcomes, elapsed = await replay_gateway(gateway, episodes, ticks)
    admitted = [(key, outcome.prediction) for key, outcome in outcomes
                if not isinstance(outcome, Overloaded)]
    return outcomes, admitted, elapsed


def _require_direct_identity(model, dataset, episodes: dict, admitted,
                             seed: int) -> None:
    """Admitted gateway answers == one-by-one serving on a cold server.

    Opens the same sessions in the same order (same rng seed → same
    per-session Augmenter streams), then serves each admitted query alone
    in its original order.
    """
    server = PromptServer(model, dataset, max_batch_size=1, rng=seed)
    for session_id, episode in episodes.items():
        server.open_session(session_id, episode)
    results, _ = replay(server, episodes, [[key] for key, _ in admitted])
    require_identical(
        [(key, r.prediction) for (key, _), r in zip(admitted, results)],
        admitted,
        "gateway answers vs direct per-query serving (admission and "
        "priority batching must never change answers)")


def serve_bench_gateway(context: ExperimentContext,
                        source: str = "wiki", target: str = "nell",
                        num_ways: int = 5, seed: int = 0) -> TableResult:
    """Gateway equivalence + 2×-overload QoS bench (raises on violation)."""
    model, dataset = served_model(context, source, target)
    rounds = 2 if context.fast else 3
    per_round = 3 if context.fast else 6
    queries = rounds * per_round
    episodes = sample_episodes(dataset, NUM_SESSIONS, num_ways, queries,
                               seed * 1000)

    headers = ["Phase", "Tenant", "Class", "Submitted", "Admitted",
               "Shed", "p95 wait ms", "Miss", "QPS"]
    rows: list[list] = []
    data: dict = {"phases": {}}

    def tenant_rows(phase: str, stats, qps: float) -> None:
        for tenant in stats.tenants:
            rows.append([
                phase, tenant.tenant_id, tenant.priority.name.lower(),
                tenant.submitted, tenant.admitted, tenant.shed,
                f"{1000.0 * tenant.wait_p95_s:.2f}",
                tenant.deadline_misses, f"{qps:.1f}"])
        data["phases"][phase] = {
            "qps": qps,
            "tenants": {t.tenant_id: {
                "priority": t.priority.name,
                "submitted": t.submitted, "admitted": t.admitted,
                "shed": t.shed, "shed_rate": t.shed_rate,
                "wait_p50_s": t.wait_p50_s, "wait_p95_s": t.wait_p95_s,
                "deadline_misses": t.deadline_misses,
                "qps": t.qps} for t in stats.tenants},
        }

    async def run() -> None:
        # ------------------------------------------------------------------
        # Phase A: no shedding pressure — pure equivalence + throughput.
        # ------------------------------------------------------------------
        server = PromptServer(model, dataset, rng=seed)
        gateway = ServingGateway(server, max_queue=4096, max_batch_size=8,
                                 auto_drain=False)
        _, admitted, elapsed = await _run_rounds(gateway, episodes, rounds,
                                                 per_round)
        if len(admitted) != queries * NUM_SESSIONS:
            raise RuntimeError("equivalence phase must admit everything")
        _require_direct_identity(model, dataset, episodes, admitted, seed)
        tenant_rows("equivalence", gateway.stats,
                    len(admitted) / elapsed)
        data["phases"]["equivalence"]["identical"] = True
        await gateway.close()

        # ------------------------------------------------------------------
        # Phase B: 2× overload — bounded interactive latency, typed sheds.
        # ------------------------------------------------------------------
        # Each round offers rounds × per_round × sessions requests against
        # an admission queue sized to half of that: 2×-capacity overload.
        max_queue = max(NUM_SESSIONS * per_round // 2, 4)
        server = PromptServer(model, dataset, rng=seed)
        gateway = ServingGateway(server, max_queue=max_queue,
                                 max_batch_size=8, auto_drain=False)
        interactive_budget_s = gateway.deadlines[Priority.INTERACTIVE]
        _, admitted, elapsed = await _run_rounds(gateway, episodes, rounds,
                                                 per_round)
        stats = gateway.stats
        _require_direct_identity(model, dataset, episodes, admitted, seed)

        interactive = [t for t in stats.tenants
                       if t.priority == Priority.INTERACTIVE]
        lower = [t for t in stats.tenants
                 if t.priority != Priority.INTERACTIVE]
        if any(t.shed for t in interactive):
            raise RuntimeError(
                "interactive traffic was shed under 2x overload — lower "
                "classes must absorb the shedding first")
        if not any(t.shed for t in lower):
            raise RuntimeError(
                "2x overload shed nothing — admission bound not binding")
        worst_wait = max(t.wait_p95_s for t in interactive)
        if worst_wait > interactive_budget_s:
            raise RuntimeError(
                f"interactive p95 queue wait {worst_wait * 1e3:.1f}ms "
                f"exceeded the {interactive_budget_s * 1e3:.0f}ms deadline "
                f"budget under overload — priority drain failed to bound "
                f"latency")
        # Per-reason shed breakdown, straight from the tenant ledgers.
        shed_reasons = {
            SHED_QUOTA_EXHAUSTED: sum(t.shed_quota for t in stats.tenants),
            SHED_RATE_LIMITED: sum(t.shed_rate_limited for t in stats.tenants),
            SHED_QUEUE_FULL: sum(t.shed_queue_full for t in stats.tenants),
        }
        shed_total = sum(t.shed for t in stats.tenants)
        tenant_rows("2x-overload", stats, len(admitted) / elapsed)
        data["phases"]["2x-overload"].update({
            "identical": True, "max_queue": max_queue,
            "offered": queries * NUM_SESSIONS,
            "admitted": len(admitted),
            "interactive_wait_p95_s": worst_wait,
            "interactive_budget_s": interactive_budget_s,
            "shed_total": shed_total,
            "shed_reasons": shed_reasons,
        })
        await gateway.close()

    asyncio.run(run())
    shed = data["phases"]["2x-overload"]["shed_total"]
    offered = data["phases"]["2x-overload"]["offered"]
    rows.append(["2x-overload", "(total)", "-", offered,
                 data["phases"]["2x-overload"]["admitted"], shed, "-", "-",
                 "identical: yes"])
    breakdown = data["phases"]["2x-overload"]["shed_reasons"]
    rows.append(["2x-overload", "(shed reasons)", "-", "-", "-", shed,
                 "-", "-",
                 " ".join(f"{reason}={count}"
                          for reason, count in breakdown.items())])
    return TableResult(
        title=(f"serve-bench-gateway: {len(TENANT_MIX)} tenants / "
               f"{NUM_SESSIONS} sessions × "
               f"{rounds * per_round} queries, {num_ways}-way {target}"),
        headers=headers, rows=rows, data=data)


def serve_gateway_demo(context: ExperimentContext,
                       source: str = "wiki", target: str = "nell",
                       num_ways: int = 5, seed: int = 0) -> TableResult:
    """CLI demo: rate-limited mixed-tenant traffic through the gateway."""
    model, dataset = served_model(context, source, target)
    rounds = 2
    per_round = 2 if context.fast else 4
    queries = rounds * per_round
    episodes = sample_episodes(dataset, NUM_SESSIONS, num_ways, queries,
                               seed * 1000)

    async def run():
        server = PromptServer(model, dataset, rng=seed)
        # A tight per-tenant burst allowance: a tenant may burst roughly
        # a round's worth of queries, then its bucket has to refill — so
        # the two-session tenants overrun their rate and collect typed
        # rate-limited sheds while the single-session tenant stays under.
        gateway = ServingGateway(server, max_batch_size=8,
                                 tenant_rate_qps=50.0,
                                 tenant_burst=float(2 * per_round + 1),
                                 auto_drain=False)
        outcomes, admitted, elapsed = await _run_rounds(
            gateway, episodes, rounds, per_round)
        stats = gateway.stats
        await gateway.close()
        return outcomes, admitted, elapsed, stats

    outcomes, admitted, elapsed, stats = asyncio.run(run())
    headers = ["Tenant", "Class", "Submitted", "Admitted", "Shed",
               "Shed rate", "QPS", "p50 ms", "p95 ms", "Miss"]
    rows = []
    data = {"tenants": {}, "admitted": len(admitted),
            "elapsed_s": elapsed}
    for tenant in stats.tenants:
        rows.append([
            tenant.tenant_id, tenant.priority.name.lower(),
            tenant.submitted, tenant.admitted, tenant.shed,
            f"{100.0 * tenant.shed_rate:.0f}%", f"{tenant.qps:.1f}",
            f"{1000.0 * tenant.wait_p50_s:.2f}",
            f"{1000.0 * tenant.wait_p95_s:.2f}",
            tenant.deadline_misses])
        data["tenants"][tenant.tenant_id] = {
            "priority": tenant.priority.name,
            "submitted": tenant.submitted,
            "admitted": tenant.admitted, "shed": tenant.shed,
            "qps": tenant.qps, "wait_p95_s": tenant.wait_p95_s,
            "deadline_misses": tenant.deadline_misses,
        }
    shed_kinds = sorted({outcome.reason for _, outcome in outcomes
                         if isinstance(outcome, Overloaded)})
    rows.append(["(total)", "-", len(outcomes), len(admitted),
                 len(outcomes) - len(admitted),
                 "reasons: " + (", ".join(shed_kinds) or "none"),
                 f"{len(admitted) / elapsed:.1f}", "-", "-", "-"])
    return TableResult(
        title=(f"serve-gateway: {len(TENANT_MIX)} tenants, "
               f"{queries} queries/session, rate-limited demo"),
        headers=headers, rows=rows, data=data)
