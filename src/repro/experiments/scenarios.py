"""serve-bench-scenarios — workload scenario matrix with SLO gates.

Not a paper artifact: this bench points the observability stack (PR 6)
at the traffic shapes that actually break a fleet — steady Poisson load,
Markov-modulated bursts, diurnal drift, and a hot-node flash crowd —
using the seeded generator in :mod:`repro.workload`, and judges each
scenario with the SLO engine in :mod:`repro.obs.slo`.

Replay is **deterministic by construction**, not by luck:

* Each scenario's trace comes from one seeded ``numpy`` Generator, so
  the event stream replays bit-identically (the baseline pins its
  SHA-256 fingerprint).
* The driver replays in *virtual-time ticks*: a tick's events are
  submitted back-to-back (``submit_nowait``), then the gateway flushes.
  Admission (quota → class occupancy → rate; no rate limits here) is a
  pure function of queue depth, so the admitted/shed split — and every
  admitted prediction — is identical run after run.  Every scenario is
  run **twice** and the two admitted-outcome fingerprints must match.
* SLO verdicts are computed from :class:`MetricsRegistry` snapshots
  captured at window boundaries — never from ad-hoc timers — with
  multi-window burn rates and per-stage attribution.

The ``burst`` scenario is deliberately overloaded (admission queue ≪
burst tick size): its contract is that the interactive class holds its
SLOs (zero shed, bounded p95 wait) while the batch/background classes
absorb the shedding — the bench *raises* if that inversion ever breaks.

``BENCH_scenarios.json`` pins per-scenario baselines (trace fingerprint,
admitted/shed split, SLO verdict) per ``fast``/``full`` profile, and
:func:`check_scenarios` gates against it on every host.  The recorded
timing fields (QPS, elapsed time, queue-wait quantiles) are not gated:
throughput is perfbench's claim, and a same-run ratio would gate noise.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

from ..obs import MetricsRegistry, collect, scrape
from ..obs.slo import (
    LatencyQuantileSLO,
    SLOSpec,
    counter_total,
    deadline_miss_slo,
    evaluate,
    histogram_quantile,
    render_report,
    shed_rate_slo,
)
from ..serving import Overloaded, Priority, PromptServer, ServingGateway
from ..workload import (
    DiurnalArrivals,
    FlashCrowdQueries,
    MarkovModulatedArrivals,
    PoissonArrivals,
    TenantSpec,
    WorkloadGenerator,
    WorkloadTrace,
    ZipfQueries,
    ZipfTenants,
)
from .common import ExperimentContext, TableResult
from .replay import replay_gateway, sample_episodes, served_model

__all__ = [
    "SCENARIOS",
    "Scenario",
    "build_slos",
    "run_scenario",
    "run_matrix",
    "check_scenarios",
    "scenarios_main",
]

BASELINE_SCHEMA = 1

PRIORITY_MAP = {
    "interactive": Priority.INTERACTIVE,
    "batch": Priority.BATCH,
    "background": Priority.BACKGROUND,
}

#: The fixed tenant mix every scenario replays (Zipf rank = declaration
#: order): ~50% interactive / ~29% batch / ~21% background traffic.
TENANTS = ZipfTenants((
    TenantSpec("acme-interactive", "interactive", 2),
    TenantSpec("globex-batch", "batch", 2),
    TenantSpec("initech-background", "background", 1),
), skew=0.8)


@dataclass(frozen=True)
class Scenario:
    """One matrix entry: a workload shape + its SLO budgets."""

    name: str
    description: str
    arrivals: object
    queries: object
    num_events_fast: int
    num_events_full: int
    #: Admission queue bound; large = ample (no shedding expected).
    max_queue: int = 4096
    #: Virtual-time replay tick (seconds of trace time per flush).
    tick_s: float = 0.25
    #: Snapshot windows for the burn-rate evaluation.
    windows: int = 4
    #: True = deliberately overloaded: lower classes MUST shed while
    #: interactive MUST NOT (the driver raises otherwise).
    expect_shedding: bool = False
    #: Query slots per session episode (node-popularity support).
    num_queries: int = 8
    #: SLO budgets at relax=1 (latency budgets scale with the relax
    #: factor; shed budgets are deterministic and never relax).
    budgets: dict = field(default_factory=dict)


_DEFAULT_BUDGETS = {
    "interactive_p95_s": 0.35,
    "overall_p95_s": 1.0,
    "miss_rate": 0.75,
    "shed_interactive": 0.0,
    "shed_batch": 0.0,
    "shed_background": 0.0,
}


SCENARIOS = {
    "steady": Scenario(
        name="steady",
        description="Poisson steady-state at ~40 qps, ample queue",
        arrivals=PoissonArrivals(rate_qps=40.0),
        queries=ZipfQueries(skew=1.0),
        num_events_fast=70, num_events_full=220,
    ),
    "burst": Scenario(
        name="burst",
        description=("Markov-modulated bursts (15→240 qps) against a "
                     "small admission queue — deliberate overload"),
        arrivals=MarkovModulatedArrivals(base_qps=15.0, burst_qps=240.0,
                                         p_enter=0.06, p_exit=0.045),
        queries=ZipfQueries(skew=1.0),
        num_events_fast=90, num_events_full=280,
        max_queue=40, expect_shedding=True,
        budgets={"shed_batch": 0.8, "shed_background": 0.95},
    ),
    "drift": Scenario(
        name="drift",
        description="diurnal drift: ±60% sinusoidal rate over a 2s 'day'",
        arrivals=DiurnalArrivals(base_qps=35.0, amplitude=0.6,
                                 period_s=2.0),
        queries=ZipfQueries(skew=1.0),
        num_events_fast=80, num_events_full=240,
    ),
    "flash-crowd": Scenario(
        name="flash-crowd",
        description=("hot-node flash crowd: 90% of mid-trace traffic "
                     "hits one seed node"),
        arrivals=PoissonArrivals(rate_qps=50.0),
        queries=FlashCrowdQueries(base=ZipfQueries(skew=1.1),
                                  window=(0.4, 1.2), hot_query=0,
                                  hot_weight=0.9),
        num_events_fast=80, num_events_full=240,
    ),
}


def build_slos(scenario: Scenario, relax: float = 1.0) -> SLOSpec:
    """The scenario's objective set, latency budgets scaled by ``relax``.

    ``relax`` absorbs host-speed variance (CI boxes): latency and miss
    budgets stretch, the *deterministic* shed budgets do not — the
    interactive-never-shed contract has teeth on any host.
    """
    budgets = {**_DEFAULT_BUDGETS, **scenario.budgets}
    objectives = (
        LatencyQuantileSLO(
            name="interactive-p95",
            threshold_s=budgets["interactive_p95_s"] * relax,
            quantile=0.95, priority="interactive"),
        LatencyQuantileSLO(
            name="overall-p95",
            threshold_s=budgets["overall_p95_s"] * relax,
            quantile=0.95),
        shed_rate_slo("interactive", budgets["shed_interactive"]),
        shed_rate_slo("batch", budgets["shed_batch"]),
        shed_rate_slo("background", budgets["shed_background"]),
        deadline_miss_slo(min(budgets["miss_rate"] * relax, 1.0)),
    )
    return SLOSpec(name=scenario.name, objectives=objectives)


def _build_trace(scenario: Scenario, seed: int, fast: bool) -> WorkloadTrace:
    num_events = (scenario.num_events_fast if fast
                  else scenario.num_events_full)
    generator = WorkloadGenerator(scenario.arrivals, TENANTS,
                                  queries=scenario.queries,
                                  num_queries=scenario.num_queries,
                                  seed=seed)
    return WorkloadTrace(generator.take(num_events))


def _outcome_token(index: int, key: tuple, outcome) -> str:
    """Canonical per-event line for the admitted-outcome fingerprint."""
    if isinstance(outcome, Overloaded):
        status = f"shed:{outcome.reason}"
    elif outcome.ok:
        status = f"ok:{outcome.prediction}"
    else:
        status = "error"
    session, query = key
    return f"{index}|{session}|{query}|{status}"


async def _drive(gateway: ServingGateway, trace: WorkloadTrace,
                 episodes: dict, scenario: Scenario,
                 registry: MetricsRegistry):
    """Replay the trace in virtual-time ticks; snapshot at window edges.

    Each snapshot is taken right after :func:`~repro.obs.collect`, so it
    holds the tenant ledgers' counts as of that edge.  Returns
    ``(outcomes, snapshots, elapsed_s)`` — outcomes as
    ``((session, query), Overloaded | GatewayResult)`` pairs in
    submission order.
    """
    last_tick = int(trace.duration_s / scenario.tick_s)
    window_every = max(1, math.ceil((last_tick + 1) / scenario.windows))
    next_boundary = window_every

    def snapshot() -> dict:
        return collect(gateway, registry).snapshot()

    snapshots = [snapshot()]
    numbered = list(trace.ticks(scenario.tick_s))

    def snapshot_windows(index: int) -> None:
        nonlocal next_boundary
        while numbered[index][0] + 1 >= next_boundary:
            snapshots.append(snapshot())
            next_boundary += window_every

    outcomes, elapsed = await replay_gateway(
        gateway, episodes,
        [[(event.session, event.query) for event in events]
         for _, events in numbered],
        after_tick=snapshot_windows)
    # Final boundary: the last window closes at end-of-trace (a window
    # that happens to be empty just burns at zero).
    snapshots.append(snapshot())
    return outcomes, snapshots, elapsed


def _one_run(model, dataset, scenario: Scenario, seed: int, fast: bool,
             relax: float) -> dict:
    """One full scenario pass on a cold server + private registry."""
    trace = _build_trace(scenario, seed, fast)
    registry = MetricsRegistry()
    server = PromptServer(model, dataset, max_batch_size=8, rng=seed,
                          registry=registry)
    gateway = ServingGateway(server, max_queue=scenario.max_queue,
                             max_batch_size=8, auto_drain=False,
                             registry=registry)
    plan = trace.sessions()
    sampled = sample_episodes(dataset, len(plan), 5, scenario.num_queries,
                              seed * 1000)
    episodes = {}
    for (tenant, priority, session), episode in zip(plan, sampled.values()):
        episodes[session] = episode
        gateway.open_session(tenant, session, episode,
                             priority=PRIORITY_MAP[priority])

    async def run():
        try:
            return await _drive(gateway, trace, episodes, scenario,
                                registry)
        finally:
            await gateway.close()

    outcomes, snapshots, elapsed = asyncio.run(run())

    digest = hashlib.sha256()
    for index, (key, outcome) in enumerate(outcomes):
        digest.update(_outcome_token(index, key, outcome).encode())
        digest.update(b"\n")
    final = snapshots[-1]
    verdict = evaluate(build_slos(scenario, relax), snapshots)
    admitted = int(counter_total(final, "repro_gateway_admitted_total"))
    shed = {cls: int(counter_total(final, "repro_gateway_shed_total",
                                   {"priority": cls}))
            for cls in PRIORITY_MAP}
    prom = scrape(gateway, registry)
    return {
        "trace": trace,
        "fingerprint": trace.fingerprint(),
        "admitted_fingerprint": digest.hexdigest(),
        "offered": len(outcomes),
        "admitted": admitted,
        "shed": shed,
        "elapsed_s": elapsed,
        "qps": admitted / elapsed if elapsed > 0 else 0.0,
        "wait_p50_s": histogram_quantile(
            final, "repro_gateway_queue_wait_seconds", 0.5),
        "wait_p95_s": histogram_quantile(
            final, "repro_gateway_queue_wait_seconds", 0.95),
        "interactive_wait_p95_s": histogram_quantile(
            final, "repro_gateway_queue_wait_seconds", 0.95,
            {"priority": "interactive"}),
        "verdict": verdict,
        "prom": prom,
    }


def run_scenario(model, dataset, scenario: Scenario, seed: int = 0,
                 fast: bool = False, relax: float = 1.0) -> dict:
    """Run one scenario twice; prove replay identity; report the result.

    Raises when the two same-seed runs diverge (trace bytes or admitted
    outcomes — predictions included), or when the overload contract
    breaks (interactive shed, or an overloaded scenario that shed
    nothing).
    """
    first = _one_run(model, dataset, scenario, seed, fast, relax)
    second = _one_run(model, dataset, scenario, seed, fast, relax)
    if first["fingerprint"] != second["fingerprint"]:
        raise RuntimeError(
            f"{scenario.name}: same-seed trace generation diverged — the "
            f"workload generator must be a pure function of its seed")
    if first["admitted_fingerprint"] != second["admitted_fingerprint"]:
        raise RuntimeError(
            f"{scenario.name}: same-seed replay diverged (admitted set or "
            f"predictions) — admission must be a pure function of the "
            f"trace")
    if first["shed"]["interactive"]:
        raise RuntimeError(
            f"{scenario.name}: interactive traffic was shed "
            f"({first['shed']['interactive']} requests) — lower classes "
            f"must absorb all shedding")
    lower_shed = first["shed"]["batch"] + first["shed"]["background"]
    if scenario.expect_shedding and not lower_shed:
        raise RuntimeError(
            f"{scenario.name}: deliberately-overloaded scenario shed "
            f"nothing — the admission bound is not binding")
    if not scenario.expect_shedding and lower_shed:
        raise RuntimeError(
            f"{scenario.name}: unexpected shedding ({lower_shed} "
            f"requests) in an ample-queue scenario")
    # Keep run 2 (warm caches) for timing; determinism is already proven.
    result = second
    result["runs"] = 2
    result["deterministic"] = True
    return result


def _baseline_entry(scenario: Scenario, result: dict,
                    relax: float) -> dict:
    verdict = result["verdict"]
    return {
        "description": scenario.description,
        "events": result["offered"],
        "admitted": result["admitted"],
        "shed": result["shed"],
        "qps": round(result["qps"], 2),
        "elapsed_s": round(result["elapsed_s"], 4),
        "wait_p50_ms": round(result["wait_p50_s"] * 1e3, 3),
        "wait_p95_ms": round(result["wait_p95_s"] * 1e3, 3),
        "interactive_wait_p95_ms": round(
            result["interactive_wait_p95_s"] * 1e3, 3),
        "slo_ok": verdict.ok,
        "burn_alerts": verdict.burn_alerts,
        "relax": relax,
        "trace_fingerprint": result["fingerprint"],
        "admitted_fingerprint": result["admitted_fingerprint"],
    }


def run_matrix(context: ExperimentContext, names: list[str] | None = None,
               seed: int = 0, relax: float | None = None,
               source: str = "wiki", target: str = "nell"):
    """Run the scenario matrix; returns (entries, verdicts, proms, table)."""
    if relax is None:
        relax = 6.0 if context.fast else 2.0
    names = list(SCENARIOS) if names is None else names
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s) {unknown}; "
                         f"known: {', '.join(SCENARIOS)}")
    model, dataset = served_model(context, source, target)

    entries: dict[str, dict] = {}
    verdicts = []
    proms: dict[str, str] = {}
    headers = ["Scenario", "Events", "Admitted", "Shed i/b/g", "QPS",
               "int p95 ms", "SLO", "Alerts", "Deterministic"]
    rows: list[list] = []
    for name in names:
        scenario = SCENARIOS[name]
        result = run_scenario(model, dataset, scenario, seed=seed,
                              fast=context.fast, relax=relax)
        entries[name] = _baseline_entry(scenario, result, relax)
        verdicts.append(result["verdict"])
        proms[name] = result["prom"]
        shed = result["shed"]
        rows.append([
            name, result["offered"], result["admitted"],
            f"{shed['interactive']}/{shed['batch']}/{shed['background']}",
            f"{result['qps']:.1f}",
            f"{result['interactive_wait_p95_s'] * 1e3:.2f}",
            "ok" if result["verdict"].ok else "VIOLATED",
            result["verdict"].burn_alerts,
            "yes" if result["deterministic"] else "NO",
        ])
    table = TableResult(
        title=(f"serve-bench-scenarios: {len(names)} scenarios, "
               f"seed={seed}, relax={relax:g}, "
               f"{'fast' if context.fast else 'full'} profile"),
        headers=headers, rows=rows,
        data={"scenarios": entries})
    return entries, verdicts, proms, table


def check_scenarios(current: dict, baseline: dict) -> list[str]:
    """Per-scenario regression gates vs. a ``BENCH_scenarios.json`` section.

    Gated on every host: the trace fingerprint, the offered/admitted/shed
    counts, and the SLO verdict (a scenario whose baseline held its SLOs
    must hold them again).  Timing fields are recorded, never gated.
    """
    failures: list[str] = []
    for name, base in sorted(baseline.items()):
        now = current.get(name)
        if now is None:
            continue
        if now["trace_fingerprint"] != base["trace_fingerprint"]:
            failures.append(
                f"scenarios/{name}: trace fingerprint "
                f"{now['trace_fingerprint'][:12]} != baseline "
                f"{base['trace_fingerprint'][:12]} — the workload "
                f"generator's output changed; regenerate the baseline "
                f"if intentional")
        for field_name in ("events", "admitted"):
            if now[field_name] != base[field_name]:
                failures.append(
                    f"scenarios/{name}: {field_name} {now[field_name]} "
                    f"!= baseline {base[field_name]} — deterministic "
                    f"admission changed")
        if now["shed"] != base["shed"]:
            failures.append(
                f"scenarios/{name}: shed split {now['shed']} != "
                f"baseline {base['shed']} — deterministic shedding "
                f"changed")
        if base.get("slo_ok") and not now.get("slo_ok"):
            failures.append(
                f"scenarios/{name}: SLO verdict regressed to VIOLATED "
                f"(baseline passed)")
    return failures


# ----------------------------------------------------------------------
# CLI: python -m repro serve-bench-scenarios [...]
# ----------------------------------------------------------------------

def build_scenarios_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve-bench-scenarios",
        description=("workload scenario matrix: generated traces, SLO "
                     "verdicts, per-scenario regression gates"))
    parser.add_argument(
        "--scenarios", default=None,
        help="comma-separated subset (default: all of "
             f"{','.join(SCENARIOS)})")
    parser.add_argument("--fast", action="store_true",
                        help="smoke-test scale (CI legs)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload + serving seed (default 0)")
    parser.add_argument(
        "--relax", type=float, default=None,
        help="latency/miss budget multiplier for slow hosts "
             "(default: 6 with --fast, else 2; shed budgets never relax)")
    parser.add_argument("--pretrain-steps", type=int, default=400,
                        help="pre-training steps for the cached weights")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="do not read/write .cache/repro-artifacts")
    parser.add_argument(
        "--output", default="BENCH_scenarios.json",
        help="baseline file to merge results into (default: %(default)s)")
    parser.add_argument("--no-write", action="store_true",
                        help="do not update the baseline file")
    parser.add_argument(
        "--baseline", default=None,
        help="gate against this BENCH_scenarios.json (exit 1 on failure)")
    parser.add_argument(
        "--prom-dir", default=None,
        help="write per-scenario Prometheus snapshots into this directory")
    parser.add_argument(
        "--report", default=None,
        help="write the SLO verdict report to this file")
    return parser


def scenarios_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro serve-bench-scenarios``."""
    args = build_scenarios_parser().parse_args(argv)
    names = (args.scenarios.split(",") if args.scenarios
             else list(SCENARIOS))
    context = ExperimentContext(pretrain_steps=args.pretrain_steps,
                                fast=args.fast,
                                use_disk_cache=not args.no_disk_cache)
    entries, verdicts, proms, table = run_matrix(
        context, names, seed=args.seed, relax=args.relax)
    print(table)
    report = render_report(verdicts)
    print(report)

    profile = "fast" if args.fast else "full"
    if args.prom_dir:
        os.makedirs(args.prom_dir, exist_ok=True)
        for name, text in proms.items():
            path = os.path.join(args.prom_dir, f"{name}.prom")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        print(f"[wrote {len(proms)} snapshots to {args.prom_dir}/]")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"[wrote {args.report}]")

    if not args.no_write:
        sections: dict = {}
        if os.path.exists(args.output):
            with open(args.output, "r", encoding="utf-8") as handle:
                previous = json.load(handle).get("profiles", {})
            if isinstance(previous, dict):
                sections = previous
        merged = dict(sections.get(profile, {}).get("scenarios", {}))
        merged.update(entries)
        sections[profile] = {"scenarios": merged}
        payload = {"schema": BASELINE_SCHEMA, "profiles": sections}
        # Atomic merge-write: CI gates on this file, so an interrupted
        # run must never tear it.
        from ..persist import atomic_write

        with atomic_write(args.output) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote {args.output}]")

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        section = baseline.get("profiles", {}).get(profile, {})
        failures = check_scenarios(entries, section.get("scenarios", {}))
        if failures:
            print("SCENARIO REGRESSIONS vs baseline "
                  f"{args.baseline} [{profile}]:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"[all scenario gates passed vs {args.baseline} "
              f"({profile})]")
    return 0
