"""Correctness checks and the metrics a run prints."""

from __future__ import annotations

import statistics

import numpy as np

__all__ = ["LEDGER_ROWS", "REFERENCE_PROBE_S", "check", "end_to_end",
           "host_scale", "per_layer", "print_accounting", "print_ledger",
           "tail_ms"]

#: Seconds :func:`~perfbench.workloads.host_probe` takes on the reference
#: host.  A shared host's speed can drift by a quarter within minutes, so
#: the end-to-end timings are reported as if the run had the reference speed.
REFERENCE_PROBE_S = 0.003

#: Per-layer self-time rows: (metric name, span name).
LEDGER_ROWS = (
    ("graph.subgraph.induce_us", "graph.subgraph.induce"),
    ("graph.sampling.sample_us", "graph.sampling.sample"),
    ("core.prompt_generator.dispatch_us", "core.prompt_generator.dispatch"),
    ("gnn.batch.assemble_us", "gnn.batch.assemble"),
    ("core.model.forward_us", "core.model.forward"),
    ("core.model.importance_us", "core.model.importance"),
    ("core.prompt_selector.select_us", "core.prompt_selector.select"),
    ("core.model.task_gnn_us", "core.model.task_gnn"),
    ("core.prompt_augmenter.augment_us", "core.prompt_augmenter.augment"),
    ("core.inference.predict_us", "core.inference.predict"),
    ("serving.admit_us", "serving.admit"),
    ("serving.dispatch_us", "serving.dispatch"),
    ("serving.server.step_us", "serving.server.step"),
    ("serving.server.update_us", "serving.server.update"),
    ("serving.session.open_us", "serving.session.open"),
)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ms(samples_s: list, q: float) -> float:
    return float(np.percentile(samples_s, q)) * 1e3 if samples_s else 0.0


def host_scale(probes_s: list) -> float:
    """Factor turning times taken at these probes into reference times."""
    return REFERENCE_PROBE_S / statistics.median(probes_s)


def _at_reference(phase, probes_s: list) -> list:
    """A phase's latencies at reference speed.

    Each sample is scaled by the probes of the five rounds around its own,
    so a slow spell of the host scales the samples it slowed.
    """
    return [latency * host_scale(probes_s[max(r - 2, 0):r + 3])
            for latency, r in zip(phase.latencies_s, phase.rounds)]


def _accounting(run) -> list[str]:
    """Where the client's counts disagree with the program's own counters.

    The server counts answered queries, opened sessions and applied
    updates; the gateway's tenant ledgers count queries submitted, admitted,
    shed and completed.  A query the program dropped or answered twice shows
    here, whatever the client counted.
    """
    stats = run.stats
    pairs = [("answered queries", run.queries.succeeded, stats.queries),
             ("opened sessions", run.opens.succeeded, stats.sessions_opened),
             ("applied updates", run.updates.succeeded, stats.graph_updates)]
    if stats.tenants:
        pairs += [
            ("gateway submitted", run.queries.sent,
             sum(t.submitted for t in stats.tenants)),
            ("gateway admitted + shed", run.queries.sent,
             sum(t.admitted + t.shed for t in stats.tenants)),
            ("gateway completed", run.queries.succeeded,
             sum(t.completed for t in stats.tenants))]
    return [f"{name}: client counted {client}, program {program}"
            for name, client, program in pairs if client != program]


def check(workload, outcome, replay, traced=None) -> list[str]:
    """Every way the run's outputs are wrong; empty when correct."""
    problems = []
    runs = {"untraced": outcome, "replay": replay}
    if traced is not None:
        runs["traced"] = traced
    for label, run in runs.items():
        problems += [f"{label}: {problem}" for problem in _accounting(run)]
        if run.out_of_range:
            problems.append(f"{label}: {run.out_of_range} predictions "
                            f"outside [0, {workload.num_ways})")
    if replay.failed:
        problems.append(f"replay: {replay.failed} operations failed")
    # Batch invariance: the served prefix equals a batch-of-1 replay.
    for label, run in runs.items():
        if label == "replay":
            continue
        expected = [entry for entry in replay.prefix
                    if entry[0] < run.rounds]
        if run.prefix != expected:
            problems.append(
                f"{label}: prefix predictions differ from the "
                f"max_batch_size=1 replay ({len(run.prefix)} vs "
                f"{len(expected)} answers)")
    return problems


def end_to_end(outcome, setup_s: float, peak_rss_mb: float,
               at_reference: bool = False) -> dict:
    """The metrics a user of the served system sees (untraced run).

    ``at_reference`` scales the loop's latencies round by round and its
    rate by the run's median probe; ``setup_s`` is taken as given.
    """
    queries = outcome.queries
    latencies, opens = queries.latencies_s, outcome.opens.latencies_s
    qps = queries.succeeded / outcome.wall_s
    if at_reference:
        latencies = _at_reference(queries, outcome.probes_s)
        opens = _at_reference(outcome.opens, outcome.probes_s)
        qps = _reference_qps(outcome)
    return {
        "setup_s": _metric(setup_s, "s"),
        "qps": _metric(qps, "1/s"),
        "latency_p50_ms": _metric(_ms(latencies, 50), "ms"),
        "session_open_p50_ms": _metric(_ms(opens, 50), "ms"),
        "accuracy": _metric(outcome.correct / max(queries.succeeded, 1),
                            "fraction"),
        "answered_frac": _metric(queries.succeeded / max(queries.sent, 1),
                                 "fraction"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _reference_qps(run) -> float:
    return run.queries.succeeded / run.wall_s / host_scale(run.probes_s)


def tail_ms(outcome) -> float:
    """p95 query latency as measured, in ms (printed, not gated)."""
    return _ms(outcome.queries.latencies_s, 95)


def per_layer(untraced, traced, ledger) -> dict:
    """The ledger: µs of self time per answered query, plus counters."""
    answered = max(traced.queries.succeeded, 1)
    stats = traced.stats
    self_s = ledger.self_seconds()
    calls = ledger.calls()
    metrics = {name: _metric(self_s.get(span, 0.0) * 1e6 / answered, "us")
               for name, span in LEDGER_ROWS}
    updates = traced.updates.latencies_s
    metrics.update({
        "graph.sampling.subgraphs_per_query": _metric(
            calls.get("graph.sampling.sample", 0) / answered, "count"),
        "core.model.task_graph_nodes": _metric(
            ledger.counts["task_graph_nodes"]
            / max(calls.get("core.model.task_gnn", 0), 1), "count"),
        "core.prompt_augmenter.hit_rate": _metric(
            ledger.counts["augmented_queries"] / answered, "fraction"),
        "serving.scheduler.batch_size_mean": _metric(
            stats.mean_batch_size, "count"),
        "serving.scheduler.queue_wait_p50_ms": _metric(
            _ms(traced.queue_waits_s, 50), "ms"),
        "serving.server.update_p50_ms": _metric(_ms(updates, 50), "ms"),
        "serving.session.refreshes_per_update": _metric(
            stats.sessions_invalidated / max(stats.graph_updates, 1),
            "count"),
        "trace.coverage": _metric(sum(self_s.values()) / traced.wall_s,
                                  "fraction"),
        # Each loop's rate at reference speed, so the host's drift between
        # the two loops does not pass for tracing cost.
        "trace.overhead": _metric(
            _reference_qps(traced) / _reference_qps(untraced), "ratio"),
    })
    return metrics


def print_accounting(workload, runs, replay) -> None:
    """Requests sent, succeeded and failed per run and phase."""
    labels = ["untraced", "traced"][:len(runs)]
    for label, run in zip(labels + ["replay"], runs + [replay]):
        phases = ", ".join(
            f"{phase} {c.sent}/{c.succeeded}/{c.failed}"
            for phase, c in run.phases.items())
        print(f"{workload.name} {label}: {run.rounds} rounds in "
              f"{run.wall_s:.2f} s; sent/succeeded/failed: {phases}; "
              f"prefix fingerprint {run.fingerprint()}")


#: Where a layer's time is spent besides the query path.
_SCOPES = ("serving.session.open", "serving.server.update")


def print_ledger(ledger, traced) -> None:
    """Self µs per answered query by layer, split by where it was spent.

    ``query`` is the query path; ``open`` and ``update`` are the time the
    layer spent inside session opens and graph updates.
    """
    answered = max(traced.queries.succeeded, 1)
    totals = ledger.self_seconds()
    split = ledger.self_seconds(_SCOPES)
    calls = ledger.calls()
    print(f"{'span':32s} {'us/query':>9s} {'share':>6s} {'query':>9s} "
          f"{'open':>9s} {'update':>8s} {'calls':>7s}")
    for span, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        query, opened, updated = (
            split.get((scope, span), 0.0) * 1e6 / answered
            for scope in (None,) + _SCOPES)
        print(f"{span:32s} {seconds * 1e6 / answered:9.1f} "
              f"{seconds / traced.wall_s:6.1%} {query:9.1f} {opened:9.1f} "
              f"{updated:8.1f} {calls[span]:7d}")
    covered = sum(totals.values())
    print(f"{'sum of self time':32s} {covered * 1e6 / answered:9.1f} "
          f"{covered / traced.wall_s:6.1%}  (wall {traced.wall_s:.2f} s, "
          f"{traced.queries.succeeded} answered, median open "
          f"{statistics.median(traced.opens.latencies_s or [0]) * 1e3:.1f} ms)")
