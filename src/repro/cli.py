"""Command-line entry point: ``python -m repro <experiment> [options]``.

Runs any of the paper's tables/figures (or the design-choice ablations)
from the shell and prints the reproduced table::

    python -m repro table4
    python -m repro fig5 --fast
    python -m repro all --fast
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import (
    ExperimentContext,
    ablation_cache_policy,
    ablation_knn_metric,
    ablation_recon_scorer,
    serve_bench,
    serve_bench_gateway,
    serve_bench_mutating,
    serve_bench_recovery,
    serve_gateway_demo,
    fig3_ablation,
    fig4_gnn_architectures,
    fig5_cache_size,
    fig6_shots_sweep,
    fig7_embedding_distribution,
    fig8_multi_hop,
    fig9_training_curves,
    table2_dataset_statistics,
    table3_arxiv,
    table4_kg,
    table5_many_ways,
    table6_ofa_comparison,
    table7_random_pseudo_labels,
    table8_inference_time,
)

EXPERIMENTS = {
    "table2": (table2_dataset_statistics, "dataset statistics"),
    "table3": (table3_arxiv, "arXiv node classification vs ways"),
    "table4": (table4_kg, "KG edge classification (CN/FB/NELL)"),
    "table5": (table5_many_ways, "50-100-way episodes"),
    "table6": (table6_ofa_comparison, "OFA comparison"),
    "table7": (table7_random_pseudo_labels, "random pseudo-labels"),
    "table8": (table8_inference_time, "per-query inference time"),
    "fig3": (fig3_ablation, "stage ablations"),
    "fig4": (fig4_gnn_architectures, "GAT vs GraphSAGE"),
    "fig5": (fig5_cache_size, "cache-size sweep"),
    "fig6": (fig6_shots_sweep, "shots sweep"),
    "fig7": (fig7_embedding_distribution, "embedding cluster tightness"),
    "fig8": (fig8_multi_hop, "multi-hop subgraphs"),
    "fig9": (fig9_training_curves, "pre-training convergence"),
    "ablation-knn": (ablation_knn_metric, "retrieval metric sweep"),
    "ablation-cache": (ablation_cache_policy, "cache policy sweep"),
    "ablation-recon": (ablation_recon_scorer, "reconstruction scorer sweep"),
    "serve-bench": (serve_bench, "online serving micro-batch throughput"),
    "serve-bench-mutating": (serve_bench_mutating,
                             "live-mutation serving + cold-rebuild equality"),
    "serve-bench-recovery": (serve_bench_recovery,
                             "crash/recovery differential + replica failover"),
    "serve-bench-gateway": (serve_bench_gateway,
                            "multi-tenant gateway QoS + equivalence bench"),
    "serve-gateway": (serve_gateway_demo,
                      "async multi-tenant gateway demo driver"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GraphPrompter reproduction — experiment runner",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'list', 'metrics', "
             "or 'serve-bench-scenarios'",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="smoke-test scale (seconds instead of minutes per experiment)",
    )
    parser.add_argument(
        "--pretrain-steps", type=int, default=400,
        help="pre-training steps for the cached GraphPrompter weights",
    )
    parser.add_argument(
        "--no-disk-cache", action="store_true",
        help="do not read/write .cache/repro-artifacts",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "metrics":
        # Observability driver (own flags, see 'repro metrics -h'): runs
        # an instrumented burst and prints Prometheus text exposition.
        from .obs.cli import metrics_main

        return metrics_main(argv[1:])
    if argv and argv[0] == "serve-bench-scenarios":
        # Workload scenario matrix (own flags: --scenarios/--baseline/
        # --prom-dir/...): generated traces, SLO verdicts, per-scenario
        # regression gates against BENCH_scenarios.json.
        from .experiments.scenarios import scenarios_main

        return scenarios_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        entries = dict(EXPERIMENTS)
        entries["metrics"] = (None,
                              "instrumented burst -> Prometheus exposition")
        entries["serve-bench-scenarios"] = (
            None, "workload scenario matrix + SLO verdicts + gates")
        width = max(len(name) for name in entries)
        for name in sorted(entries):
            print(f"  {name:<{width}}  {entries[name][1]}")
        return 0

    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: {', '.join(sorted(EXPERIMENTS))} | all | list",
              file=sys.stderr)
        return 2

    context = ExperimentContext(
        pretrain_steps=args.pretrain_steps,
        fast=args.fast,
        use_disk_cache=not args.no_disk_cache,
    )
    timings: list[tuple[str, float, str]] = []
    failed = False
    for name in names:
        runner, _ = EXPERIMENTS[name]
        start = time.perf_counter()
        try:
            result = runner(context)
        except Exception as error:  # keep going: report all failures at once
            elapsed = time.perf_counter() - start
            timings.append((name, elapsed, "FAILED"))
            failed = True
            print(f"[{name} FAILED after {elapsed:.1f}s: "
                  f"{type(error).__name__}: {error}]\n", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - start
        timings.append((name, elapsed, "ok"))
        print(result)
        print(f"[{name} finished in {elapsed:.1f}s]\n")

    if len(names) > 1:
        from .viz import format_table

        rows = [[name, f"{elapsed:.1f}", status]
                for name, elapsed, status in timings]
        rows.append(["total", f"{sum(t for _, t, _ in timings):.1f}",
                     "FAILED" if failed else "ok"])
        print(format_table(["Experiment", "Seconds", "Status"], rows,
                           title="Wall-clock summary"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
