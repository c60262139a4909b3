"""Performance-regression harness for the inference hot paths.

This subsystem pins the repo's perf trajectory the way the test suite pins
behaviour: :mod:`repro.perf.hotpaths` defines paired microbenchmarks
(per-query vs. micro-batched serving QPS, plus the mutation and gateway
profiles), :mod:`repro.perf.microbench` provides the calibrated
best-of-N timer, and ``repro bench`` (:func:`bench_main`) runs
everything, writes ``BENCH_hotpaths.json``, and — given ``--baseline`` —
fails when any speedup ratio regresses beyond the tolerance, or when a
baseline row it gates is no longer produced.

Baselines are **per profile**: the committed JSON holds one section per
workload profile that was run, and a regression check only ever compares a
profile against its own section (quick vs. quick in CI) — ratios shift
with workload scale, so cross-profile comparison would be meaningless.

Usage::

    python -m repro bench                  # full + quick → BENCH_hotpaths.json
    python -m repro bench --quick          # CI-scale profile only
    python -m repro bench --quick --baseline BENCH_hotpaths.json
    python -m repro bench --profile mutate --floor mutation_sampling_bfs=0.8

``--floor NAME=VALUE`` gates a benchmark's speedup ratio against an
absolute minimum: unlike ``--baseline`` (which tracks whatever numbers
were last recorded) a floor cannot drift downward when the baseline is
regenerated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .hotpaths import PROFILES, check_regression, run_benchmarks
from .microbench import Measurement, time_callable

__all__ = [
    "PROFILES",
    "run_benchmarks",
    "check_regression",
    "time_callable",
    "Measurement",
    "bench_main",
]

#: Written to / expected in the baseline JSON.
BASELINE_SCHEMA = 2


def _format_results(results: dict) -> str:
    from ..viz import format_table

    rows = []
    for name, cells in results["benchmarks"].items():
        keys = [k for k in cells if k.endswith("_s")]
        qps_keys = [k for k in cells if k.startswith("qps_")]
        if keys:  # microbenchmark pair: per-call seconds
            detail = ", ".join(f"{k[:-2]} {cells[k] * 1e6:.0f}us"
                               for k in keys)
        else:  # serving: QPS pair
            detail = ("qps " + " -> ".join(f"{cells[k]:.1f}"
                                           for k in qps_keys))
        speedup = (f"{cells['speedup']:.2f}x" if "speedup" in cells
                   else "-")
        rows.append([name, speedup, detail])
    return format_table(
        ["Benchmark", "Speedup", "Detail"], rows,
        title=f"Hot-path microbenchmarks ({results['profile']} profile)")


def baseline_profile_section(baseline: dict, profile: str) -> dict | None:
    """The baseline entry matching ``profile``, or ``None``.

    Accepts both the schema-2 layout (``{"profiles": {name: {...}}}``) and
    a bare single-profile result dict whose ``"profile"`` field matches.
    """
    sections = baseline.get("profiles")
    if isinstance(sections, dict):
        return sections.get(profile)
    if baseline.get("profile") == profile:
        return baseline
    return None


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="hot-path microbenchmarks + perf-regression check",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run only the CI-scale profile (seconds instead of a minute)")
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=None,
        help="run exactly one workload profile (overrides --quick)")
    parser.add_argument(
        "--output", default="BENCH_hotpaths.json",
        help="where to write the results JSON (default: %(default)s)")
    parser.add_argument(
        "--no-write", action="store_true",
        help="print results without writing the JSON")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline JSON to compare against (same-profile sections); "
             "exit 1 on regression")
    parser.add_argument(
        "--tolerance", type=float, default=1.5,
        help="allowed speedup-ratio slack vs. the baseline "
             "(default: %(default)s)")
    parser.add_argument(
        "--floor", action="append", default=[], metavar="NAME=VALUE",
        help="absolute gate: require benchmark NAME's speedup ratio to "
             "stay at or above VALUE (repeatable); exit 1 when it does "
             "not — unlike --baseline this does not drift with the "
             "recorded numbers")
    return parser


def bench_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro bench``."""
    args = build_bench_parser().parse_args(argv)
    floors: dict[str, float] = {}
    for spec in args.floor:
        name, sep, value = spec.partition("=")
        try:
            if not sep:
                raise ValueError(spec)
            floors[name] = float(value)
        except ValueError:
            print(f"--floor expects NAME=VALUE, got {spec!r}",
                  file=sys.stderr)
            return 2
    if args.profile:
        profiles = [args.profile]
    elif args.quick:
        profiles = ["quick"]
    else:
        # Default run produces a baseline-ready file: every profile a
        # later --baseline check might be run under.
        profiles = ["full", "quick"]
    # Load the baseline BEFORE any write: with the default --output the
    # baseline may be the same file, and writing first would turn the
    # regression check into a self-comparison that can never fail.
    baseline = None
    if args.baseline is not None:
        with open(args.baseline) as handle:
            baseline = json.load(handle)

    results = {}
    for profile in profiles:
        results[profile] = run_benchmarks(profile)
        print(_format_results(results[profile]))

    write = not args.no_write
    if write and args.baseline is not None and (
            os.path.realpath(args.output) == os.path.realpath(args.baseline)):
        # Checking against a baseline must not clobber it (a partial run
        # would also drop the other profiles' sections).
        print(f"[not overwriting baseline {args.baseline}; "
              f"pass a different --output to record this run]")
        write = False
    if write:
        sections = {name: {"benchmarks": r["benchmarks"]}
                    for name, r in results.items()}
        # Merge with the sections already recorded in the output file —
        # running one profile (e.g. --profile mutate) must not drop the
        # others' committed baselines.
        if os.path.exists(args.output):
            try:
                with open(args.output) as handle:
                    existing = json.load(handle)
            except (OSError, ValueError):
                existing = {}
            previous = existing.get("profiles")
            if isinstance(previous, dict):
                sections = {**previous, **sections}
        payload = {
            "schema": BASELINE_SCHEMA,
            "profiles": sections,
        }
        # Atomic merge-write: an interrupted run must never leave a
        # truncated/half-written baseline behind — CI compares against
        # this file, so a torn write would fail every later check.
        from ..persist import atomic_write

        with atomic_write(args.output) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote {args.output}]")

    if baseline is not None:
        failures = []
        for name, result in results.items():
            section = baseline_profile_section(baseline, name)
            if section is None:
                failures.append(
                    f"{name}: baseline {args.baseline} has no section for "
                    f"this profile — regenerate it with 'repro bench'")
                continue
            failures.extend(
                f"[{name}] {failure}"
                for failure in check_regression(result, section,
                                                tolerance=args.tolerance))
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"[no perf regressions vs. {args.baseline} "
              f"(tolerance {args.tolerance:g}x)]")

    if floors:
        floor_failures = []
        for bench_name, minimum in floors.items():
            matched = False
            for profile, result in results.items():
                entry = result["benchmarks"].get(bench_name)
                if entry is None:
                    continue
                matched = True
                speedup = entry.get("speedup")
                if speedup is None or speedup < minimum:
                    shown = ("missing" if speedup is None
                             else f"{speedup:.3f}x")
                    floor_failures.append(
                        f"[{profile}] {bench_name}: speedup {shown} "
                        f"below floor {minimum:g}x")
            if not matched:
                floor_failures.append(
                    f"{bench_name}: no such benchmark in the profiles "
                    f"run — check the --floor name")
        if floor_failures:
            for failure in floor_failures:
                print(f"PERF FLOOR: {failure}", file=sys.stderr)
            return 1
        print(f"[all {len(floors)} perf floor(s) held]")
    return 0
