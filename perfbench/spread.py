"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload kg-serve --seeds 1-10 --seconds 15

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric its median and the distance between its first and third
quartiles as a share of the median (``statistics.quantiles(n=4)``), next
to the bound ``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to BENCHMARK.json's run_seconds")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in _seeds(args.seeds):
        command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failures += 1
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()),
            flush=True)

    print(f"{'metric':40s} {'median':>12s} {'IQR/median':>11s} {'bound':>6s}")
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print(f"{name:40s} {median:12.5g} {spread:11.4f} "
              f"{bound if bound is not None else '-':>6}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
