"""Serving cost ledger: one closed-loop serving workload, measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kg-serve --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the same workload untraced for half the time and then
with every layer wrapped in spans (:mod:`perfbench.ledger`) for the other
half, and prints the per-layer ledger: self time in µs per answered query,
plus the layers' counters.
Either way the run checks its outputs: the client's request counts equal
the program's own counters, every prediction lies in ``[0, ways)``, and the
predictions of the first rounds equal a ``max_batch_size=1`` replay of those
rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where a traced run writes its spans (ignored by git).
SPANS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 61


def _reset_peak_rss() -> None:
    """Forget the memory peak so far (Linux: ``clear_refs`` mode 5)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def _peak_rss_mb() -> float:
    """Peak resident memory since the last reset, in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-delay", action="append", default=[], metavar="SPAN=US",
        help="busy-wait US microseconds inside every SPAN span of the "
             "traced run (the benchmark self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # One thread: keep numpy's BLAS from spreading work over both cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Everything the run reads or writes stays inside this checkout.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(ROOT, ".cache",
                                                 "repro-artifacts")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import report, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    delays = {}
    for item in args.inject_delay:
        name, _, micros = item.partition("=")
        delays[name] = float(micros) * 1e-6

    workloads.ensure_weights()
    cores = workloads.CoreRotation()

    def timed_setup() -> tuple[float, float]:
        """One set-up's seconds, and the host probe taken just before it."""
        cores.step()
        try:
            probe_s = workloads.host_probe()
            return workloads.setup(workload).setup_s, probe_s
        finally:
            cores.restore()

    # Half the set-ups run before the measured loop and half after it, so
    # their median spans two moments of the host's speed.
    setup_times = [timed_setup() for _ in range(SETUP_REPEATS // 2)]
    # peak_rss_mb is the served stack's and its loop's memory alone: not a
    # cold checkout's pre-training, the other set-ups or the replay.
    _reset_peak_rss()
    served = workloads.setup(workload)
    inputs = workloads.make_inputs(workload, served.dataset, args.seed)

    # A traced run splits its time between an untraced and a traced loop;
    # their throughput ratio is the tracing overhead.
    seconds = args.seconds / 2 if args.trace else args.seconds
    outcome = workloads.run_drive(workload, served, inputs, seconds=seconds)
    peak_rss_mb = _peak_rss_mb()
    traced = ledger = None
    if args.trace:
        from perfbench.ledger import Ledger
        from perfbench.layers import install

        served = workloads.setup(workload)
        ledger = Ledger(delays)
        install(ledger)
        try:
            traced = workloads.run_drive(workload, served, inputs,
                                         seconds=seconds, ledger=ledger)
        finally:
            ledger.restore()
        os.makedirs(SPANS_DIR, exist_ok=True)
        ledger.write(os.path.join(
            SPANS_DIR, f"spans-{workload.name}-seed{args.seed}.tsv"))
    setup_times += [timed_setup()
                    for _ in range(SETUP_REPEATS - len(setup_times))]

    replay = workloads.run_drive(
        workload, workloads.setup(workload, max_batch_size=1), inputs,
        rounds=workload.prefix_rounds)

    problems = report.check(workload, outcome, replay, traced)
    runs = [outcome] + ([traced] if traced is not None else [])
    report.print_accounting(workload, runs, replay)
    for problem in problems:
        print(f"INCORRECT: {problem}")
    if args.trace:
        metrics = report.per_layer(outcome, traced, ledger)
        report.print_ledger(ledger, traced)
    else:
        measured = report.end_to_end(
            outcome, statistics.median(s for s, _ in setup_times),
            peak_rss_mb)
        metrics = report.end_to_end(
            outcome, statistics.median(s * report.host_scale([p])
                                       for s, p in setup_times),
            peak_rss_mb, at_reference=True)
        probe_ms = statistics.median(outcome.probes_s) * 1e3
        print(f"{workload.name} as measured (host probe {probe_ms:.2f} ms, "
              f"reference "
              f"{report.REFERENCE_PROBE_S * 1e3:.2f} ms): " + ", ".join(
                  f"{name}={m['value']:.4g}" for name, m in measured.items())
              + f", latency_p95_ms={report.tail_ms(outcome):.4g}")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    started = time.perf_counter()
    status = main()
    print(f"perfbench: finished in {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    sys.exit(status)
