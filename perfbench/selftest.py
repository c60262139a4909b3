"""Self-test of the ledger: a slowed layer moves only its own row.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs the traced kg-serve benchmark twice on one seed: as is, then with a
fixed busy-wait inside every ``SPAN`` span (``run.py --inject-delay``).  It
passes when

* the slowed layer's row grew by the injected delay (within a quarter;
  the span runs once per answered query),
* every other self-time row stayed within a quarter (or 15 µs per query,
  whichever is larger) of its first value,
* the traced loop's throughput fell relative to the untraced one
  (``trace.overhead``), i.e. the delay reached the end-to-end numbers,

and exits non-zero otherwise.  Rows are not scaled to a reference host
speed, and a shared host's speed drifts between the two runs.  So the first
run's rows are rescaled by the drift before they are compared: the ratio of
the other rows' sums, which the delay does not touch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The traced run both passes make.
WORKLOAD, SEED, SECONDS = "kg-serve", 1, 8
#: The slowed layer (it runs once per answered query) and its delay.
SPAN, DELAY_US = "core.prompt_selector.select", 2000.0
#: How far a row may drift between the two runs: this share of its value
#: or the absolute floor below, whichever is larger.
REL_TOLERANCE = 0.25
ABS_TOLERANCE_US = 15.0


def _traced(extra: list[str]) -> dict:
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", WORKLOAD, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", "1", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}):\n{done.stdout}\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    plain = _traced([])
    slowed = _traced(["--inject-delay", f"{SPAN}={DELAY_US}"])
    target = f"{SPAN}_us"
    failures = []
    if target not in plain:
        failures.append(f"no ledger row {target}")
    rows = [name for name, metric in plain.items()
            if metric["unit"] == "us"]
    drift = (sum(slowed[name]["value"] for name in rows if name != target)
             / sum(plain[name]["value"] for name in rows if name != target))
    print(f"host drift between the runs (other rows' sum): x{drift:.3f}")
    print(f"{'row':40s} {'rescaled':>10s} {'slowed':>10s} {'change':>10s}")
    for name in rows:
        before = plain[name]["value"] * drift
        after = slowed[name]["value"]
        print(f"{name:40s} {before:10.1f} {after:10.1f} "
              f"{after - before:+10.1f}")
        if name == target:
            grown = after - before
            if abs(grown - DELAY_US) > REL_TOLERANCE * DELAY_US:
                failures.append(f"{name} grew {grown:.1f} us, expected "
                                f"{DELAY_US:.1f}")
        elif abs(after - before) > max(REL_TOLERANCE * before,
                                       ABS_TOLERANCE_US):
            failures.append(f"{name} moved {before:.1f} -> {after:.1f} us")
    overhead = ("trace.overhead", plain["trace.overhead"]["value"],
                slowed["trace.overhead"]["value"])
    print(f"{overhead[0]:40s} {overhead[1]:10.3f} {overhead[2]:10.3f}")
    if overhead[2] >= overhead[1]:
        failures.append("the delay did not lower traced throughput")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("PASS" if not failures else "self-test failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
