"""Shared fixtures for the table/figure reproduction benchmarks.

The session-scoped :func:`ctx` fixture caches pre-trained artifacts on disk
(``.cache/repro-artifacts``), so the first benchmark run pays for
pre-training once and later runs start from the cached weights.

Each benchmark writes its reproduced table to ``benchmarks/results/`` and
prints it, so ``pytest benchmarks/ --benchmark-only -rA`` (or the saved
files) shows the paper-style rows next to the timing table.  A table of
wall-clock timings changes on every run, so it goes to the ignored
``.bench_build/results/`` instead and the tracked tree stays clean.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentContext

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
TIMED_RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".bench_build", "results")


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext(pretrain_steps=400)


@pytest.fixture(scope="session")
def save_result():
    """Persist a TableResult under benchmarks/results/<name>.txt, or
    under .bench_build/results/<name>.txt when ``timed`` (its cells are
    wall-clock timings)."""

    def _save(name: str, result, timed: bool = False) -> None:
        directory = TIMED_RESULTS_DIR if timed else RESULTS_DIR
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(str(result) + "\n")
        print(f"\n{result}\n[saved to {path}]")

    return _save


def mean_of(grid_cells) -> float:
    """Average MethodScore means over an iterable of cells."""
    cells = list(grid_cells)
    return sum(c.mean for c in cells) / len(cells)
