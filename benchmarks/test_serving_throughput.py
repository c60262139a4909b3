"""Serving benchmark: cross-session micro-batching throughput.

Shape claims (serving subsystem, not a paper artifact): coalescing queries
from many sessions into one GNN encoding pass yields more queries/sec than
per-query (batch size 1) serving of the same workload, without changing a
single prediction — micro-batching is a pure throughput optimization.
"""

from repro.experiments import serve_bench

BATCH_SIZES = (1, 4, 16)


def test_serving_throughput(benchmark, ctx, save_result):
    result = benchmark.pedantic(
        lambda: serve_bench(ctx, batch_sizes=BATCH_SIZES), rounds=1,
        iterations=1)
    save_result("serving_throughput", result, timed=True)

    cells = result.data["cells"]
    # Batching never changes an answer.
    assert all(cells[bs]["identical"] for bs in BATCH_SIZES), (
        "micro-batched predictions diverged from per-query serving")
    # The scheduler actually coalesced across sessions.
    assert cells[16]["mean_batch"] > 4.0
    # The acceptance claim: some batched setting beats per-query serving.
    best_batched = max(cells[bs]["qps"] for bs in BATCH_SIZES if bs > 1)
    assert best_batched > cells[1]["qps"], (
        f"micro-batching gave no speedup: {best_batched:.1f} vs "
        f"{cells[1]['qps']:.1f} queries/s")
