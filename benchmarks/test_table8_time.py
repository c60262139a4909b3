"""Table VIII benchmark: per-query inference time.

Shape claims (paper Table VIII + Eqs. 15–16): GraphPrompter costs more per
query than Prodigy (retrieval + cache-extended task graph; paper reports
~2-3×), and both methods get slower as the number of ways grows.
"""

from repro.experiments import table8_inference_time

WAYS = (10, 20, 40)


def test_table8_inference_time(benchmark, ctx, save_result):
    result = benchmark.pedantic(
        lambda: table8_inference_time(ctx, ways_list=WAYS), rounds=1,
        iterations=1)
    save_result("table8_time", result, timed=True)

    for target in ("fb15k237", "nell"):
        cells = result.data[target]
        for ways in WAYS:
            assert cells[ways]["slowdown"] > 1.0, (
                f"{target}/{ways}: GraphPrompter should cost more per query")
        # Both methods scale up with the number of ways.
        assert (cells[40]["prodigy"].ms_per_query
                > cells[10]["prodigy"].ms_per_query)
        assert (cells[40]["ours"].ms_per_query
                > cells[10]["ours"].ms_per_query)
