"""Benchmark T7: Cost of anonymity — Algorithm 3 vs known-IDs vs Algorithm 2 vs FloodSet.

Regenerates table T7 (quick grid).  Run the full grid with
``python -m repro.experiments T7 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.baseline_table import run_t7


def test_bench_t7(benchmark):
    table = benchmark.pedantic(run_t7, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
