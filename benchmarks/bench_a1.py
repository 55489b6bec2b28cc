"""Benchmark A1: Ablation — prefix inheritance in the history counters.

Regenerates table A1 (quick grid).  Run the full grid with
``python -m repro.experiments A1 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.ablations import run_a1


def test_bench_a1(benchmark):
    table = benchmark.pedantic(run_a1, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
