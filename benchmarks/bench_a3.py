"""Benchmark A3: Ablation — ⊥ proposals by non-leaders (agreement search).

Regenerates table A3 (quick grid).  Run the full grid with
``python -m repro.experiments A3 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.ablations import run_a3


def test_bench_a3(benchmark):
    table = benchmark.pedantic(run_a3, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
