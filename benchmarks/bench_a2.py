"""Benchmark A2: Ablation — Algorithm 2's even/odd decide phasing (agreement search).

Regenerates table A2 (quick grid).  Run the full grid with
``python -m repro.experiments A2 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.ablations import run_a2


def test_bench_a2(benchmark):
    table = benchmark.pedantic(run_a2, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
