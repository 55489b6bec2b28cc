"""Benchmark F3: Figure — pseudo-leader convergence (Lemmas 4–6), real vs naive.

Regenerates table F3 (quick grid).  Run the full grid with
``python -m repro.experiments F3 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.leader_figure import run_f3


def test_bench_f3(benchmark):
    table = benchmark.pedantic(run_f3, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
