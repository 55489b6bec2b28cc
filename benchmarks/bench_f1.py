"""Benchmark F1: Figure — Algorithm 2 latency series vs GST.

Regenerates table F1 (quick grid).  Run the full grid with
``python -m repro.experiments F1 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.consensus_tables import run_f1


def test_bench_f1(benchmark):
    table = benchmark.pedantic(run_f1, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
