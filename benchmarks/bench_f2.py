"""Benchmark F2: Figure — Algorithm 3 latency series vs stabilization round.

Regenerates table F2 (quick grid).  Run the full grid with
``python -m repro.experiments F2 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.consensus_tables import run_f2


def test_bench_f2(benchmark):
    table = benchmark.pedantic(run_f2, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
