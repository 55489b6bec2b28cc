"""Benchmark T1: Theorem 1 — Algorithm 2 (ES) decision latency across n × crashes × GST.

Regenerates table T1 (quick grid).  Run the full grid with
``python -m repro.experiments T1 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.consensus_tables import run_t1


def test_bench_t1(benchmark):
    table = benchmark.pedantic(run_t1, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
