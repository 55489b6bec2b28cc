"""Benchmark T2: Theorem 2 — Algorithm 3 (ESS) decision latency across n × stabilization.

Regenerates table T2 (quick grid).  Run the full grid with
``python -m repro.experiments T2 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.consensus_tables import run_t2


def test_bench_t2(benchmark):
    table = benchmark.pedantic(run_t2, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
