"""Benchmark T4: Theorem 3 — Algorithm 4 weak-set in MS: add latency + spec verdicts.

Regenerates table T4 (quick grid).  Run the full grid with
``python -m repro.experiments T4 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.weakset_tables import run_t4


def test_bench_t4(benchmark):
    table = benchmark.pedantic(run_t4, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
