"""Benchmark F4: Figure — Proposition 1 register: write latency and entry growth vs n.

Regenerates table F4 (quick grid).  Run the full grid with
``python -m repro.experiments F4 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.weakset_tables import run_f4


def test_bench_f4(benchmark):
    table = benchmark.pedantic(run_f4, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
