"""Benchmark T6: Proposition 4 — Σ emulation candidates vs the r1/r2 construction.

Regenerates table T6 (quick grid).  Run the full grid with
``python -m repro.experiments T6 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.sigma_table import run_t6


def test_bench_t6(benchmark):
    table = benchmark.pedantic(run_t6, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
