"""Benchmark T5: Theorem 4 — Algorithm 5 MS emulation: checker verdicts + source movement.

Regenerates table T5 (quick grid).  Run the full grid with
``python -m repro.experiments T5 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.weakset_tables import run_t5


def test_bench_t5(benchmark):
    table = benchmark.pedantic(run_t5, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
