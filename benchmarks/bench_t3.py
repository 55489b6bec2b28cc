"""Benchmark T3: Section 4.1 — unbounded state: anonymous vs known-ID payload growth.

Regenerates table T3 (quick grid).  Run the full grid with
``python -m repro.experiments T3 --full``; README.md's Experiments
section lists every ID.
"""

from repro.experiments.state_growth import run_t3


def test_bench_t3(benchmark):
    table = benchmark.pedantic(run_t3, kwargs={"quick": True}, iterations=1, rounds=1)
    print()
    print(table.render())
    assert table.rows, "experiment produced no rows"
