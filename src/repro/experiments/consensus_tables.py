"""Experiments T1, T2, F1, F2: consensus decision latency.

* **T1** — Theorem 1: Algorithm 2 decides in ES; latency vs ``n``,
  crash fraction, and GST.
* **T2** — Theorem 2: Algorithm 3 decides in ESS; latency vs ``n`` and
  the stabilization round.
* **F1** — latency series against GST at fixed ``n`` (ES).
* **F2** — latency series against the stabilization round (ESS).

The pre-stabilization phase uses the decision-blocking adversary of
:mod:`repro.giraf.blockade` — a *generous* MS prefix lets both
algorithms converge long before stabilization, which would flatten
these tables.  Under the blockade, Algorithm 2's latency tracks GST
exactly (decide ≈ GST + 2).  Algorithm 3 tracks the stabilization
round up to the point where its own pseudo-leader election de-elects
the blockade's polluting carrier (Lemma 6: leaders ⊆ ⋄-proposers) and
terminates despite the adversary — the flattening of F2's tail is the
algorithm beating the strongest schedule we know how to construct.

Expected shapes: latency linear in the stabilization point, constant
in ``n`` and in the number of crashes.

Each grid is expressed as a list of self-contained cells executed by a
module-level cell function (one cell = one table row), so
:func:`~repro.experiments.common.run_cells` can fan the grid out over
worker processes (``jobs=N``) without changing a digit of the output:
every cell derives its seeds from its own parameters and the runs use
the scheduler's aggregate trace mode (equivalence-tested against full
traces).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.tables import Table
from repro.core.es_consensus import ESConsensus
from repro.core.ess_consensus import ESSConsensus
from repro.experiments.common import aggregate_latency, run_cells, sample_consensus
from repro.giraf.adversary import CrashSchedule
from repro.giraf.blockade import BlockadeEnvironment

__all__ = ["run_t1", "run_t2", "run_f1", "run_f2", "carrier_proposals"]


def carrier_proposals(n: int) -> List[int]:
    """Proposals with the maximum handed to pid 0 (the blockade carrier)."""
    return [n] + list(range(1, n))


def _blockade(release: int, mode: str, n: int, crash_schedule=None) -> BlockadeEnvironment:
    environment = BlockadeEnvironment(release, mode=mode, preferred_source=0)
    environment.bind_universe(n, crash_schedule)
    return environment


def _t1_cell(cell) -> tuple:
    """One T1 row: (n, crash fraction, gst) aggregated over repeats."""
    n, fraction, gst, repeats, seed, engine = cell
    samples = []
    for rep in range(repeats):
        run_seed = seed + 1000 * rep
        crashes = CrashSchedule.fraction(
            n, fraction, seed=run_seed, latest_round=max(2, gst),
            protect={0},
        )
        samples.append(
            sample_consensus(
                ESConsensus,
                carrier_proposals(n),
                _blockade(gst, "es", n, crashes),
                crash_schedule=crashes,
                max_rounds=gst + 60,
                trace_mode="aggregate",
                engine=engine,
            )
        )
    return (n, fraction, gst) + aggregate_latency(samples)


def run_t1(
    quick: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    engine: str = "object",
) -> Table:
    """T1: Algorithm 2 latency across n × crash fraction × GST.

    ``engine`` selects the counter representation; the rendered table
    is engine-invariant (pinned in ``tests/experiments``).
    """
    ns = [4, 10] if quick else [4, 8, 16, 32]
    fractions = [0.0, 0.5] if quick else [0.0, 0.25, 0.5]
    gsts = [2, 12] if quick else [2, 8, 16, 32]
    repeats = 3 if quick else 8

    table = Table(
        experiment_id="T1",
        title="Algorithm 2 (ES consensus): rounds to decide (blockade until GST)",
        headers=["n", "crash-frac", "gst", "rounds", "term-rate", "safe-rate", "deliveries"],
        notes=[
            "latency ≈ gst + O(1), independent of n and crash count "
            "(Theorem 1's shape)",
            "crashes in the blockade's low group can only weaken the "
            "adversary, so crashed configurations may decide early",
        ],
    )
    cells = [
        (n, fraction, gst, repeats, seed, engine)
        for n in ns
        for fraction in fractions
        for gst in gsts
    ]
    for row in run_cells(_t1_cell, cells, jobs=jobs):
        table.add_row(*row)
    return table


def _t2_cell(cell) -> tuple:
    """One T2 row: (n, stabilization round) aggregated over repeats."""
    n, stab, repeats, seed, engine = cell
    samples = []
    for rep in range(repeats):
        run_seed = seed + 1000 * rep
        crashes = CrashSchedule.fraction(
            n, 0.25, seed=run_seed, latest_round=max(2, stab), protect={0}
        )
        samples.append(
            sample_consensus(
                ESSConsensus,
                carrier_proposals(n),
                _blockade(stab, "ess", n, crashes),
                crash_schedule=crashes,
                max_rounds=stab + 150,
                trace_mode="aggregate",
                engine=engine,
            )
        )
    return (n, stab) + aggregate_latency(samples)


def run_t2(
    quick: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    engine: str = "object",
) -> Table:
    """T2: Algorithm 3 latency across n × stabilization round.

    ``engine`` selects the counter representation; the rendered table
    is engine-invariant (pinned in ``tests/experiments``).
    """
    ns = [4, 10] if quick else [4, 8, 16, 32]
    stabs = [2, 12] if quick else [2, 8, 16, 32]
    repeats = 3 if quick else 8

    table = Table(
        experiment_id="T2",
        title="Algorithm 3 (ESS consensus): rounds to decide (blockade until stab)",
        headers=["n", "stab-round", "rounds", "term-rate", "safe-rate", "deliveries"],
        notes=[
            "latency tracks the stabilization round plus pseudo-leader "
            "convergence, until the algorithm's own leader election "
            "defeats the blockade (Lemma 6)",
        ],
    )
    cells = [(n, stab, repeats, seed, engine) for n in ns for stab in stabs]
    for row in run_cells(_t2_cell, cells, jobs=jobs):
        table.add_row(*row)
    return table


_SERIES_FACTORIES: dict = {
    "es": ESConsensus,
    "ess": ESSConsensus,
}


def _series_cell(cell) -> list:
    """One latency-series point: blockade released at ``point``."""
    mode, point, n, max_extra, engine = cell
    sample = sample_consensus(
        _SERIES_FACTORIES[mode],
        carrier_proposals(n),
        _blockade(point, mode, n),
        max_rounds=point + max_extra,
        trace_mode="aggregate",
        engine=engine,
    )
    return [point, sample.last_decision_round if sample.terminated else None]


def _latency_series(
    mode: str,
    points: List[int],
    n: int,
    max_extra: int,
    jobs: Optional[int] = None,
    engine: str = "object",
) -> List[List[object]]:
    cells = [(mode, point, n, max_extra, engine) for point in points]
    return run_cells(_series_cell, cells, jobs=jobs)


def run_f1(
    quick: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    engine: str = "object",
) -> Table:
    """F1: ES latency as a function of GST (fixed n).

    ``engine`` selects the counter representation; the rendered table
    is engine-invariant (pinned in ``tests/experiments``).
    """
    n = 8
    points = [1, 8, 16, 32] if quick else [1, 4, 8, 16, 32, 64, 128]

    table = Table(
        experiment_id="F1",
        title=f"Algorithm 2: decision round vs GST under the blockade (n={n})",
        headers=["gst", "rounds-to-decide"],
        notes=["expected: decide ≈ GST + 2 (deterministic blockade)"],
    )
    for row in _latency_series("es", points, n, 60, jobs=jobs, engine=engine):
        table.add_row(*row)
    return table


def run_f2(
    quick: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    engine: str = "object",
) -> Table:
    """F2: ESS latency as a function of the stabilization round.

    ``engine`` selects the counter representation; the rendered table
    is engine-invariant (pinned in ``tests/experiments``).
    """
    n = 8
    points = [1, 8, 16, 32] if quick else [1, 4, 8, 16, 32, 64, 128]

    table = Table(
        experiment_id="F2",
        title=(
            f"Algorithm 3: decision round vs stabilization round under the "
            f"blockade (n={n})"
        ),
        headers=["stab-round", "rounds-to-decide"],
        notes=[
            "tracks the stabilization round until the pseudo-leader "
            "election de-elects the blockade's carrier (Lemma 6) and the "
            "algorithm decides despite the adversary — the plateau is the "
            "algorithm winning, not the adversary",
        ],
    )
    for row in _latency_series("ess", points, n, 150, jobs=jobs, engine=engine):
        table.add_row(*row)
    return table
