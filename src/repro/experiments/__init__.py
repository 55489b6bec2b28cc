"""The experiment harness: one runner per table/figure (README.md, Experiments).

Run from the command line::

    python -m repro.experiments            # the whole suite (quick grid)
    python -m repro.experiments T1 T6      # selected experiments
    python -m repro.experiments --full     # full parameter grids

or programmatically through :func:`run_experiment` / :func:`run_all`.
"""

from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment

__all__ = ["EXPERIMENTS", "run_all", "run_experiment"]
