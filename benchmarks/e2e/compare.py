"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py parent.jsonl change.jsonl

Both files hold the lines ``run.py --append FILE`` writes, one per run.
For every workload the first table gives one row: each end-to-end
metric's verdict and the change of its median.  The detail tables give
each side's median and quartiles (``statistics.quantiles(n=4)``).

Verdicts, with the bound ``BENCHMARK.json`` fixes for the metric:

* ``regressed`` — the change's median is worse than the parent's by
  more than the bound;
* ``unresolved`` — either side's spread (quartile distance over the
  median) is wider than the bound, and not every change run beats
  every parent run;
* ``gain`` — the change wins at least 9/10 of the run pairs (ties count
  for neither; runs pair by seed) and the medians differ by more than
  the parent's quartile distance;
* ``unchanged`` — otherwise.

Per-layer metrics (traced runs) have no bound and get no verdict.  Runs
of one workload and seed whose per-instance output fingerprints differ
are flagged.  The exit status is 1 when any metric regressed or any
fingerprint differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _load(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _pairs(parent: list, change: list, metric: str) -> list:
    """Pair runs by seed; runs of a seed pair in file order."""
    by_seed = {}
    for record in parent:
        by_seed.setdefault(record["seed"], []).append(record["metrics"][metric])
    pairs = []
    for record in change:
        queue = by_seed.get(record["seed"])
        if queue:
            pairs.append((queue.pop(0), record["metrics"][metric]))
    return pairs


def verdict(parent: list, change: list, metric: str, bound: float, better: str):
    """``(verdict, relative change of the median)`` for one metric."""
    old = [record["metrics"][metric] for record in parent]
    new = [record["metrics"][metric] for record in change]
    old_q1, old_median, old_q3 = _quartiles(old)
    new_q1, new_median, new_q3 = _quartiles(new)
    sign = 1 if better == "higher" else -1
    delta = (new_median - old_median) / old_median
    if sign * delta < -bound:
        return "regressed", delta
    spread = max(
        (old_q3 - old_q1) / abs(old_median), (new_q3 - new_q1) / abs(new_median)
    )
    all_better = (
        min(new) > max(old) if better == "higher" else max(new) < min(old)
    )
    if spread > bound and not all_better:
        return "unresolved", delta
    pairs = _pairs(parent, change, metric)
    wins = sum(1 for before, after in pairs if sign * (after - before) > 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(new_median - old_median) > old_q3 - old_q1
    ):
        return "gain", delta
    return "unchanged", delta


def _fingerprint_flags(parent: list, change: list) -> list:
    """Instances whose output differs between runs of one workload+seed."""
    seen = {}
    flags = []
    for record in parent + change:
        key = (record["workload"], record["seed"])
        reference = seen.setdefault(key, record["fingerprints"])
        common = min(len(reference), len(record["fingerprints"]))
        for index in range(common):
            if reference[index] != record["fingerprints"][index]:
                flags.append(
                    f"fingerprint differs: {key[0]} seed={key[1]} instance={index}"
                )
                break
    return flags


def _group(records: list) -> dict:
    groups = {}
    for record in records:
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def _detail_line(name: str, old: list, new: list, delta: str, outcome: str) -> str:
    def cell(records):
        q1, median, q3 = _quartiles([record["metrics"][name] for record in records])
        return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

    return f"  {name:<32} {cell(old):>34} {cell(new):>34} {delta:>8}  {outcome}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="JSON lines of the parent commit's runs")
    parser.add_argument("change", help="JSON lines of the change's runs")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    parent, change = _group(_load(args.parent)), _group(_load(args.change))
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = False

    rows = []
    details = []
    for workload in workloads:
        old, new = parent.get((workload, 0)), change.get((workload, 0))
        if not old or not new:
            continue
        cells = []
        details.append(f"\n{workload} (parent {len(old)} runs, change {len(new)} runs)")
        details.append(
            f"  {'metric':<32} {'parent median [q1, q3]':>34} "
            f"{'change median [q1, q3]':>34} {'delta':>8}  verdict"
        )
        for name, metric in bounds.items():
            outcome, delta = verdict(old, new, name, metric["bound"], metric["better"])
            regressed |= outcome == "regressed"
            cells.append(f"{name}={outcome}({delta:+.1%})")
            details.append(_detail_line(name, old, new, f"{delta:+.1%}", outcome))
        rows.append(f"{workload:<20} " + "  ".join(cells))
        old_traced, new_traced = parent.get((workload, 1)), change.get((workload, 1))
        if old_traced and new_traced:
            for metric in spec["per_layer"]:
                name = metric["name"]
                details.append(_detail_line(name, old_traced, new_traced, "", "-"))
    print("\n".join(rows + details))
    flags = _fingerprint_flags(
        [r for rs in parent.values() for r in rs],
        [r for rs in change.values() for r in rs],
    )
    for flag in flags:
        print(flag)
    return 1 if regressed or flags else 0


if __name__ == "__main__":
    sys.exit(main())
