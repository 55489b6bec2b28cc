"""Mechanized checkers for the MS / ES / ESS round-based properties.

These recompute everything from the delivery ground truth in a
:class:`~repro.giraf.traces.RunTrace`; they never trust the
environment's declared sources.  They are used three ways:

1. as *assertions* in tests — every run the constructive environments
   produce must pass its own checker;
2. as *validators* for emulations — Theorem 4's claim that Algorithm 5
   emulates MS is checked by running the emulation and feeding the
   emulated trace to :func:`check_ms`;
3. as *mutation detectors* — metamorphic tests flip one delivery's
   timeliness and assert the checker notices.

Quantification follows the paper: "process ``p_j``
receives the round-``k`` message of ``p_i`` in round ``k``" is read
operationally as "the delivery lands in ``M_j[k]`` before ``p_j``
executes ``compute(k, ·)``", and the property quantifies over correct
processes that actually computed round ``k`` — a process that halted
or whose run ended earlier never evaluates round ``k``, making the
requirement vacuous for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.errors import EnvironmentViolation
from repro.giraf.traces import RunTrace

__all__ = [
    "CheckReport",
    "sources_of_round",
    "check_ms",
    "check_es",
    "check_ess",
    "assert_environment",
]


@dataclass
class CheckReport:
    """Outcome of one environment check.

    Attributes:
        property_name: "MS", "ES(gst)", or "ESS(stab)".
        ok: whether the property holds on the (finite) trace.
        violations: human-readable descriptions of each violating round.
        sources: the recomputed source set per checked round.
    """

    property_name: str
    ok: bool
    violations: List[str] = field(default_factory=list)
    sources: Dict[int, FrozenSet[int]] = field(default_factory=dict)

    def raise_if_failed(self) -> None:
        if not self.ok:
            summary = "; ".join(self.violations[:5])
            more = len(self.violations) - 5
            if more > 0:
                summary += f"; … and {more} more"
            raise EnvironmentViolation(f"{self.property_name} violated: {summary}")


def _checked_rounds(trace: RunTrace) -> List[int]:
    """Rounds on which the properties are evaluated.

    A round is checked when at least one correct process computed it —
    rounds nobody (correct) evaluated constrain nothing.
    """
    rounds = set()
    for pid, per_round in trace.compute_times.items():
        if pid in trace.correct:
            rounds.update(per_round)
    return sorted(rounds)


def sources_of_round(trace: RunTrace, round_no: int) -> FrozenSet[int]:
    """Recompute the set of *actual* sources of ``round_no``.

    A source is a sender whose round-``round_no`` envelope reached,
    timely, every correct process that computed ``round_no``.
    """
    computers = frozenset(
        pid for pid in trace.computed(round_no) if pid in trace.correct
    )
    sources = set()
    for sender in trace.senders_of_round(round_no):
        if computers <= trace.timely_receivers(sender, round_no):
            sources.add(sender)
    return frozenset(sources)


def check_ms(trace: RunTrace) -> CheckReport:
    """Moving source: every checked round has at least one source."""
    report = CheckReport(property_name="MS", ok=True)
    for round_no in _checked_rounds(trace):
        sources = sources_of_round(trace, round_no)
        report.sources[round_no] = sources
        if not sources:
            report.ok = False
            report.violations.append(f"round {round_no} has no source")
    return report


def check_es(trace: RunTrace, gst: int) -> CheckReport:
    """Eventual synchrony: MS, plus all-timely from round ``gst`` on.

    From round ``gst`` every correct process that sent round ``k``
    must be a source of round ``k`` (its message timely at every
    correct computer of round ``k``).
    """
    report = CheckReport(property_name=f"ES(gst={gst})", ok=True)
    ms = check_ms(trace)
    report.sources = ms.sources
    if not ms.ok:
        report.ok = False
        report.violations.extend(ms.violations)
    for round_no in _checked_rounds(trace):
        if round_no < gst:
            continue
        sources = report.sources.get(round_no, sources_of_round(trace, round_no))
        correct_senders = frozenset(
            pid for pid in trace.senders_of_round(round_no) if pid in trace.correct
        )
        missing = correct_senders - sources
        if missing:
            report.ok = False
            report.violations.append(
                f"round {round_no}: correct senders {sorted(missing)} not timely to all"
            )
    return report


def check_ess(trace: RunTrace, stabilization_round: Optional[int] = None) -> CheckReport:
    """Eventually stable source: MS, plus one fixed source eventually.

    With ``stabilization_round`` given, some single process must be a
    source of *every* checked round from there on.  Without it, the
    checker searches for the latest suffix of the trace on which a
    fixed source exists (and fails only when no non-trivial suffix
    qualifies — the best a finite prefix can refute).

    Caveat: once the stable source decides and halts the environment
    re-designates (see :mod:`repro.giraf.environments`); the checker
    therefore allows the stable source to change when the previous one
    stopped sending (halted or crashed), but never while it still
    sends.
    """
    name = (
        f"ESS(stab={stabilization_round})"
        if stabilization_round is not None
        else "ESS(search)"
    )
    report = CheckReport(property_name=name, ok=True)
    ms = check_ms(trace)
    report.sources = ms.sources
    if not ms.ok:
        report.ok = False
        report.violations.extend(ms.violations)
        return report

    rounds = _checked_rounds(trace)
    if not rounds:
        return report
    start = stabilization_round if stabilization_round is not None else rounds[0]
    stable_rounds = [r for r in rounds if r >= start]
    if not stable_rounds:
        return report

    if stabilization_round is not None:
        # A single pid must be a source throughout, except across
        # re-designations forced by the previous source stopping.
        current: Optional[int] = None
        for round_no in stable_rounds:
            sources = report.sources.get(round_no, frozenset())
            if current is not None and current in sources:
                continue
            if current is not None and current in trace.senders_of_round(round_no):
                report.ok = False
                report.violations.append(
                    f"round {round_no}: stable source {current} sent but was not timely"
                )
                return report
            # (re-)designate: the previous source stopped sending
            if not sources:
                report.ok = False
                report.violations.append(f"round {round_no} has no source")
                return report
            current = min(sources)
        return report

    # search mode: does *some* suffix admit a fixed source?
    candidates: Optional[set] = None
    for round_no in reversed(stable_rounds):
        sources = report.sources.get(round_no, frozenset())
        narrowed = set(sources) if candidates is None else candidates & sources
        if not narrowed:
            break
        candidates = narrowed
    if candidates is None:
        report.ok = False
        report.violations.append("no suffix with a fixed source")
    return report


def assert_environment(
    trace: RunTrace,
    environment_name: str,
    *,
    gst: Optional[int] = None,
    stabilization_round: Optional[int] = None,
) -> CheckReport:
    """Check the named property and raise on violation."""
    if environment_name == "MS":
        report = check_ms(trace)
    elif environment_name == "ES":
        if gst is None:
            raise ValueError("ES check requires gst")
        report = check_es(trace, gst)
    elif environment_name == "ESS":
        report = check_ess(trace, stabilization_round)
    else:
        raise ValueError(f"unknown environment {environment_name!r}")
    report.raise_if_failed()
    return report
