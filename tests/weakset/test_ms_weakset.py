"""Tests for Algorithm 4: the weak-set in the MS environment."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolMisuse
from repro.giraf.adversary import (
    ConstantDelay,
    CrashPlan,
    CrashSchedule,
    FlappingSource,
    RandomSource,
    RoundRobinSource,
    UniformDelay,
)
from repro.giraf.checkers import check_ms
from repro.giraf.environments import (
    AllTimelyLinks,
    BernoulliLinks,
    MovingSourceEnvironment,
    SilentLinks,
)
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler
from repro.serialization import trace_to_json
from repro.weakset.ms_weakset import (
    MSWeakSetAlgorithm,
    VerbatimMSWeakSetAlgorithm,
    run_ms_weakset,
)


class TestAlgorithmUnit:
    def test_get_before_any_add_is_empty(self):
        algorithm = MSWeakSetAlgorithm()
        assert algorithm.get_now() == frozenset()

    def test_begin_add_updates_state(self):
        algorithm = MSWeakSetAlgorithm()
        algorithm.begin_add("v")
        assert algorithm.blocked
        assert "v" in algorithm.get_now()
        assert algorithm.val == "v"

    def test_double_add_rejected_while_blocked(self):
        algorithm = MSWeakSetAlgorithm()
        algorithm.begin_add("v")
        with pytest.raises(ProtocolMisuse):
            algorithm.begin_add("w")


class TestRuns:
    def test_adds_complete_and_spec_holds(self):
        script = {1: [("add", 0, "a")], 6: [("add", 1, "b")], 20: [("get", 2)]}
        result = run_ms_weakset(3, script, max_rounds=40)
        assert result.report.ok
        assert all(record.completed for record in result.log.adds)
        assert result.log.gets[-1].result >= {"a", "b"}

    def test_ms_property_holds(self):
        script = {1: [("add", 0, "a")], 10: [("get", 1)]}
        result = run_ms_weakset(3, script, max_rounds=30)
        assert check_ms(result.trace).ok

    def test_every_source_schedule(self):
        for schedule in (RandomSource(3), RoundRobinSource(), FlappingSource(2)):
            env = MovingSourceEnvironment(source_schedule=schedule)
            result = run_ms_weakset(
                4,
                {1: [("add", 0, "x")], 5: [("add", 3, "y")], 25: [("get", 1), ("get", 2)]},
                environment=env,
                max_rounds=50,
            )
            assert result.report.ok
            final = result.log.gets[-1].result
            assert final >= {"x", "y"}

    def test_add_latency_finite_under_slow_links(self):
        env = MovingSourceEnvironment(
            source_schedule=RoundRobinSource(), delay_policy=ConstantDelay(8)
        )
        result = run_ms_weakset(
            4, {1: [("add", 2, "slow")], 40: [("get", 0)]}, environment=env,
            max_rounds=60,
        )
        record = result.log.adds[0]
        assert record.completed
        assert result.report.ok

    def test_queued_adds_run_in_order(self):
        script = {1: [("add", 0, "first"), ("add", 0, "second")], 30: [("get", 1)]}
        result = run_ms_weakset(3, script, max_rounds=50)
        first, second = result.log.adds
        assert first.value == "first" and second.value == "second"
        assert first.end <= second.start or second.start >= first.start
        assert result.report.ok

    def test_crashed_adder_leaves_add_incomplete_or_visible(self):
        crashes = CrashSchedule({0: CrashPlan(2, before_send=True)})
        script = {1: [("add", 0, "doomed")], 20: [("get", 1)]}
        result = run_ms_weakset(3, script, crash_schedule=crashes, max_rounds=40)
        # the spec permits either outcome; the checker must accept it
        assert result.report.ok

    def test_gets_monotone_over_time(self):
        """Lemma 9: written values stay in PROPOSED forever."""
        script = {
            1: [("add", 0, "a")],
            8: [("get", 1)],
            9: [("add", 1, "b")],
            20: [("get", 1)],
            30: [("get", 1)],
        }
        result = run_ms_weakset(3, script, max_rounds=50)
        gets_of_1 = [g.result for g in result.log.gets if g.pid == 1]
        for earlier, later in zip(gets_of_1, gets_of_1[1:]):
            assert earlier <= later

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolMisuse):
            run_ms_weakset(2, {1: [("frobnicate", 0)]}, max_rounds=5)


# ----------------------------------------------------------------------
# the incremental line 15 against the verbatim one
# ----------------------------------------------------------------------
class _Scripted:
    """A process that runs its scripted operations at the top of
    ``compute(k)`` (an add queues until the previous one is written)
    and records ``PROPOSED``, ``WRITTEN`` and ``BLOCK`` after it."""

    def __init__(self, script):
        super().__init__()
        self.script = script
        self.queue = deque()
        self.ops = []
        self.states = []

    def compute(self, k, inbox):
        for value in self.script.get(k, ()):
            if value is None:
                self.ops.append(("get", k, self.get_now()))
            else:
                self.queue.append(value)
        if self.queue and not self.blocked:
            value = self.queue.popleft()
            self.begin_add(value)
            self.ops.append(("add", k, value))
        message = super().compute(k, inbox)
        self.states.append((k, self.proposed, self.written, self.block))
        return message


class _Folding(_Scripted, MSWeakSetAlgorithm):
    pass


class _Verbatim(_Scripted, VerbatimMSWeakSetAlgorithm):
    pass


# Plain values are equal only when they encode equally.  Mixed runs
# also add the distinct equal values 0 / 0.0 / False and 1 / 1.0 /
# True: of equal values a set keeps the one that came first, and the
# two forms fold in different orders, so their states still compare
# equal under == but their traces may print differently.
_plain_values = st.one_of(
    st.text(alphabet="abc", max_size=2),
    st.integers(min_value=0, max_value=9),
    st.tuples(st.integers(min_value=0, max_value=3), st.text("ab", max_size=1)),
)
_equal_numbers = st.sampled_from([0, 0.0, False, 1, 1.0, True])
_mixed_values = st.one_of(
    _plain_values,
    _equal_numbers,
    st.tuples(_equal_numbers, st.text("ab", max_size=1)),
)


@st.composite
def oracle_runs(draw):
    """One Algorithm-4 run: lock-step MS whose drawn late delays land
    in old slots, or the drifting scheduler whose fast processes' early
    envelopes land in future slots; crashes; a random add/get script."""
    n = draw(st.integers(min_value=2, max_value=5))
    rounds = draw(st.integers(min_value=3, max_value=24))
    pids = st.integers(min_value=0, max_value=n - 1)
    script_rounds = st.integers(min_value=1, max_value=rounds)
    values = draw(st.sampled_from([_plain_values, _mixed_values]))
    ops = draw(
        st.lists(
            st.tuples(pids, script_rounds, st.none() | values),
            max_size=3 * n,
        )
    )
    crashes = draw(
        st.dictionaries(
            pids,
            st.builds(CrashPlan, script_rounds, st.booleans()),
            max_size=n - 1,
        )
    )
    lo = draw(st.integers(min_value=2, max_value=4))
    return {
        "n": n,
        "rounds": rounds,
        "drifting": draw(st.booleans()),
        "script": ops,
        "crashes": crashes,
        "sources": draw(st.sampled_from(["random", "round-robin", "flapping"])),
        "links": draw(st.sampled_from(["silent", "bernoulli", "all"])),
        "delay": (lo, lo + draw(st.integers(min_value=0, max_value=5))),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "periods": draw(
            st.lists(
                st.floats(min_value=0.5, max_value=3.0), min_size=n, max_size=n
            )
        ),
        "phases": draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
            )
        ),
    }


def _environment(run):
    seed = run["seed"]
    sources = {
        "random": RandomSource(seed),
        "round-robin": RoundRobinSource(),
        "flapping": FlappingSource(2),
    }[run["sources"]]
    links = {
        "silent": SilentLinks(),
        "bernoulli": BernoulliLinks(0.4, seed=seed),
        "all": AllTimelyLinks(),
    }[run["links"]]
    return MovingSourceEnvironment(
        source_schedule=sources,
        link_policy=links,
        delay_policy=UniformDelay(*run["delay"], seed=seed),
    )


def _run(algorithm_class, run):
    scripts = [{} for _ in range(run["n"])]
    for pid, round_no, op in run["script"]:
        scripts[pid].setdefault(round_no, []).append(op)
    algorithms = [algorithm_class(script) for script in scripts]
    crashes = CrashSchedule(run["crashes"])
    if run["drifting"]:
        scheduler = DriftingScheduler(
            algorithms,
            _environment(run),
            crashes,
            periods=run["periods"],
            phases=run["phases"],
            max_rounds=run["rounds"],
        )
    else:
        scheduler = LockStepScheduler(
            algorithms, _environment(run), crashes, max_rounds=run["rounds"]
        )
    trace = scheduler.run()
    return (
        [algorithm.states for algorithm in algorithms],
        [algorithm.ops for algorithm in algorithms],
        trace_to_json(trace),
    )


def _prints_alike(run):
    """Whether no two distinct values of the script are equal, so that
    equal sets also print alike."""
    values = [op for _, _, op in run["script"] if op is not None]
    return len(set(values)) == len(set(map(repr, values)))


class TestFoldMatchesVerbatimLine15:
    """The fold keeps its own memory of what it has folded, so it is
    checked against line 15 recomputed from every slot each round:
    equal state after every compute and equal op logs, and identical
    full traces when no two distinct values are equal."""

    @given(run=oracle_runs())
    @settings(max_examples=150)
    def test_generated_runs(self, run):
        states, ops, trace = _run(_Folding, run)
        verbatim_states, verbatim_ops, verbatim_trace = _run(_Verbatim, run)
        assert states == verbatim_states
        assert ops == verbatim_ops
        if _prints_alike(run):
            assert trace == verbatim_trace

    def test_runs_reach_old_and_future_slots(self):
        """The two slot shapes the fold must get right both occur:
        a lock-step late delivery into a slot already folded, and a
        drifting early arrival in a slot above the computing round."""
        seen = {"old": False, "future": False}

        class Probe(_Folding):
            def compute(self, k, inbox):
                for slot_round, messages in inbox.slots().items():
                    folded_at = self._folded_sizes.get(slot_round)
                    if slot_round > k:
                        seen["future"] = True
                    elif folded_at is not None and len(messages) > folded_at:
                        seen["old"] = True
                return super().compute(k, inbox)

        base = {
            "n": 4, "rounds": 16, "script": [(0, 2, "x"), (3, 5, "y")],
            "crashes": {}, "sources": "random", "links": "bernoulli",
            "delay": (2, 6), "seed": 3, "periods": [0.5, 1.0, 2.0, 3.0],
            "phases": [0.0, 0.3, 0.6, 0.9],
        }
        _run(Probe, dict(base, drifting=False))
        assert seen == {"old": True, "future": False}
        _run(Probe, dict(base, drifting=True))
        assert seen == {"old": True, "future": True}
