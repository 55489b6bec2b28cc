"""Tests for workloads, metrics, runners, and the RNG derivation."""

import collections
import hashlib
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._rng import (
    STREAM_VERSION,
    derive_randint,
    derive_randint_matrix,
    derive_randint_row,
    derive_randrange,
    derive_uniform,
    derive_uniform_row,
)
from repro.giraf.adversary import CrashPlan, CrashSchedule
from repro.giraf.traces import RunTrace, SendEvent
from repro.sim.metrics import consensus_metrics, mean_payload_by_round, payload_growth
from repro.sim.runner import run_churn_workload, run_consensus, run_es_consensus
from repro.sim.workloads import (
    binary_proposals,
    clustered_proposals,
    distinct_proposals,
    identical_proposals,
    sensor_readings,
)


class TestRng:
    def test_same_key_same_stream(self):
        assert derive_uniform("a", 1) == derive_uniform("a", 1)

    def test_different_keys_differ(self):
        draws = {derive_uniform("k", i) for i in range(50)}
        assert len(draws) == 50

    def test_helpers(self):
        assert 0 <= derive_uniform("x", 3) < 1
        assert 1 <= derive_randint(1, 6, "y", 4) <= 6

    @settings(max_examples=60, deadline=None)
    @given(
        prefixes=st.lists(
            st.tuples(
                st.sampled_from(["delay", "link", "lat-t"]),
                st.integers(0, 2**31),
                st.integers(0, 500),
            ),
            min_size=1,
            max_size=4,
        ),
        # block-edge counters mixed with random ones: lists come out
        # empty, unsorted, with repeats, and straddling 64-word blocks
        counters=st.lists(
            st.one_of(
                st.sampled_from([0, 63, 64, 65, 127, 128]), st.integers(0, 10_000)
            ),
            max_size=40,
        ),
        lo=st.integers(-5, 5),
        span=st.integers(0, 2**64),
    )
    @example(
        prefixes=[("delay", 0, 3)],
        counters=[128, 64, 63, 127, 65, 63, 0, 128],
        lo=2,
        span=4,
    )
    @example(prefixes=[("delay", 0, 3), ("link", 1, 2)], counters=[], lo=0, span=1)
    def test_matrix_equals_rows_equals_scalars(self, prefixes, counters, lo, span):
        hi = lo + span
        for prefix in prefixes:
            assert derive_uniform_row(prefix, counters) == [
                derive_uniform(*prefix, c) for c in counters
            ]
            assert derive_randint_row(lo, hi, prefix, counters) == [
                derive_randint(lo, hi, *prefix, c) for c in counters
            ]
        if hi < 2**63:  # the matrix form draws int64
            matrix = derive_randint_matrix(lo, hi, prefixes, counters)
            assert matrix.shape == (len(prefixes), len(counters))
            assert matrix.tolist() == [
                derive_randint_row(lo, hi, prefix, counters) for prefix in prefixes
            ]

    def test_matrix_spans_the_whole_int64_range(self):
        lo, hi = -(2**63), 2**63 - 1
        counters = [0, 63, 64, 200]
        assert derive_randint_matrix(lo, hi, [("wide",)], counters).tolist() == [
            derive_randint_row(lo, hi, ("wide",), counters)
        ]
        with pytest.raises(ValueError):
            derive_randint_matrix(0, 2**63, [("wide",)], counters)

    @pytest.mark.parametrize("key", [(), ("x",), ("x", 1.0), ("x", "3"), ("x", -1)])
    def test_key_must_end_in_a_non_negative_int_counter(self, key):
        with pytest.raises(ValueError):
            derive_uniform(*key)
        with pytest.raises(ValueError):
            derive_randint(1, 6, *key)
        with pytest.raises(ValueError):
            derive_randrange(6, *key)

    def test_rows_reject_negative_counters(self):
        with pytest.raises(ValueError):
            derive_uniform_row(("x",), [3, -1])
        with pytest.raises(ValueError):
            derive_randint_row(1, 6, ("x",), [-9])
        with pytest.raises(ValueError):
            derive_randint_matrix(1, 6, [("x",), ("y",)], [3, -1])

    def test_stream_v3_pinned_values(self):
        """Known outputs, each also recomputed from the stream's
        definition by a hashlib-only reimplementation: a failure here
        means every seeded run moved, which needs a new STREAM_VERSION."""
        assert STREAM_VERSION == 3
        pins = [
            (derive_randint(2, 6, "delay", 0, 3, 1, 5), 5),
            (derive_uniform("x", 3), 0.909479392089435),
            (
                derive_randrange(2**64, "weakset-ring", 0, 0),
                1449331043870226915,
            ),
        ]
        for drawn, pinned in pins:
            assert drawn == pinned
        assert 2 + _reference_word(("delay", 0, 3, 1), 5) % 5 == 5
        assert (_reference_word(("x",), 3) >> 11) * 2.0**-53 == 0.909479392089435
        assert _reference_word(("weakset-ring", 0), 0) == 1449331043870226915
        row = derive_uniform_row(("lat-t", 1, 0), [1, 9])
        assert row == [0.8333987468920925, 0.46006724531708465]
        assert row == [
            (_reference_word(("lat-t", 1, 0), c) >> 11) * 2.0**-53 for c in (1, 9)
        ]
        # raw words across the first block edge
        edge = [63, 64, 65, 127, 128]
        words = [
            8411806275601559538,
            154507692590170112,
            18017934037844318525,
            9226088521236223768,
            14708894274313993580,
        ]
        assert derive_randint_row(0, 2**64 - 1, ("pin",), edge) == words
        assert [_reference_word(("pin",), c) for c in edge] == words
        matrix = derive_randint_matrix(
            2, 6, [("delay", 0, 3, 1), ("delay", 0, 3, 2)], [5, 63, 64]
        )
        assert matrix.tolist() == [[5, 2, 2], [4, 6, 2]]


def _reference_word(prefix, counter):
    """Stream v3 from its definition, with nothing but hashlib: counter
    c is the little-endian u64 at word c % 64 of the 512-byte
    SHAKE-128 squeeze of repr(prefix) followed by u64le(c // 64)."""
    block = hashlib.shake_128(
        repr(tuple(prefix)).encode() + (counter // 64).to_bytes(8, "little")
    ).digest(512)
    at = 8 * (counter % 64)
    return int.from_bytes(block[at : at + 8], "little")


class TestStreamStatistics:
    """A cheap smoke of stream v3's output.  SHAKE-128 is a
    cryptographic XOF, so these target slips in the construction — a
    wrong block index or byte order, words reused across a block edge
    — not the primitive.  Every input is fixed, so each verdict is."""

    def test_randint_histogram_is_uniform(self):
        # 1,000 broadcasts x 60 receivers of UniformDelay(2, 6)'s draw
        counts = collections.Counter()
        for sender in range(1_000):
            counts.update(derive_randint_row(2, 6, ("delay", 7, 3, sender), range(60)))
        expected = 60_000 / 5
        chi2 = sum((counts[v] - expected) ** 2 / expected for v in range(2, 7))
        assert sorted(counts) == [2, 3, 4, 5, 6]
        assert chi2 < 18.47  # chi-squared, 4 degrees of freedom, p = 0.001

    def test_no_repeated_word_in_a_long_row(self):
        words = derive_randint_row(0, 2**64 - 1, ("link", 5, 9, 1), range(4_096))
        assert len(set(words)) == 4_096

    def test_no_correlation_across_a_block_edge(self):
        # counters 63 and 64 sit in different blocks of one prefix
        left = [derive_uniform("edge", seed, 63) for seed in range(4_000)]
        right = [derive_uniform("edge", seed, 64) for seed in range(4_000)]
        assert abs(statistics.correlation(left, right)) < 0.06

    def test_no_correlation_between_adjacent_prefixes(self):
        rows = [
            derive_uniform_row(("lat-t", 4, sender), range(64)) for sender in range(65)
        ]
        left = [draw for row in rows[:-1] for draw in row]
        right = [draw for row in rows[1:] for draw in row]
        assert abs(statistics.correlation(left, right)) < 0.06
        neighbours = [draw for row in rows for draw in row[1:]]
        previous = [draw for row in rows for draw in row[:-1]]
        assert abs(statistics.correlation(previous, neighbours)) < 0.06


class TestWorkloads:
    def test_distinct(self):
        assert distinct_proposals(4) == [0, 1, 2, 3]
        assert distinct_proposals(3, base=10) == [10, 11, 12]

    def test_binary_counts(self):
        values = binary_proposals(10, ones=3, seed=1)
        assert sum(values) == 3
        assert len(values) == 10

    def test_binary_validates(self):
        with pytest.raises(ValueError):
            binary_proposals(4, ones=5)

    def test_identical(self):
        assert identical_proposals(3, value="x") == ["x", "x", "x"]

    def test_clustered_range(self):
        values = clustered_proposals(20, clusters=3, seed=2)
        assert set(values) <= {0, 1, 2}

    def test_clustered_validates(self):
        with pytest.raises(ValueError):
            clustered_proposals(5, clusters=0)

    def test_sensor_readings_in_range(self):
        values = sensor_readings(20, lo=100, hi=110, seed=3)
        assert all(100 <= v <= 110 for v in values)


class TestMetrics:
    def test_consensus_metrics_from_run(self):
        result = run_es_consensus([3, 1, 4], gst=2, seed=1)
        metrics = result.metrics
        assert metrics.n == 3
        assert metrics.all_correct_decided
        assert metrics.decided_fraction == 1.0
        assert metrics.latency_after_stabilization is not None

    def test_payload_growth_series(self):
        trace = RunTrace(n=1, correct=frozenset({0}))
        trace.sends.append(SendEvent(0, 1, 1.0, frozenset({frozenset({1})})))
        trace.sends.append(SendEvent(0, 2, 2.0, frozenset({frozenset({1, 2, 3})})))
        growth = payload_growth(trace)
        assert [g[0] for g in growth] == [1, 2]
        assert growth[1][1] > growth[0][1]

    def test_mean_payload_by_round_handles_gaps(self):
        trace = RunTrace(n=1, correct=frozenset({0}))
        trace.sends.append(SendEvent(0, 1, 1.0, frozenset({frozenset({1})})))
        means = mean_payload_by_round(trace, [1, 7])
        assert means[0] > 0
        assert means[1] == 0.0


class TestRunner:
    def test_unknown_scheduler_rejected(self):
        from repro.core import ESConsensus
        from repro.giraf import EventualSynchronyEnvironment

        with pytest.raises(ValueError):
            run_consensus(
                ESConsensus, [1, 2], EventualSynchronyEnvironment(gst=1),
                scheduler="quantum",
            )

    def test_run_records_initial_values(self):
        result = run_es_consensus([5, 6], gst=1)
        assert result.trace.initial_values == {0: 5, 1: 6}

    def test_stop_early_toggle(self):
        slow = run_es_consensus([1, 2], gst=1, max_rounds=30)
        assert slow.trace.rounds_executed < 30

    def test_trace_mode_passthrough_lockstep(self):
        """runner -> scheduler trace_mode plumbing (PR 2 ride-along)."""
        full = run_es_consensus([1, 2, 3], gst=1, trace_mode="full")
        aggregate = run_es_consensus([1, 2, 3], gst=1, trace_mode="aggregate")
        assert not full.trace.aggregate
        assert aggregate.trace.aggregate
        assert not aggregate.trace.sends and not aggregate.trace.deliveries
        # the headline numbers must agree across modes
        assert aggregate.trace.send_count() == full.trace.send_count()
        assert aggregate.trace.message_count() == full.trace.message_count()
        assert aggregate.metrics.decided_fraction == full.metrics.decided_fraction

    def test_trace_mode_passthrough_drifting(self):
        full = run_es_consensus(
            [1, 2, 3], gst=1, scheduler="drifting", trace_mode="full"
        )
        aggregate = run_es_consensus(
            [1, 2, 3], gst=1, scheduler="drifting", trace_mode="aggregate"
        )
        assert not full.trace.aggregate
        assert aggregate.trace.aggregate
        assert aggregate.trace.send_count() == full.trace.send_count()
        assert aggregate.trace.message_count() == full.trace.message_count()


class TestChurnWorkload:
    def test_all_adds_complete_and_latencies_positive(self):
        run = run_churn_workload(
            n=3, shards=2, total_adds=8, adds_per_round=2, seed=3
        )
        assert run.issued == run.completed == 8
        assert len(run.latencies) == 8
        assert all(latency >= 1 for latency in run.latencies)
        assert run.throughput > 0

    def test_percentiles_ordered(self):
        run = run_churn_workload(n=3, shards=2, total_adds=12, seed=1)
        p50 = run.percentile_latency(50)
        p95 = run.percentile_latency(95)
        p99 = run.percentile_latency(99)
        assert p50 <= p95 <= p99

    def test_deterministic_given_seed(self):
        runs = [
            run_churn_workload(n=3, shards=2, total_adds=6, seed=4)
            for _ in range(2)
        ]
        assert runs[0].latencies == runs[1].latencies

    def test_patterns_validated(self):
        with pytest.raises(ValueError):
            run_churn_workload(pattern="tornado")
        with pytest.raises(ValueError):
            run_churn_workload(adds_per_round=0)

    def test_empty_workload(self):
        run = run_churn_workload(total_adds=0)
        assert run.issued == run.completed == run.rounds == 0
        assert run.percentile_latency(50) is None
        assert run.throughput is None

    def test_fixed_pattern_runs(self):
        run = run_churn_workload(
            n=3, shards=1, total_adds=6, pattern="fixed", seed=0
        )
        assert run.completed == 6


class TestCrashChurnWorkload:
    """Process churn (crash schedules) on top of source churn."""

    def test_crash_free_schedule_changes_nothing(self):
        baseline = run_churn_workload(n=3, shards=2, total_adds=8, seed=3)
        with_empty = run_churn_workload(
            n=3, shards=2, total_adds=8, seed=3,
            crash_schedule=CrashSchedule.none(),
        )
        assert with_empty.latencies == baseline.latencies
        assert with_empty.skipped == 0

    def test_crashed_processes_shed_their_queued_adds(self):
        crashes = CrashSchedule({0: CrashPlan(2, before_send=True)})
        run = run_churn_workload(
            n=3, shards=2, total_adds=15, adds_per_round=2, seed=0,
            crash_schedule=crashes,
        )
        # pid 0 owns 5 of the 15 round-robin adds; at most a couple can
        # land before the round-2 crash, the rest are skipped or lost
        assert run.skipped >= 1
        assert run.issued + run.skipped == 15
        assert run.completed >= 8, "survivors' adds must keep completing"
        assert run.completed <= run.issued

    def test_run_terminates_even_when_every_faulty_add_is_in_flight(self):
        crashes = CrashSchedule({pid: CrashPlan(3) for pid in (0, 1)})
        run = run_churn_workload(
            n=3, shards=1, total_adds=9, adds_per_round=3, seed=2,
            crash_schedule=crashes,
        )
        assert run.rounds < 100, "abandoned in-flight adds must not stall"
        assert run.issued + run.skipped == 9

    def test_crash_churn_backend_invariant(self):
        crashes = CrashSchedule({1: CrashPlan(4, before_send=False)})
        runs = [
            run_churn_workload(
                n=4, shards=2, total_adds=12, adds_per_round=2,
                pattern="flapping", backend=backend, seed=6,
                crash_schedule=crashes,
            )
            for backend in ("serial", "multiprocess")
        ]
        assert runs[0].latencies == runs[1].latencies
        assert runs[0].skipped == runs[1].skipped
        assert runs[0].issued == runs[1].issued
        assert runs[0].rounds == runs[1].rounds
