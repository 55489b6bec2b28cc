"""Smoke tests for the experiment harness (quick grids only).

The heavy sweeps run in ``benchmarks/``; here we validate registry
dispatch, table structure, and the headline assertions each experiment
makes (checker verdicts, violation presence, growth direction).
"""

import pytest

from repro.analysis.tables import Table
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.churn_tables import run_c1, run_c2, run_c3, run_c5
from repro.experiments.consensus_tables import run_f2, run_t2
from repro.experiments.leader_figure import run_f3
from repro.experiments.scale_table import s1_cells, s1_scheduler
from repro.experiments.sigma_table import run_t6
from repro.experiments.state_growth import run_t3
from repro.experiments.weakset_tables import run_f4, run_t4, run_t5


class TestRegistry:
    def test_all_ids_present(self):
        assert set(EXPERIMENTS) == {
            "T1", "T2", "T3", "T4", "T5", "T6", "T7",
            "F1", "F2", "F3", "F4", "A1", "A2", "A3",
            "C1", "C2", "C3", "C4", "C5", "S1",
        }

    def test_churn_family_registered_and_dispatches(self):
        table = run_experiment("C1")
        assert isinstance(table, Table)
        assert table.experiment_id == "C1"

    def test_backend_kwarg_reaches_churn_runners_only(self):
        table = run_experiment("C1", backend="serial")
        assert "backend=serial" in " ".join(table.notes)
        # runners without a backend knob must not receive (and choke on) it
        assert isinstance(run_experiment("T6", backend="serial"), Table)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("T99")

    def test_case_insensitive_lookup(self):
        table = run_experiment("t6")
        assert isinstance(table, Table)


class TestEngineInvariance:
    """``--engine`` must not move a digit of the rendered tables."""

    def test_t2_table_engine_invariant(self):
        reference = run_t2(quick=True, seed=0, engine="object").render()
        columnar = run_t2(quick=True, seed=0, engine="columnar").render()
        assert columnar == reference

    def test_f2_table_engine_invariant(self):
        reference = run_f2(quick=True, seed=0, engine="object").render()
        columnar = run_f2(quick=True, seed=0, engine="columnar").render()
        assert columnar == reference


class TestScaleTablePaths:
    """Every columnar S1 cell runs on a matrix engine, not the object
    fallback (the matrix engines need numpy for that)."""

    @pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
    def test_columnar_cells_take_a_matrix_path(self, quick):
        from repro.core.columnar import numpy_available

        for workload, sched, n, engine, seed, _ in s1_cells(quick=quick):
            if engine != "columnar":
                continue
            sim = s1_scheduler(workload, sched, n, engine, seed)
            if not numpy_available():
                assert sim.engine_path == "object"
                assert "numpy" in sim.engine_decline
            else:
                assert sim.engine_path == f"matrix-{sched}", (workload, n)


class TestHeadlineClaims:
    def test_t3_anonymous_payload_grows_ids_plateau(self):
        table = run_t3(quick=True)
        anonymous = table.column("anonymous (histories)")
        ids = table.column("known-IDs (Ω)")
        assert anonymous[-1] > 3 * anonymous[0], "anonymous payload must grow"
        assert ids[-1] < 3 * ids[0], "ID payload must stay near-flat"

    def test_t4_all_verdicts_pass(self):
        table = run_t4(quick=True)
        assert all(table.column("spec-ok"))
        assert all(table.column("ms-ok"))

    def test_t5_all_verdicts_pass(self):
        # seed 1: the first stream-v3 seed whose every row moves the
        # source (at seed 0, n=3 with ack delays 1-8 keeps one source)
        table = run_t5(quick=True, seed=1)
        assert all(table.column("ms-ok"))
        assert all(table.column("weakset-ok"))
        assert all(s >= 2 for s in table.column("distinct-sources"))

    def test_t6_every_candidate_violates_something(self):
        table = run_t6(quick=True)
        for verdict in table.column("violated-property"):
            assert verdict in {
                "completeness(r1)", "completeness(r2)", "intersection(r1,r2)",
            }

    def test_f3_real_converges_naive_does_not(self):
        # seed 1: the first stream-v3 seed that starts with more than one
        # leader (at seed 0 Algorithm 3 already has one at round 2)
        table = run_f3(quick=True, seed=1)
        real = table.column("leaders (Alg 3)")
        naive = table.column("leaders (naive)")
        assert real[-1] < real[0]
        assert naive[-1] == naive[0]

    def test_c1_every_row_completes_all_adds(self):
        table = run_c1(quick=True)
        assert table.column("adds") == table.column("completed")
        for p50, p95, p99 in zip(
            table.column("p50"), table.column("p95"), table.column("p99")
        ):
            assert 1 <= p50 <= p95 <= p99

    def test_c2_transport_backends_match_serial(self):
        table = run_c2(quick=True)
        assert table.column("backend") == (
            ["serial", "multiprocess"] + ["socket"] * 5
        )
        # the grid covers a round-batched row, the pipelined windows,
        # and a multiplexed (2 worlds/worker) row
        assert 4 in table.column("batch")
        assert {1, 2, 4} <= set(table.column("win"))
        assert 2 in table.column("wpw")
        assert all(table.column("matches-serial"))
        # completed + the three latency percentiles agree on every row
        assert len(set(map(tuple, (
            (row[4], row[5], row[6], row[7]) for row in table.rows
        )))) == 1
        # the serial row counts its direct exchanges like any driver
        serial_pairs, multiprocess_pairs = table.column("pairs")[:2]
        assert serial_pairs == multiprocess_pairs > 0
        # frame-pair accounting: batching cuts pairs, mux halves them
        # again, and the window re-orders without adding any
        pairs = dict(zip(
            zip(table.column("batch"), table.column("win"),
                table.column("wpw")),
            table.column("pairs"),
        ))
        unbatched = pairs[(1, 1, 1)]
        batched = pairs[(4, 1, 1)]
        assert 0 < batched < unbatched
        assert pairs[(4, 1, 2)] == batched // 2
        # an open window may add a few speculative pairs at the stream
        # tail (completions are only visible at harvest) — never fewer
        assert pairs[(4, 2, 1)] >= batched
        assert pairs[(4, 4, 1)] >= batched

    def test_c3_crashes_reduce_but_do_not_stop_the_stream(self):
        table = run_c3(quick=True)
        for crashed, issued, completed, skipped in zip(
            table.column("crashed"),
            table.column("issued"),
            table.column("completed"),
            table.column("skipped"),
        ):
            assert crashed >= 1, "the quick grid always crashes someone"
            assert skipped >= 1, "crashed processes must shed queued adds"
            assert completed >= 1, "survivors' adds must keep landing"
            assert completed <= issued
        # every cell accounts for the whole offered load
        for issued, skipped in zip(table.column("issued"), table.column("skipped")):
            assert issued + skipped == 18

    def test_c5_membership_changes_are_invisible_to_the_stream(self):
        table = run_c5(quick=True)
        assert all(table.column("matches-serial"))
        # the join and leave scenarios both actually rebalanced
        for event, moved, replayed in zip(
            table.column("event"),
            table.column("moved"),
            table.column("replayed"),
        ):
            assert moved >= 1, event
            assert replayed >= 1, event
        # every cell still lands the full offered load
        assert all(done == 16 for done in table.column("completed"))

    def test_c5_custom_scenario_via_join_leave_kwargs(self):
        table = run_experiment(
            "C5", backend="serial", join_at=[6], leave_at=[(12, 0)]
        )
        assert table.column("event") == ["custom"]
        assert all(table.column("matches-serial"))

    def test_f4_registers_read_back_last_write(self):
        table = run_f4(quick=True)
        writes = table.column("writes")
        finals = table.column("final-read")
        for write_count, final in zip(writes, finals):
            assert final == 100 + write_count - 1
