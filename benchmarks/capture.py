"""Capture the performance trajectory into ``BENCH_micro.json``.

Runs the micro-benchmarks (``benchmarks/bench_micro.py`` via
pytest-benchmark) plus the T1/F1 quick experiment grids, and writes a
machine-readable snapshot next to the repo root.  Future PRs re-run
this to see whether the substrate got faster or slower — the JSON is
the trajectory, the tables in PERFORMANCE.md are the narrative.

Usage::

    PYTHONPATH=src python benchmarks/capture.py          # writes BENCH_micro.json
    PYTHONPATH=src python benchmarks/capture.py --output /tmp/bench.json
    make bench                                           # same thing

The captured shape::

    {
      "schema": 1,
      "python": "3.11.7",
      "platform": "...",
      "micro_us": {"test_bench_counter_update_interned": 85.2, ...},
      "experiments_s": {"T1_quick": 0.21, "F1_quick": 0.18, "T3_full": 4.1},
      "seed_baseline_us": {...}   # frozen numbers from the seed commit
    }
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The seed commit's numbers on the reference machine (recorded before
#: the fast-path engine landed), kept in the capture so every later
#: snapshot carries its own baseline.  ``counter_update`` baselines are
#: measured on the *shared-trunk* workload via the tuple-path twin
#: benches, which execute exactly the seed representation — see
#: PERFORMANCE.md for the methodology.
SEED_BASELINE_US = {
    "test_bench_lockstep_round_throughput": 2265.6,
    "test_bench_payload_size": 539.3,
}

#: Numbers recorded on this reference machine at the PR-4 commit, for
#: the hot path PR 5 overhauled (the drifting event loop).  Same
#: caveat as the seed baseline: a same-machine trajectory anchor,
#: meaningless on other hardware — scripts/check_perf.py only
#: enforces it under --strict.  (The spawn-dominated churn shapes are
#: deliberately NOT anchored: their wall-clock is process start-up
#: noise, not code.)
PR4_RECORDED_US = {
    "test_bench_drifting_round_throughput": 9235.074,
}

#: Recorded at commit b09513f, the last one whose single draws
#: re-seeded ``random.Random(repr(key))`` per link (stream v1), on the
#: reference machine (2 vCPU Intel Xeon, Python 3.11.7): Algorithm 3 at
#: n=256 under random late delays, the configuration stream v2's keyed
#: rows target.  A same-machine anchor like the two above, enforced
#: only under --strict.
STREAM_V1_RECORDED_US = {
    "test_bench_ess_uniform_n256": 8396360.87,
}

#: Recorded at commit 264809b, the last one on stream v2 (keyed blake2b
#: rows, drawn one late broadcast at a time), on the reference machine
#: (2 vCPU Intel Xeon, Python 3.11.7): Algorithm 3 at n=256 on the
#: lock-step matrix engine, whose late delays stream v3 draws as one
#: matrix per round.  A same-machine anchor like the ones above,
#: enforced only under --strict.
STREAM_V2_RECORDED_US = {
    "test_bench_ess_uniform_columnar_n256": 381225.801,
}

#: Recorded at commit 36e6bc3, the last one whose lock-step numpy path
#: stored a dense n × width counter matrix over every history the
#: index held, on the reference machine (2 vCPU Intel Xeon, Python
#: 3.11.7; median of three bench means): the end-to-end heartbeat
#: shape over 40 rounds, where most columns are dead.  A same-machine
#: anchor like the ones above, enforced only under --strict.
DENSE_LAYOUT_RECORDED_US = {
    "test_bench_heartbeat_columnar_n10k_r40": 1759354.0,
}

#: Recorded at commit 799af11, the last one carrying the JSON frame
#: codec, on the reference machine (2 vCPU Intel Xeon, Python 3.11.7):
#: the JSON twins of the two frame-codec benches, the yardstick the
#: binary codec's floors were set against.  A same-machine anchor like
#: the ones above, enforced only under --strict.
JSON_CODEC_RECORDED_US = {
    "test_bench_frame_codec_json": 27898.157,
    "test_bench_frame_codec_nested_json": 259071.148,
}


def run_micro() -> dict[str, float]:
    """Run bench_micro.py under pytest-benchmark; return mean µs by test."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            str(REPO_ROOT / "benchmarks" / "bench_micro.py"),
            "-q",
            f"--benchmark-json={json_path}",
        ]
        completed = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
        if completed.returncode != 0:
            sys.stderr.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            raise SystemExit("micro-benchmarks failed")
        blob = json.loads(json_path.read_text())
    return {
        bench["name"]: round(bench["stats"]["mean"] * 1e6, 3)
        for bench in blob["benchmarks"]
    }


def run_experiments() -> dict[str, float]:
    """Wall-clock the quick T1/F1 grids and the full T3 grid."""
    from repro.experiments.registry import run_experiment

    timings: dict[str, float] = {}
    for label, experiment_id, quick in [
        ("T1_quick", "T1", True),
        ("F1_quick", "F1", True),
        ("T3_full", "T3", False),
        ("C1_quick", "C1", True),
        ("C3_quick", "C3", True),
        ("S1_quick", "S1", True),
    ]:
        start = time.perf_counter()
        run_experiment(experiment_id, quick=quick, seed=0)
        timings[label] = round(time.perf_counter() - start, 3)
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_micro.json",
        help="where to write the snapshot (default: repo root)",
    )
    parser.add_argument(
        "--skip-experiments",
        action="store_true",
        help="capture only the micro-benchmarks",
    )
    args = parser.parse_args(argv)

    snapshot = {
        "schema": 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "micro_us": run_micro(),
        "seed_baseline_us": SEED_BASELINE_US,
        "pr4_recorded_us": PR4_RECORDED_US,
        "stream_v1_recorded_us": STREAM_V1_RECORDED_US,
        "stream_v2_recorded_us": STREAM_V2_RECORDED_US,
        "dense_layout_recorded_us": DENSE_LAYOUT_RECORDED_US,
        "json_codec_recorded_us": JSON_CODEC_RECORDED_US,
    }
    if not args.skip_experiments:
        snapshot["experiments_s"] = run_experiments()

    micro = snapshot["micro_us"]
    speedups: dict[str, float] = {}
    # Same-machine, same-workload twin: the scan bench runs the seed's
    # tuple-history representation on the identical input.
    fast = micro.get("test_bench_counter_update_interned")
    twin = micro.get("test_bench_counter_update_scan")
    if fast and twin:
        speedups["counter_update_vs_tuple_twin"] = round(twin / fast, 2)
    # The lockstep comparison uses the *recorded seed number* (the seed
    # engine's full-trace run of this exact workload) — the current
    # full-trace twin also contains this PR's other optimizations, so
    # it is reported separately, not as the seed baseline.
    fast = micro.get("test_bench_lockstep_round_throughput")
    seed = SEED_BASELINE_US.get("test_bench_lockstep_round_throughput")
    if fast and seed:
        speedups["lockstep_aggregate_vs_seed_recorded"] = round(seed / fast, 2)
    full_now = micro.get("test_bench_lockstep_round_throughput_full_trace")
    if fast and full_now:
        speedups["lockstep_aggregate_vs_full_trace_now"] = round(full_now / fast, 2)
    # Runtime-kernel additions (this PR): the drifting scheduler's
    # aggregate sink against its own full-trace twin, and the weak-set
    # cluster's add wave against the same wave over 4 shard clusters
    # (the sharded ratio is a scale knob, not a speedup — 4 shards do
    # 4× the scheduler work for ¼ the per-shard value population).
    fast = micro.get("test_bench_drifting_round_throughput")
    full_now = micro.get("test_bench_drifting_round_throughput_full_trace")
    if fast and full_now:
        speedups["drifting_aggregate_vs_full_trace"] = round(full_now / fast, 2)
    single = micro.get("test_bench_weakset_cluster_adds")
    sharded = micro.get("test_bench_weakset_sharded_adds")
    if single and sharded:
        speedups["weakset_sharded4_vs_single_cost"] = round(sharded / single, 2)
    # Shard-backend cost (this PR): the same churn stream on the serial
    # backend vs one worker process per shard.  A ratio > 1 means the
    # process seam costs more than it buys on this box (expected on a
    # single core — the workers serialize); multi-core hosts are where
    # the multiprocess backend pays off.
    serial = micro.get("test_bench_churn_workload_serial")
    multiproc = micro.get("test_bench_churn_workload_multiprocess")
    if serial and multiproc:
        speedups["churn_multiprocess_vs_serial_cost"] = round(multiproc / serial, 2)
    # Transport split (PR 4): the socket backend's end-to-end cost on
    # the same stream (spawn + TCP handshake included, like the
    # multiprocess twin).
    sock = micro.get("test_bench_churn_workload_socket")
    if serial and sock:
        speedups["churn_socket_vs_serial_cost"] = round(sock / serial, 2)
    # Hot-loop overhaul (PR 5): the binary frame codec against the
    # recorded JSON codec on identical messages (a trajectory ratio
    # since the JSON codec was deleted), the calendar event queue
    # against the heap twin on identical churn and the round-batched
    # socket stream against the per-round twin (same-run ratios).
    binary_codec = micro.get("test_bench_frame_codec_binary")
    recorded = JSON_CODEC_RECORDED_US.get("test_bench_frame_codec_json")
    if binary_codec and recorded:
        speedups["frame_codec_binary_vs_json_recorded"] = round(
            recorded / binary_codec, 2
        )
    heap_queue = micro.get("test_bench_event_queue_heap")
    calendar_queue = micro.get("test_bench_event_queue_calendar")
    if heap_queue and calendar_queue:
        speedups["event_queue_calendar_vs_heap"] = round(
            heap_queue / calendar_queue, 2
        )
    batched = micro.get("test_bench_churn_workload_socket_batched")
    if sock and batched:
        speedups["churn_socket_batched_vs_unbatched"] = round(sock / batched, 2)
    # Pipelined driver (PR 7): same-run twins again.  The pipelined
    # pair runs the identical steady-state batched workload across a
    # simulated 2 ms-each-way link (benchmarks' _DelayedLink) — the
    # deployment the window exists for; on zero-latency loopback there
    # is no round-trip bill to hide and the window is ≈ parity.  The
    # mux pair is end-to-end on plain loopback: one worker process
    # hosting both shard worlds halves the spawns and the frame pairs.
    # The nested-codec ratio exercises the flattened 'W' layout on
    # structured payloads (the plain pair's payloads are flat strings),
    # against the recorded JSON codec like the plain pair.
    linked_serial = micro.get("test_bench_shard_rounds_linked_unpipelined")
    linked_windowed = micro.get("test_bench_shard_rounds_linked_pipelined")
    if linked_serial and linked_windowed:
        speedups["churn_socket_pipelined_vs_unpipelined"] = round(
            linked_serial / linked_windowed, 2
        )
    mux = micro.get("test_bench_churn_workload_socket_mux")
    if batched and mux:
        speedups["churn_socket_mux_vs_per_world"] = round(batched / mux, 2)
    nested_binary = micro.get("test_bench_frame_codec_nested_binary")
    recorded = JSON_CODEC_RECORDED_US.get("test_bench_frame_codec_nested_json")
    if nested_binary and recorded:
        speedups["frame_codec_nested_vs_json_recorded"] = round(
            recorded / nested_binary, 2
        )
    # Self-healing (PR 6): the multiprocess stream with one worker
    # killed and recovered mid-run against its unfaulted twin.  The
    # ratio is the whole recovery bill — detection, respawn, replay —
    # amortized over this short stream; longer streams amortize the
    # same absolute cost further.
    recovery = micro.get("test_bench_shard_recovery_time")
    if multiproc and recovery:
        speedups["shard_recovery_time"] = round(recovery / multiproc, 2)
    # Elastic membership (PR 8): one join_shard() rebalance against its
    # equivalence yardstick — constructing the post-join membership
    # from scratch and driving the identical schedule.  > 1 means the
    # incremental rebalance (migrate + replay only the rebuilt worlds)
    # beats a full rebuild; the floor only trips if it blows past it.
    rebalance = micro.get("test_bench_shard_rebalance_join")
    fresh = micro.get("test_bench_shard_rebalance_fresh_twin")
    if rebalance and fresh:
        speedups["shard_rebalance_time"] = round(fresh / rebalance, 2)
    # Columnar aggregate engine (PR 9): same-run twins of the heartbeat
    # lock-step round at two scales.  n=100 guards against a small-n
    # regression (floor ≈ parity); n=10,000 is the reason the engine
    # exists — the object engine's per-round cost is quadratic-ish in n
    # (every process merges every sender's counter dict), the columnar
    # engine's a few matrix passes, so the ratio grows with n.
    for scale in ("n100", "n10k"):
        object_cost = micro.get(f"test_bench_aggregate_round_object_{scale}")
        columnar_cost = micro.get(f"test_bench_aggregate_round_columnar_{scale}")
        if object_cost and columnar_cost:
            speedups[f"aggregate_round_columnar_vs_object_{scale}"] = round(
                object_cost / columnar_cost, 2
            )
    # Columnar drifting engine (PR 10): the event-driven twins of the
    # pair above — the same anonymity regime driven through the
    # drifting scheduler's delivery queue.  The object loop pays a
    # Python broadcast walk per sender per round; the columnar engine
    # drains delivery-tick columns as masked matrix passes, so again
    # the ratio grows with n while n=100 guards the small-n switch.
    for scale in ("n100", "n10k"):
        object_cost = micro.get(f"test_bench_drifting_round_object_{scale}")
        columnar_cost = micro.get(f"test_bench_drifting_round_columnar_{scale}")
        if object_cost and columnar_cost:
            speedups[f"drifting_round_columnar_vs_object_{scale}"] = round(
                object_cost / columnar_cost, 2
            )
    drifting = micro.get("test_bench_drifting_round_throughput")
    recorded = PR4_RECORDED_US.get("test_bench_drifting_round_throughput")
    if drifting and recorded:
        speedups["drifting_vs_pr4_recorded"] = round(recorded / drifting, 2)
    # Keyed randomness: one broadcast's late-delay row through stream v3
    # against the per-link SHA-512 + Mersenne-Twister reference, and one
    # lock-step round drawn as a matrix against the same round as rows
    # (both same run), and the consensus workload the draws dominated
    # against its anchor.
    row_v3 = micro.get("test_bench_delay_row_v3_n64")
    row_v1 = micro.get("test_bench_delay_row_v1_reference_n64")
    if row_v3 and row_v1:
        speedups["delay_row_v3_vs_v1_n64"] = round(row_v1 / row_v3, 2)
    round_matrix = micro.get("test_bench_delay_round_matrix_n64")
    round_rows = micro.get("test_bench_delay_round_rows_n64")
    if round_matrix and round_rows:
        speedups["delay_round_matrix_vs_rows_n64"] = round(
            round_rows / round_matrix, 2
        )
    ess = micro.get("test_bench_ess_uniform_n256")
    recorded = STREAM_V1_RECORDED_US.get("test_bench_ess_uniform_n256")
    if ess and recorded:
        speedups["ess_uniform_n256_vs_stream_v1_recorded"] = round(recorded / ess, 2)
    # Algorithm 3 on the lock-step matrix engine: the same ESS run as
    # boolean proposal matrices and counter rows, against the object
    # engine in the same capture.
    ess_columnar = micro.get("test_bench_ess_uniform_columnar_n256")
    if ess and ess_columnar:
        speedups["ess_uniform_columnar_vs_object_n256"] = round(
            ess / ess_columnar, 2
        )
    recorded = STREAM_V2_RECORDED_US.get("test_bench_ess_uniform_columnar_n256")
    if ess_columnar and recorded:
        speedups["ess_uniform_columnar_n256_vs_stream_v2_recorded"] = round(
            recorded / ess_columnar, 2
        )
    # Live-column counter matrices: the 40-round heartbeat bench
    # against its recording on the dense layout.
    heartbeat = micro.get("test_bench_heartbeat_columnar_n10k_r40")
    recorded = DENSE_LAYOUT_RECORDED_US.get("test_bench_heartbeat_columnar_n10k_r40")
    if heartbeat and recorded:
        speedups["heartbeat_n10k_r40_vs_dense_recorded"] = round(
            recorded / heartbeat, 2
        )
    if speedups:
        snapshot["speedups"] = speedups

    args.output.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    for name, mean in sorted(micro.items()):
        print(f"  {name}: {mean} µs")
    for name, factor in sorted(speedups.items()):
        print(f"  speedup[{name}]: {factor}×")
    for name, seconds in sorted(snapshot.get("experiments_s", {}).items()):
        print(f"  {name}: {seconds} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
