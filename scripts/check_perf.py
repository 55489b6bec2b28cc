"""Perf smoke: fail when recorded key speedups fall below their floors.

``BENCH_micro.json`` is the performance trajectory; this script is the
tripwire that keeps it honest.  It reads a snapshot (the committed one
by default, or a freshly captured file via ``--snapshot``) and checks
the ``speedups`` section against **tolerant floors** — far below the
recorded ratios, so machine-to-machine jitter does not cry wolf, but
high enough that losing a fast path outright (the columnar engine
silently declining, the aggregate sink regressing to event objects)
fails loudly.

Two classes of keys:

* **same-run ratios** (checked always): both sides of the ratio are
  measured in the same capture on the same machine — engine vs engine,
  aggregate vs full trace.  These are stable anywhere, including CI
  runners, so the bench-smoke job captures fresh numbers and runs this
  script over them.
* **trajectory ratios** (checked only with ``--strict``): current
  numbers against values recorded on the reference machine at
  earlier commits (the anchors kept in ``benchmarks/capture.py``).
  Meaningful only on that machine — ``--strict`` is for the box that
  regenerates ``BENCH_micro.json`` before committing it.

Usage::

    PYTHONPATH=src python scripts/check_perf.py              # committed snapshot
    PYTHONPATH=src python scripts/check_perf.py --strict     # + trajectory floors
    PYTHONPATH=src python scripts/check_perf.py --snapshot /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: same-run ratio floors: (key, floor, what losing it would mean)
SAME_RUN_FLOORS = [
    (
        "counter_update_vs_tuple_twin",
        3.0,
        "the interned-history fused counter update lost to the tuple twin",
    ),
    (
        "lockstep_aggregate_vs_full_trace_now",
        2.0,
        "the aggregate trace sink no longer skips event allocation",
    ),
    (
        "drifting_aggregate_vs_full_trace",
        1.0,
        "the drifting aggregate sink costs more than full traces",
    ),
    (
        "shard_rounds_linked_batched_vs_unbatched",
        1.2,
        "round batching no longer saves link round trips (measured "
        "across the benches' simulated 2 ms link)",
    ),
    (
        "shard_rebuild_linked_one_frame_vs_per_request",
        3.0,
        "rebuilding a shard world no longer crosses the link in one "
        "frame (measured across the benches' simulated 2 ms link "
        "against the same replay sent one request per frame)",
    ),
    (
        "churn_socket_mux_vs_per_world",
        1.0,
        "multiplexing shard worlds onto one worker stopped paying for "
        "itself against per-world processes",
    ),
    (
        "aggregate_round_columnar_vs_object_n10k",
        10.0,
        "the columnar engine lost its order-of-magnitude edge over the "
        "object engine at n=10,000 (the whole-round matrix path "
        "presumably stopped engaging)",
    ),
    (
        "aggregate_round_columnar_vs_object_n100",
        0.9,
        "the columnar engine costs more than the object engine at "
        "n=100 — the representation switch should never lose at small n",
    ),
    (
        "drifting_round_columnar_vs_object_n10k",
        5.0,
        "the drifting columnar engine lost its edge over the object "
        "event loop at n=10,000 (delivery-tick column draining "
        "presumably stopped engaging, or the broadcast fast paths "
        "regressed to per-receiver Python loops)",
    ),
    (
        "drifting_round_columnar_vs_object_n100",
        0.9,
        "the drifting columnar engine costs more than the object event "
        "loop at n=100 — the switch should never lose at small n",
    ),
    (
        "drifting_es_n64_drained_vs_per_envelope",
        1.2,
        "the drifting loop lost its edge over one queue event per "
        "delivered envelope on the es_drifting shape (arrivals presumably "
        "stopped being drained when the receiver computes)",
    ),
    (
        "ess_uniform_columnar_vs_object_n256",
        2.0,
        "Algorithm 3 on the lock-step matrix engine lost its edge over "
        "the object engine at n=256 (the ESS matrix path presumably "
        "stopped engaging, or its compute regressed to per-process "
        "Python loops)",
    ),
    (
        "delay_row_v3_vs_v1_n64",
        5.0,
        "a stream-v3 late-delay row lost its edge over re-seeding a "
        "SHA-512 Mersenne Twister per link (the row form presumably "
        "stopped squeezing one block per 64 receivers)",
    ),
    (
        "delay_round_matrix_vs_rows_n64",
        2.0,
        "a round of late delays drawn as one matrix lost its edge over "
        "the same round drawn row by row (the matrix form presumably "
        "fell back to per-row or per-draw Python)",
    ),
    (
        "weakset_stream_r200_vs_verbatim_line15",
        5.0,
        "Algorithm 4's line 15 lost its edge over re-reading every slot "
        "at every compute (the fold presumably re-reads messages it has "
        "already folded, or slots that did not grow)",
    ),
    (
        "frame_codec_proposed_bulk_vs_walker",
        1.5,
        "a get's all-strings PROPOSED set lost its edge on the codec's "
        "bulk lane over the per-value walker (a second layout at parity "
        "with the walker should be deleted)",
    ),
    (
        "heartbeat_n10k_r40_narrow_vs_int64_counters",
        1.25,
        "the 40-round heartbeat at n=10,000 lost its edge over the same "
        "run with int64 counters (the counter matrices presumably went "
        "back to int64, or the lock-step bump and fold to 2-D gathers "
        "and broadcast minimums)",
    ),
    (
        "shard_rebalance_time",
        0.5,
        "a join rebalance costs more than twice a from-scratch rebuild "
        "of the same membership (one replay frame per rebuilt world "
        "stopped paying for itself)",
    ),
]

#: reference-machine trajectory floors (--strict only)
STRICT_FLOORS = [
    (
        "lockstep_aggregate_vs_seed_recorded",
        2.0,
        "lock-step throughput regressed toward the seed recording",
    ),
    (
        "drifting_vs_pr4_recorded",
        1.5,
        "the drifting hot-loop overhaul regressed below its PR-5 bar",
    ),
    (
        "ess_uniform_n256_vs_stream_v1_recorded",
        3.0,
        "ESS consensus under random delays regressed toward the "
        "per-link re-seeding cost of stream v1",
    ),
    (
        "ess_uniform_columnar_n256_vs_stream_v2_recorded",
        2.0,
        "Algorithm 3 on the lock-step matrix engine regressed toward its "
        "stream-v2 cost (the round's late delays presumably stopped "
        "being drawn as one matrix)",
    ),
    (
        "heartbeat_n10k_r40_vs_dense_recorded",
        1.6,
        "the 40-round heartbeat at n=10,000 regressed toward the dense "
        "counter layout (the lock-step fold presumably stopped dropping "
        "dead columns)",
    ),
    (
        "heartbeat_n10k_r40_vs_per_process_tick_recorded",
        2.0,
        "the 40-round heartbeat at n=10,000 regressed toward a lock-step "
        "tick with per-process Python (link plans presumably answer "
        "every silent sender again, or trace records went back to one "
        "write per process)",
    ),
    (
        "frame_codec_binary_vs_json_recorded",
        1.4,
        "the binary frame codec lost its edge over the recorded JSON "
        "codec",
    ),
    (
        "frame_codec_nested_vs_json_recorded",
        1.3,
        "the per-value walker lost its edge over the recorded JSON "
        "codec on nested payloads",
    ),
]


def check(snapshot_path: Path, strict: bool) -> int:
    try:
        snapshot = json.loads(snapshot_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"perf check: cannot read {snapshot_path}: {error}")
        return 1
    speedups = snapshot.get("speedups", {})
    floors = list(SAME_RUN_FLOORS) + (list(STRICT_FLOORS) if strict else [])
    failures = []
    for key, floor, meaning in floors:
        value = speedups.get(key)
        if value is None:
            failures.append(f"  {key}: missing from {snapshot_path.name}")
        elif value < floor:
            failures.append(
                f"  {key}: {value}x is below the {floor}x floor — {meaning}"
            )
        else:
            print(f"  ok {key}: {value}x (floor {floor}x)")
    if failures:
        print("perf check FAILED:")
        print("\n".join(failures))
        return 1
    print(f"perf check ok: {len(floors)} floors hold in {snapshot_path.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--snapshot",
        type=Path,
        default=REPO_ROOT / "BENCH_micro.json",
        help="snapshot to check (default: the committed BENCH_micro.json)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also enforce the reference-machine trajectory floors",
    )
    args = parser.parse_args(argv)
    return check(args.snapshot, args.strict)


if __name__ == "__main__":
    sys.exit(main())
