"""CLI: ``python -m repro.experiments [IDs…] [--full] [--seed N]``.

With no IDs, runs the entire suite.  ``--full`` uses the full
parameter grids (slower); the default is the quick grid the benchmarks
use.

The churn family's shard execution is selectable with ``--backend``;
``--backend socket`` additionally supports a **multi-machine** split:

* parent (runs the experiment)::

      python -m repro.experiments C1 --backend socket --listen 0.0.0.0:7000

* each worker machine (serves shard worlds until the parent is done)::

      python -m repro.experiments --connect PARENT_HOST:7000

Without ``--listen``, ``--backend socket`` spawns loopback workers on
this machine — same wire protocol, one box.
"""

from __future__ import annotations

import argparse
import sys
from typing import Tuple

from repro.experiments.registry import EXPERIMENTS, run_experiment


def _parse_address(text: str) -> Tuple[str, int]:
    """argparse adapter over the weakset layer's one address syntax."""
    from repro.errors import SimulationError
    from repro.weakset.sharding import parse_address

    try:
        return parse_address(text)
    except SimulationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_fault_plan(text: str):
    """argparse adapter over the fault-plan spec syntax."""
    from repro.errors import SimulationError
    from repro.weakset.faults import parse_fault_plan

    try:
        return parse_fault_plan(text)
    except SimulationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_leave(text: str) -> Tuple[int, int]:
    """argparse adapter for ``ROUND:MEMBER`` retire specs."""
    parts = text.split(":")
    try:
        if len(parts) != 2:
            raise ValueError
        at, member = int(parts[0]), int(parts[1])
        if at < 0 or member < 0:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected ROUND:MEMBER (two non-negative ints), got {text!r}"
        ) from None
    return at, member


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the reproduction's tables and figures.",
    )
    parser.add_argument(
        "ids",
        nargs="*",
        metavar="ID",
        help=f"experiment IDs ({', '.join(sorted(EXPERIMENTS))}); default: all",
    )
    parser.add_argument("--full", action="store_true", help="full parameter grids")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan grid experiments out over N worker processes "
        "(identical output to a serial run)",
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "inproc", "multiprocess", "socket"],
        default=None,
        help="shard-execution backend for the churn family (C1/C3): "
        "multiprocess runs each shard group in its own worker process, "
        "socket runs it behind loopback TCP (identical tables — the "
        "shard worlds replay exactly); combine socket with --listen "
        "for external workers",
    )
    parser.add_argument(
        "--round-batch",
        type=int,
        default=None,
        metavar="K",
        help="coalesce up to K lock-step rounds into one frame pair "
        "per shard worker (default 1; pays off on high-latency links "
        "— completed-add latencies are batch-invariant)",
    )
    parser.add_argument(
        "--worlds-per-worker",
        type=int,
        default=None,
        metavar="M",
        help="with --backend socket: host up to M shard worlds per "
        "worker process behind one multiplexed channel (fewer frame "
        "pairs per round — tables are identical)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="supervise the churn family's shard workers: a dead worker "
        "is respawned and its world replayed deterministically instead "
        "of failing the run (tables are identical — recovery cost shows "
        "in C4's columns)",
    )
    parser.add_argument(
        "--fault-plan",
        type=_parse_fault_plan,
        default=None,
        metavar="SPEC",
        help="inject scheduled transport faults into the churn family's "
        "shard channels: comma-separated kind:shard:at[:param][:rebalance] "
        "entries, e.g. 'kill:0:5,delay:1:3:0.5' (kinds: kill, reset, drop, "
        "duplicate, delay, truncate; at = 1-based driver exchange, or "
        "with :rebalance the 1-based rebuild frame a membership change "
        "sends that member); combine with --recover to heal, omit it to "
        "verify fail-closed",
    )
    parser.add_argument(
        "--join-at",
        type=int,
        action="append",
        default=None,
        metavar="R",
        help="C5: grow the churn cluster by one shard member at round R "
        "(repeatable; replaces C5's stock scenario grid with this one "
        "— the consistent-hash rebalance migrates the minimal key set "
        "and the tables stay backend-invariant)",
    )
    parser.add_argument(
        "--leave-at",
        type=_parse_leave,
        action="append",
        default=None,
        metavar="R:MEMBER",
        help="C5: retire shard MEMBER at round R (repeatable; combines "
        "with --join-at into one custom scenario)",
    )
    parser.add_argument(
        "--engine",
        choices=["object", "columnar"],
        default=None,
        help="counter representation for the consensus-family "
        "experiments that thread it through (S1, T1, T2, T3, F1, F2): "
        "object is per-process Python state, columnar flat arrays over "
        "a shared history index (tables are identical — S1's columns "
        "show the speed difference)",
    )
    parser.add_argument(
        "--listen",
        type=_parse_address,
        default=None,
        metavar="HOST:PORT",
        help="with --backend socket: bind the shard listener here and "
        "wait for external workers (started with --connect on their "
        "machines) instead of spawning loopback workers",
    )
    parser.add_argument(
        "--connect",
        type=_parse_address,
        default=None,
        metavar="HOST:PORT",
        help="run as a shard worker instead: serve shard worlds for the "
        "experiment parent listening at HOST:PORT until it is done "
        "(no IDs; see --listen)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.join_at is not None and any(at < 0 for at in args.join_at):
        parser.error("--join-at rounds must be >= 0")
    if args.round_batch is not None and args.round_batch < 1:
        parser.error("--round-batch must be >= 1")
    if args.worlds_per_worker is not None:
        if args.worlds_per_worker < 1:
            parser.error("--worlds-per-worker must be >= 1")
        if args.backend != "socket":
            parser.error("--worlds-per-worker requires --backend socket")
    if args.connect is not None:
        if (
            args.ids
            or args.listen is not None
            or args.backend is not None
            or args.round_batch is not None
            or args.worlds_per_worker is not None
            or args.recover
            or args.fault_plan is not None
            or args.join_at is not None
            or args.leave_at is not None
        ):
            # parent-side knobs; the worker serves whatever the parent
            # assigns, so accepting them here would mislead
            parser.error(
                "--connect runs a bare worker; drop IDs/--listen/--backend/"
                "--round-batch/--worlds-per-worker/"
                "--recover/--fault-plan/--join-at/--leave-at"
            )
        from repro.weakset.sharding import run_socket_worker

        served = run_socket_worker(args.connect)
        host, port = args.connect
        print(f"served {served} shard world(s) for {host}:{port}")
        return 0
    backend = args.backend
    if args.listen is not None:
        if backend != "socket":
            parser.error("--listen requires --backend socket")
        host, port = args.listen
        backend = f"socket:{host}:{port}"

    ids = [identifier.upper() for identifier in args.ids] or sorted(EXPERIMENTS)
    unknown = [identifier for identifier in ids if identifier not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)}")
    if args.engine == "columnar":
        from repro.core.columnar import numpy_available

        if not numpy_available():
            from repro.runtime.columnar_engine import NUMPY_REASON

            print(
                f"warning: --engine columnar cannot engage ({NUMPY_REASON}); "
                "every run takes the object engine, so the tables match "
                "--engine object",
                file=sys.stderr,
            )

    for identifier in ids:
        table = run_experiment(
            identifier,
            quick=not args.full,
            seed=args.seed,
            jobs=args.jobs,
            backend=backend,
            round_batch=args.round_batch,
            worlds_per_worker=args.worlds_per_worker,
            recover=args.recover or None,
            fault_plan=args.fault_plan,
            join_at=args.join_at,
            leave_at=args.leave_at,
            engine=args.engine,
        )
        print(table.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
