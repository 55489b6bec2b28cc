"""End-to-end benchmark of the simulator: four paper workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload ess_lockstep_crash --seed 1 \\
        --seconds 25 --trace 0

One invocation measures one workload for ``--seconds`` seconds: it runs
an untimed tiny warm-up, then instance after instance (instance ``i``
uses seed ``seed*1000+i``) until the time is up, checks every output,
and prints every metric ``BENCHMARK.json`` declares, by name with its
unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced.  The
machine's speed drifts by tens of percent for minutes at a time, so
after every instance the run also times a fixed reference pass that
uses none of the program, and gives every instance time at the pace
where one pass takes ``REFERENCE_PASS_S``: measured time times
``REFERENCE_PASS_S`` over the run's median pass.  A drift slows the
instance and the pass alike and cancels out, while a change to the
program moves only the instance.  Set-up is allocation work, which the
host's drifts slow more than computation, so before every instance but
the first the run times an allocation pass, and gives set-up times at
the pace where one allocation pass takes ``ALLOCATION_PASS_S``.  The
measured seconds are printed alongside.  Every run keeps to one CPU,
which its forked weak-set workers inherit, so the passes always run on
the core the instances run on.
``--trace 1`` runs every instance twice, untraced and then with every
layer boundary wrapped (see ``tracer.py``), and reports the per-layer
metrics plus the tracing overhead; running the pair back to back keeps
the machine's slow drifts out of the overhead.

Without ``--workload`` every workload runs, one after another, each in
a fresh child interpreter so peak RSS and the program's caches do not
leak between workloads.  ``--append FILE`` adds one JSON line per run
for ``compare.py``; ``--spans DIR`` writes the first traced instance's
spans to ``DIR/spans-<workload>.jsonl``.

Any failed check stops the run with a non-zero exit status, naming the
workload, seed and instance.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = ROOT / "BENCHMARK.json"
#: instances every run measures, however short ``--seconds`` is; the
#: printed fingerprint digest covers exactly these
MIN_INSTANCES = 3
#: instance seeds are ``seed*1000+i``
MAX_INSTANCES = 999
#: one reference pass, run after every instance, takes about 30 ms on
#: the reference box in four parts of 6–10 ms: interpreter arithmetic;
#: seeding ``random.Random`` from strings (SHA-512 and Mersenne-Twister
#: set-up, the C work behind the program's keyed draws); whole-matrix
#: numpy passes over the heartbeat engine's matrix shape; and numpy
#: calls on small arrays
REFERENCE_ITERATIONS = 75_000
REFERENCE_SEEDS = 750
REFERENCE_MATRIX = (10_000, 128)
REFERENCE_MATRIX_PASSES = 2
REFERENCE_SMALL_CALLS = 2_000
#: the pace instance times are given at: seconds on a machine where one
#: reference pass takes exactly this long
REFERENCE_PASS_S = 0.030
#: one allocation pass, run before every instance but the first, builds
#: this many small objects, each with a dict and a list, as the
#: workloads' set-up builds algorithms and environments; about 9 ms on
#: the reference box
ALLOCATION_OBJECTS = 20_000
#: the pace set-up times are given at: seconds on a machine where one
#: allocation pass takes exactly this long
ALLOCATION_PASS_S = 0.009
#: Linux ``prctl`` option: the signal a child gets when its parent dies
PR_SET_PDEATHSIG = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, in children)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", metavar="FILE", help="add one JSON line per run")
    parser.add_argument("--spans", metavar="DIR", help="write first-instance spans")
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    # numpy asks for transparent huge pages on large arrays, and whether
    # it gets them depends on the host's memory fragmentation: with them
    # the heartbeat workload's run-to-run spread doubled on the reference
    # box.  numpy reads this when it is first imported.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        import repro
    except ImportError as error:
        sys.exit(f"benchmark: cannot import the program from {src}: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"benchmark: repro was imported from {repro.__file__}, not {src}")


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def _fail(workload: str, seed: int, index: int, attempted: int, messages) -> None:
    """The correctness gate: name the failing instance and stop."""
    print(
        f"FAILED workload={workload} seed={seed} instance={index} "
        f"instance_seed={seed * 1000 + index}:",
        file=sys.stderr,
    )
    for message in list(messages)[:5]:
        print(f"  {message}", file=sys.stderr)
    _emit(False, max(attempted, 1), max(len(messages), 1), {})
    sys.exit(1)


def _indices(seconds: float):
    """Instance indices 0, 1, … until ``seconds`` have passed."""
    start = time.perf_counter()
    index = 0
    while index < MAX_INSTANCES and (
        index < MIN_INSTANCES or time.perf_counter() - start < seconds
    ):
        yield index
        index += 1


def _instance(name, run_instance, seed, index, attempted, tracer=None):
    """Run and check one instance; return its outcome and wall time.

    ``attempted`` counts the run's operations before this instance, for
    the result line the correctness gate prints.
    """
    from workloads import reset_program_state

    reset_program_state()
    if tracer is not None:
        tracer.install()
    began = time.perf_counter()
    try:
        if tracer is None:
            outcome = run_instance(seed * 1000 + index)
        else:
            with tracer.instance(index):
                outcome = run_instance(seed * 1000 + index)
    except Exception as error:  # the program failed: gate, never retry
        _fail(name, seed, index, attempted + 1, [f"{type(error).__name__}: {error}"])
    finally:
        wall = time.perf_counter() - began
        if tracer is not None:
            tracer.uninstall()
    if outcome.failures:
        _fail(name, seed, index, attempted + outcome.attempted, outcome.failures)
    return outcome, wall


def _end_to_end(name, run_instance, seed, seconds) -> tuple:
    """Untraced instances for ``seconds``, each followed by a reference
    pass and all but the first preceded by an allocation pass; return
    their outcomes, the end-to-end metrics and the measured values
    behind them."""
    from workloads import reset_program_state

    outcomes, allocation, reference = [], [], []
    attempted = 0
    for index in _indices(seconds):
        if index:
            # Timed on the cleared program state the set-up also starts
            # from: with the program's tables still full, the garbage
            # collections the pass triggers would time the program's
            # heap.  Instance 0 goes without, as its peak memory is read.
            reset_program_state()
            allocation.append(_allocation_s())
        outcome, _wall = _instance(name, run_instance, seed, index, attempted)
        attempted += outcome.attempted
        outcomes.append(outcome)
        if index == 0:
            # Read before the reference pass allocates its matrices.
            # Later instances raise the peak by allocator fragmentation,
            # which depends on how many ran and in which order.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference.append(_reference_s())
    measured = {
        "setup_s": statistics.median(outcome.setup_s for outcome in outcomes),
        "instance_s.p50": statistics.median(outcome.run_s for outcome in outcomes),
        "deliveries_per_s.p50": statistics.median(
            outcome.deliveries / outcome.run_s for outcome in outcomes
        ),
        "allocation_s.p50": statistics.median(allocation),
        "reference_s.p50": statistics.median(reference),
    }
    pace = REFERENCE_PASS_S / measured["reference_s.p50"]
    setup_pace = ALLOCATION_PASS_S / measured["allocation_s.p50"]
    return outcomes, measured, {
        "setup_s": measured["setup_s"] * setup_pace,
        "instance_s.p50": measured["instance_s.p50"] * pace,
        "deliveries_per_s.p50": measured["deliveries_per_s.p50"] / pace,
        "peak_rss_mb": peak_rss_mb,
    }


@functools.cache
def _reference_arrays():
    """numpy and the reference pass's arrays, or None without numpy."""
    try:
        import numpy
    except ImportError:
        return None
    rows, columns = REFERENCE_MATRIX
    matrix = numpy.arange(rows * columns, dtype=numpy.int64).reshape(rows, columns) % 97
    return numpy, matrix, numpy.empty_like(matrix), numpy.arange(0, rows, 2), numpy.arange(64)


def _reference_s() -> float:
    """Time one reference pass: fixed work that calls nothing of the
    program."""
    arrays = _reference_arrays()
    began = time.perf_counter()
    total = 0
    for number in range(REFERENCE_ITERATIONS):
        total += number * number % 7
    for number in range(REFERENCE_SEEDS):
        random.Random(repr((total, number))).random()
    if arrays is not None:
        numpy, matrix, copy, half, small = arrays
        for _ in range(REFERENCE_MATRIX_PASSES):
            copy[:, :] = matrix
            copy[half] = numpy.minimum(matrix[half], matrix[7])
            copy.max(axis=1)
        for _ in range(REFERENCE_SMALL_CALLS):
            (small + 1).max()
    return time.perf_counter() - began


class _Allocated:
    """One object of the allocation pass."""

    def __init__(self, number: int):
        self.number = number
        self.seen = {}
        self.items = [number]


def _allocation_s() -> float:
    """Time one allocation pass: build ``ALLOCATION_OBJECTS`` objects
    that are nothing of the program; they are dropped untimed."""
    began = time.perf_counter()
    objects = [_Allocated(number) for number in range(ALLOCATION_OBJECTS)]
    elapsed = time.perf_counter() - began
    del objects
    return elapsed


def _keep_to_one_cpu() -> None:
    """Run on one CPU from here on; forked workers inherit it.

    With the instance and its reference passes on the same core, a
    neighbour slowing that core slows both.  The weak-set's shard
    workers then take turns with the parent, which waits for their
    replies anyway, instead of each seeing a differently loaded core.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _end_children_with_run() -> None:
    """Let no forked weak-set worker outlive the run.

    Every normal or failing path closes the cluster, which joins its
    workers; a SIGTERM from outside becomes ``SystemExit`` so that those
    paths still run.  Each forked child goes back to the default SIGTERM,
    which the cluster's ``close`` may send it, and on Linux asks to be
    killed when the run ends without closing it.
    """
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None

    def in_child():
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        if libc is not None:
            libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)

    os.register_at_fork(after_in_child=in_child)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _per_layer(name, run_instance, seed, seconds, spans_dir) -> tuple:
    """Every instance untraced, then traced; return both sets of
    outcomes and the per-layer metrics."""
    tracer = Tracer(record_spans=spans_dir is not None)
    untraced, traced = [], []
    untraced_s = traced_s = workers_s = 0.0
    attempted = 0
    for index in _indices(seconds):
        plain, wall = _instance(name, run_instance, seed, index, attempted)
        untraced_s += wall
        attempted += plain.attempted
        workers_before = _children_cpu_s()
        wrapped, wall = _instance(name, run_instance, seed, index, attempted, tracer)
        traced_s += wall
        workers_s += _children_cpu_s() - workers_before
        attempted += wrapped.attempted
        if plain.fingerprint != wrapped.fingerprint:
            _fail(name, seed, index, attempted, ["traced output differs from untraced"])
        untraced.append(plain)
        traced.append(wrapped)
    metrics = tracer.metrics()
    metrics["weakset.transport.exchanges"] = sum(
        outcome.counters.get("exchanges", 0) for outcome in traced
    )
    metrics["weakset.transport.frame_pairs"] = sum(
        outcome.counters.get("frame_pairs", 0) for outcome in traced
    )
    # average cores the forked shard workers kept busy while traced
    metrics["weakset.workers.cores_busy"] = workers_s / traced_s
    metrics["trace_overhead"] = 100.0 * (traced_s / untraced_s - 1)
    for boundary in tracer.absent:
        print(f"absent boundary {boundary}")
    if spans_dir is not None:
        path = Path(spans_dir) / f"spans-{name}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        print(f"spans {tracer.write_spans(str(path))} written to {path}")
    return untraced, traced, metrics


def _fingerprint_line(name: str, seed: int, outcomes) -> str:
    totals = {
        key: sum(outcome.fingerprint[key] for outcome in outcomes)
        for key in ("decisions", "rounds", "deliveries", "adds")
    }
    head = "".join(o.fingerprint["digest"] for o in outcomes[:MIN_INSTANCES])
    digest = hashlib.sha256(head.encode()).hexdigest()[:16]
    fields = " ".join(f"{key}={value}" for key, value in totals.items())
    return (
        f"fingerprint {name} seed={seed} instances={len(outcomes)} {fields} "
        f"digest{MIN_INSTANCES}={digest}"
    )


def run_workload(args, spec) -> None:
    _import_program()
    _keep_to_one_cpu()
    _end_children_with_run()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    name, run_instance = args.workload, WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    # untimed warm-up, on a seed no instance of this run uses
    run_instance(args.seed * 1000 + MAX_INSTANCES, tiny=True)
    if args.trace:
        outcomes, traced, values = _per_layer(
            name, run_instance, args.seed, seconds, args.spans
        )
        measured = {}
        declared = spec["per_layer"]
    else:
        outcomes, measured, values = _end_to_end(name, run_instance, args.seed, seconds)
        traced = []
        declared = spec["end_to_end"]
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        sys.exit(
            "benchmark: measured metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    print(f"workload {name} seed={args.seed} instances={len(outcomes)} trace={args.trace}")
    for metric, entry in metrics.items():
        print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    for metric, value in measured.items():
        print(f"  measured {metric:<31} {value:>14.6g}")
    print(_fingerprint_line(name, args.seed, outcomes))
    attempted = sum(outcome.attempted for outcome in outcomes + traced)
    if args.append:
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "instances": len(outcomes),
            "metrics": {metric: entry["value"] for metric, entry in metrics.items()},
            "measured": measured,
            "fingerprints": [outcome.fingerprint["digest"] for outcome in outcomes],
        }
        Path(args.append).parent.mkdir(parents=True, exist_ok=True)
        with open(args.append, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    _emit(True, attempted, 0, metrics)


def run_all(args, spec) -> None:
    """Every workload in its own child interpreter, one after another."""
    results = {}
    for workload in spec["workloads"]:
        command = [sys.executable, __file__, "--workload", workload["name"]]
        command += ["--seed", str(args.seed), "--trace", str(args.trace)]
        for flag in ("seconds", "append", "spans"):
            value = getattr(args, flag)
            if value is not None:
                command += [f"--{flag}", str(value)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        if child.returncode:
            sys.exit(child.returncode)
        results[workload["name"]] = json.loads(child.stdout.strip().splitlines()[-1])
    _emit(
        all(result["correct"] for result in results.values()),
        sum(result["attempted"] for result in results.values()),
        sum(result["failed"] for result in results.values()),
        {
            f"{workload}/{metric}": entry
            for workload, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    )


def main(argv=None) -> None:
    args = _parse(argv)
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        sys.exit(f"benchmark: cannot read {SPEC}: {error}")
    if args.workload is None:
        run_all(args, spec)
    else:
        run_workload(args, spec)


if __name__ == "__main__":
    main()
