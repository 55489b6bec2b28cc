"""Interleaving simulator for shared-memory processes.

Processes are Python generators that yield
:class:`~repro.sharedmem.objects.Invoke` primitives; the simulator
picks one runnable task per step (seeded, so adversarial interleavings
are reproducible and explorable by hypothesis) and executes its
primitive.  High-level operations (a weak-set ``add``, a register
``write``) are spawned as tasks whose start/end steps the simulator
records — that is the operation log the spec checkers consume.

This is the substrate for Propositions 2 and 3 (weak-sets from
registers in known networks) and for the register-semantics tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro._rng import derive_randrange
from repro.errors import SimulationError
from repro.sharedmem.objects import Invoke

__all__ = ["TaskHandle", "SharedMemorySimulator"]

#: A process program: yields Invoke primitives, receives their results.
Program = Generator[Invoke, object, object]

#: Sentinel distinguishing "no primitive result pending" from a pending
#: result that happens to be ``None``.
_NO_RESULT = object()


@dataclass
class TaskHandle:
    """One spawned operation and its lifecycle."""

    task_id: int
    pid: int
    label: str
    program: Program
    start_step: Optional[int] = None
    end_step: Optional[int] = None
    result: object = None
    crashed: bool = False
    #: result of the task's last executed primitive, to be sent into
    #: the generator at its next step (``_NO_RESULT`` when the next
    #: step is the generator's first).
    pending_result: object = _NO_RESULT

    @property
    def done(self) -> bool:
        return self.end_step is not None or self.crashed


class SharedMemorySimulator:
    """Seeded step-interleaving executor for generator processes."""

    def __init__(self, *, seed: int = 0):
        self._seed = seed
        self._tasks: List[TaskHandle] = []
        self._runnable: List[TaskHandle] = []
        self.step_count = 0
        self._crashed_pids: set[int] = set()

    # ------------------------------------------------------------------
    def spawn(self, pid: int, label: str, program: Program) -> TaskHandle:
        """Register a new operation; it starts at its first step."""
        if pid in self._crashed_pids:
            raise SimulationError(f"spawn on crashed pid {pid}")
        handle = TaskHandle(
            task_id=len(self._tasks), pid=pid, label=label, program=program
        )
        self._tasks.append(handle)
        self._runnable.append(handle)
        return handle

    def crash(self, pid: int) -> None:
        """Crash a process: its in-flight tasks stop mid-operation."""
        self._crashed_pids.add(pid)
        for task in self._runnable:
            if task.pid == pid:
                task.crashed = True
        self._runnable = [t for t in self._runnable if t.pid != pid]

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance one primitive of one task; False when idle.

        Retirement swaps the finished task with the last runnable (O(1)
        instead of a list scan).  That reorders ``_runnable``, so the
        interleaving a given seed produces differs from the pre-swap-pop
        versions of this simulator — schedules are still deterministic
        per seed and drawn from the same adversary distribution, but
        seeds are not replay-compatible across that boundary.
        """
        if not self._runnable:
            return False
        self.step_count += 1
        index = derive_randrange(
            len(self._runnable), "sm-sched", self._seed, self.step_count
        )
        task = self._runnable[index]
        if task.start_step is None:
            task.start_step = self.step_count
        pending = task.pending_result
        task.pending_result = _NO_RESULT
        try:
            invoke = task.program.send(None if pending is _NO_RESULT else pending)
        except StopIteration as stop:
            task.result = stop.value
            task.end_step = self.step_count
            # O(1) retirement: overwrite with the last runnable and pop.
            last = self._runnable.pop()
            if last is not task:
                self._runnable[index] = last
            return True
        if not isinstance(invoke, Invoke):
            raise SimulationError(f"task {task.label} yielded {invoke!r}, not Invoke")
        method = getattr(invoke.target, invoke.method)
        result = method(*invoke.args, pid=task.pid, step=self.step_count)
        task.pending_result = result
        return True

    def run_until_quiet(self, *, max_steps: int = 100_000) -> None:
        """Run until every task finished (or the step budget is spent)."""
        steps = 0
        while self.step():
            steps += 1
            if steps > max_steps:
                raise SimulationError("shared-memory run exceeded step budget")

    def run_task(self, handle: TaskHandle, *, max_steps: int = 100_000) -> object:
        """Run until one specific task completes (others interleave)."""
        steps = 0
        while not handle.done:
            if not self.step():
                raise SimulationError(f"deadlock: {handle.label} cannot finish")
            steps += 1
            if steps > max_steps:
                raise SimulationError("shared-memory run exceeded step budget")
        return handle.result

    # ------------------------------------------------------------------
    @property
    def tasks(self) -> List[TaskHandle]:
        return list(self._tasks)
