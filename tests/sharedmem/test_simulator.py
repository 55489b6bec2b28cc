"""Tests for the shared-memory interleaving simulator."""

import pytest

from repro.errors import SimulationError
from repro.sharedmem.objects import AtomicRegister, Invoke
from repro.sharedmem.simulator import SharedMemorySimulator


def incrementer(register, times):
    """Non-atomic read-modify-write: the classic race generator."""
    def program():
        for _ in range(times):
            value = yield Invoke(register, "read")
            yield Invoke(register, "write", (value + 1,))
        return None
    return program()


class TestScheduling:
    def test_runs_single_task_to_completion(self):
        sim = SharedMemorySimulator()
        register = AtomicRegister(0)
        handle = sim.spawn(0, "inc", incrementer(register, 3))
        sim.run_until_quiet()
        assert handle.done
        assert register.read(pid=0, step=99) == 3

    def test_interleaving_loses_increments(self):
        """Racing read-modify-writes must be able to interleave."""
        outcomes = set()
        # stream v3 runs the tasks back to back (outcome 10) first at
        # seed 75, so the sweep reaches it
        for seed in range(76):
            sim = SharedMemorySimulator(seed=seed)
            register = AtomicRegister(0)
            sim.spawn(0, "inc", incrementer(register, 5))
            sim.spawn(1, "inc", incrementer(register, 5))
            sim.run_until_quiet()
            outcomes.add(register.read(pid=0, step=10**6))
        assert max(outcomes) == 10
        assert min(outcomes) < 10, "no interleaving ever lost an update?"

    def test_deterministic_per_seed(self):
        def run(seed):
            sim = SharedMemorySimulator(seed=seed)
            register = AtomicRegister(0)
            sim.spawn(0, "inc", incrementer(register, 4))
            sim.spawn(1, "inc", incrementer(register, 4))
            sim.run_until_quiet()
            return register.read(pid=0, step=10**6)

        assert run(7) == run(7)

    def test_task_result_and_times_recorded(self):
        sim = SharedMemorySimulator()
        register = AtomicRegister(5)

        def reader():
            value = yield Invoke(register, "read")
            return value * 2

        handle = sim.spawn(0, "read", reader())
        result = sim.run_task(handle)
        assert result == 10
        assert handle.start_step is not None
        assert handle.end_step >= handle.start_step

    def test_spawn_on_crashed_pid_rejected(self):
        sim = SharedMemorySimulator()
        sim.crash(1)
        with pytest.raises(SimulationError):
            sim.spawn(1, "x", incrementer(AtomicRegister(0), 1))

    def test_crash_stops_in_flight_tasks(self):
        sim = SharedMemorySimulator(seed=1)
        register = AtomicRegister(0)
        doomed = sim.spawn(0, "inc", incrementer(register, 100))
        sim.step()
        sim.crash(0)
        sim.run_until_quiet()
        assert doomed.crashed
        assert not doomed.done or doomed.crashed

    def test_yielding_garbage_is_an_error(self):
        sim = SharedMemorySimulator()

        def bad():
            yield "not an invoke"

        sim.spawn(0, "bad", bad())
        with pytest.raises(SimulationError):
            sim.run_until_quiet()

    def test_step_budget_enforced(self):
        sim = SharedMemorySimulator()
        register = AtomicRegister(0)

        def forever():
            while True:
                yield Invoke(register, "read")

        sim.spawn(0, "loop", forever())
        with pytest.raises(SimulationError):
            sim.run_until_quiet(max_steps=50)
