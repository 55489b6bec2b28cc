"""API quality gates: docstrings, exports, error hierarchy, imports.

Meta-tests that keep the library's public surface honest: every public
module/class/function must be documented, every ``__all__`` name must
resolve, every library error must descend from ``ReproError``, and
runs that need no matrix never load numpy.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.errors import ReproError


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_every_module_has_a_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip()

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_every_public_item_is_documented(self, module):
        undocumented = []
        for name in getattr(module, "__all__", []):
            item = getattr(module, name)
            if inspect.isclass(item) or inspect.isfunction(item):
                if not (item.__doc__ and item.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestExports:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_all_names_resolve(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"

    def test_top_level_api_is_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestErrorHierarchy:
    def test_all_library_errors_descend_from_repro_error(self):
        from repro import errors
        from repro.serialization import SerializationError

        for name in errors.__dict__:
            item = getattr(errors, name)
            if inspect.isclass(item) and issubclass(item, Exception):
                assert issubclass(item, ReproError) or item is ReproError
        assert issubclass(SerializationError, ReproError)

    def test_repro_error_is_catchable_as_exception(self):
        with pytest.raises(Exception):
            raise ReproError("x")


#: an object-engine drifting ES run and a serial shard cluster's add and
#: get, in a fresh interpreter that then reports whether numpy loaded
OBJECT_ENGINE_RUNS = """
import sys
import repro
from repro import DriftingScheduler, ESConsensus, ShardedWeakSetCluster
from repro.giraf.adversary import RandomSource, UniformDelay
from repro.giraf.environments import EventualSynchronyEnvironment
from repro.sim.runner import stop_when_all_correct_decided
from repro.sim.workloads import ChurnEnvironments

trace = DriftingScheduler(
    [ESConsensus(value) for value in range(8)],
    EventualSynchronyEnvironment(
        2, RandomSource(1), delay_policy=UniformDelay(2, 6, seed=1)
    ),
    max_rounds=40,
    stop_when=stop_when_all_correct_decided,
    trace_mode="aggregate",
).run()
assert trace.decided_pids()
with ShardedWeakSetCluster(
    4, shards=2, environment_factory=ChurnEnvironments(pattern="random", seed=1)
) as cluster:
    cluster.handle(0).add("x")
    assert "x" in cluster.handle(1).get()
print("numpy" in sys.modules)
"""


class TestNumpyStaysOptional:
    def test_object_engine_runs_never_import_numpy(self):
        """numpy costs ~12 MB of resident memory: only the matrix
        engines and the matrix draw may load it, so an object-engine
        run and a serial shard cluster keep it out of ``sys.modules``."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        output = subprocess.run(
            [sys.executable, "-c", OBJECT_ENGINE_RUNS],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert output == "False"
