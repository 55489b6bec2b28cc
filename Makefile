PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test test-columnar chaos membership coverage bench bench-shard \
	bench-e2e-smoke perf docs scale experiments experiments-full

test:
	$(PYTHON) -m pytest -q

# Columnar suite alone: the counter-storage property tests and the
# engine-equivalence pins (heartbeats on both schedulers, Algorithm 3
# on the lock-step engine).  CI runs it twice — with numpy, and again
# after uninstalling numpy, where every columnar request declines to
# the object engine with the numpy reason and the pins check that.
test-columnar:
	$(PYTHON) -m pytest -q tests/core/test_columnar.py \
		tests/runtime/test_columnar_engine.py \
		tests/runtime/test_columnar_ess.py \
		tests/runtime/test_columnar_drifting_engine.py

# Chaos suite: the fault-injection and crash-recovery tests alone —
# seeded FaultPlans (fixed in the test files, so every run replays the
# same chaos) against the fail-closed and the recover=True contracts,
# plus the C4 recovery grid as an end-to-end smoke.
chaos:
	$(PYTHON) -m pytest -q -m chaos tests/weakset
	$(PYTHON) -m repro.experiments C4

# Membership suite: the elastic-sharding layer alone — the HashRing
# properties, the join/leave byte-identity matrix (every backend ×
# start method × batch/window shape), the mid-migration chaos tests,
# and the C5 rebalance grid as an end-to-end smoke.
membership:
	$(PYTHON) -m pytest -q -m membership tests/weakset
	$(PYTHON) -m repro.experiments C5

# Tier-1 suite under coverage (needs pytest-cov; CI installs it — see
# .github/workflows/ci.yml, which also enforces the floor).
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed (pip install pytest-cov)"; exit 1; }
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing \
		--cov-fail-under=80

# Capture the performance trajectory (micro benches + T1/F1/C1/C3
# quick + T3 full) into BENCH_micro.json.  See PERFORMANCE.md.
bench:
	$(PYTHON) benchmarks/capture.py

# Just the shard-execution benches: the churn quick shape on the
# serial / multiprocess / socket backends plus the overlapped
# steady-state harvest.  See PERFORMANCE.md §5.
bench-shard:
	$(PYTHON) -m pytest benchmarks/bench_micro.py -q -k "churn or harvest"

# End-to-end smoke: all four workloads of BENCHMARK.json for 3 s each,
# with every output checked (run.py exits 1 on a failed correctness
# gate or a metric set that differs from BENCHMARK.json).  run.py puts
# src/ on the path itself.  See benchmarks/e2e/README.md.
bench-e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --seconds 3

# Perf smoke: check the recorded key speedups in BENCH_micro.json
# against tolerant floors (same-run ratios only; --strict adds the
# reference-machine trajectory floors).  See scripts/check_perf.py.
perf:
	$(PYTHON) scripts/check_perf.py

# Engine-scaling table: the S1 grid (rounds/s, peak memory, and the
# columnar-vs-object pinned column across scheduler × n — both the
# lock-step tick and the drifting event loop).  The full grid pushes
# the columnar engine to n=10,000; quick (make experiments) stops at
# n=1,024.  See PERFORMANCE.md §11–§12.
scale:
	$(PYTHON) -m repro.experiments S1 --full

# Doctest the documented API surface and link-check every *.md.
docs:
	$(PYTHON) scripts/check_docs.py

experiments:
	$(PYTHON) -m repro.experiments

experiments-full:
	$(PYTHON) -m repro.experiments --full
