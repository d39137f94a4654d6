# Convenience targets for the VIX reproduction.

PYTHON ?= python

.PHONY: install test bench bench-fast bench-full bench-baseline bench-obs bench-partition bench-partition-vec fault-smoke telemetry-smoke bench-trajectory engine-equivalence partition-equivalence partition-invariants partition-vectorized examples all clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Parallel fan-out (one worker per core) with machine-readable timings.
bench-fast:
	REPRO_JOBS=auto $(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=BENCH_sweep.json -s

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Perf-trajectory point: dense vs activity-gated stepping on the 8x8 mesh.
# The result (BENCH_PR2.json) is committed; CI smoke-checks against it.
bench-baseline:
	$(PYTHON) scripts/bench_pr2.py --out BENCH_PR2.json

# Perf-trajectory point: observability overhead (disabled / metrics /
# trace-at-1%).  The result (BENCH_PR3.json) is committed; CI
# smoke-checks against it.
bench-obs:
	$(PYTHON) scripts/bench_pr3.py --out BENCH_PR3.json

# Fault-tolerance smoke: a crashed and a hung worker must not change one
# reported number, and the run journal must record the kills/retries.
fault-smoke:
	$(PYTHON) scripts/check_fault_smoke.py

# Telemetry smoke: monitor + HTTP server + chrome export on a reduced
# sweep; report byte-identical to a plain run, endpoints live mid-run.
telemetry-smoke:
	$(PYTHON) scripts/check_telemetry_smoke.py

# Merge every committed BENCH_*.json into one table and check each perf
# PR's headline ratio against its regression guard.
bench-trajectory:
	$(PYTHON) scripts/bench_report.py --check

# Golden-output gate for the default engine: the f8/f9/t1 reports with
# no engine named (vectorized where the SoA kernel can run, gated
# elsewhere) must be byte-identical to the dense reference loop's (modulo
# the [perf_counters] footer).
engine-equivalence:
	$(PYTHON) scripts/check_partition.py --engines

# Golden-output gate for the chiplet-partitioned engine: f8/t1 reports
# with a 1x1 partition and zero-latency links must be byte-identical to
# the monolithic dense engine's (modulo the [perf_counters] footer).
partition-equivalence:
	$(PYTHON) scripts/check_partition.py --equivalence

# Boundary-correctness smoke: a 2x2-partitioned 8x8 mesh runs with flit
# conservation and credit accounting checked every few cycles (gated
# domains, then vectorized domains with asymmetric credit latency).
partition-invariants:
	$(PYTHON) scripts/check_partition.py --invariants

# Vectorized-domain gates: 1x1 vec partition == monolithic vectorized
# (f12, via the CLI), and 2x2 vectorized domains == gated domains on
# every SoA-formulated allocator, serial and workers.
partition-vectorized:
	$(PYTHON) scripts/check_partition.py --vectorized

# Perf-trajectory point: chiplet-partitioned engine (serial + workers)
# vs monolithic dense/gated on a 32x32 mesh.  The result
# (BENCH_PR9.json) is committed; CI guards its recorded ratios.
bench-partition:
	$(PYTHON) scripts/bench_engines.py --partition --measure 400 --warmup 200 --repeats 2

# Perf-trajectory point: vectorized (SoA) domains vs gated (object)
# domains on a 2x2-partitioned 16x16 cmesh, serial and workers.  The
# result (BENCH_PR10.json) is committed; CI guards its recorded ratios.
bench-partition-vec:
	$(PYTHON) scripts/bench_engines.py --partition-vec --measure 2000 --repeats 3

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; echo; done

all: test bench

# Removes scratch outputs only.  Committed BENCH_*.json trajectory
# baselines (e.g. BENCH_PR2.json) must survive a clean.
clean:
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
	rm -f BENCH_sweep.json
	find . -name __pycache__ -type d -exec rm -rf {} +
