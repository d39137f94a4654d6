# Convenience targets for the VIX reproduction.

PYTHON ?= python

.PHONY: install test bench bench-fast bench-full bench-harness fault-smoke telemetry-smoke engine-equivalence partition-equivalence partition-invariants partition-vectorized examples all clean

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

# Self-tests of the benchmarks/perf harness (seconds; correctness only).
# `python3 benchmarks/perf/run.py` is the measurement itself.
bench-harness:
	$(PYTHON) -m pytest benchmarks/perf -q

# Fault-tolerance smoke: a crashed and a hung worker must not change one
# reported number, and the run journal must record the kills/retries.
fault-smoke:
	$(PYTHON) scripts/check_fault_smoke.py

# Telemetry smoke: monitor + HTTP server + chrome export on a reduced
# sweep; report byte-identical to a plain run, endpoints live mid-run.
telemetry-smoke:
	$(PYTHON) scripts/check_telemetry_smoke.py

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
# == the same partition with no domain engine named (f12, via the CLI),
# and 2x2 vectorized domains == gated domains on
# every SoA-formulated allocator, serial and workers.
partition-vectorized:
	$(PYTHON) scripts/check_partition.py --vectorized

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; echo; done

all: test bench

# Removes scratch outputs only.
clean:
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
	rm -f BENCH_sweep.json
	find . -name __pycache__ -type d -exec rm -rf {} +
