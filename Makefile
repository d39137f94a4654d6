# Convenience targets for the VIX reproduction.

PYTHON ?= python

.PHONY: install test bench bench-fast bench-full bench-harness check examples all clean

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

# Byte-identity gates (scripts/check.py): engines, partition, golden,
# faults and telemetry rows.  The golden rows need a reference tree:
#   git worktree add /tmp/prereg 44fd589
#   make check REF_SRC=/tmp/prereg/src
# SUITES="engines partition" (or rows such as engines/t1) runs a subset.
check:
	$(PYTHON) scripts/check.py $(if $(REF_SRC),--ref-src $(REF_SRC)) $(SUITES)

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; echo; done

all: test bench

# Removes scratch outputs only.
clean:
	rm -rf .pytest_cache .benchmarks build *.egg-info src/*.egg-info
	rm -f BENCH_sweep.json
	find . -name __pycache__ -type d -exec rm -rf {} +
