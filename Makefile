# Convenience targets for the reproduction.

PYTHON ?= python
# src layout: make targets work from a checkout without `make install`
export PYTHONPATH := src

.PHONY: install test test-fast lint typecheck check bench bench-check \
	microbench figures validate objdump sched-demo trace-demo \
	autoensemble-demo serve-demo serve-check cache-check safety-check \
	chaos clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m repro.tools.lint --all --fail-on error
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping style check"; \
	fi

# Static type checking: prefer mypy, fall back to pyright, skip (like the
# ruff gate above) when neither is installed.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	elif command -v pyright >/dev/null 2>&1; then \
		pyright src/repro; \
	else \
		echo "mypy/pyright not installed; skipping type check"; \
	fi

check: lint typecheck test

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow" -x -q

# Tracked benchmark (docs/backends.md, docs/serve.md): interp vs compiled
# and timed vs untimed on the Figure-6 smoke campaign, checked vs
# unchecked, direct vs served, cold vs warm compile; refreshes the
# committed baseline.
bench:
	$(PYTHON) -m repro.harness.bench --repeats 4 --out BENCH_interpreter.json

# CI regression gate: quick slice of every leg of the bench, compared
# against the committed baseline on machine-independent ratios only.
bench-check:
	$(PYTHON) -m repro.harness.bench --quick --repeats 5 --check BENCH_interpreter.json

# Executable-cache gate (docs/compilecache.md): cold build, warm restart
# from the disk tier, hit rate and bitwise parity on stencil — then the
# GP-style many-variant smoke campaign with its cold-twin verification.
cache-check:
	$(PYTHON) -m repro.compilecache.check
	$(PYTHON) -m repro.harness.gp --smoke

# Static-safety gate (docs/safety.md): every registry app must certify
# with zero DISPROVEN sites and >= 60% guard-free memory-site coverage;
# known-broken fixtures must be DISPROVEN and flagged by the
# static-oob/static-trap checkers; a per-app mutant with one loop bound
# raised by one must not be bounds-PROVEN.
safety-check:
	$(PYTHON) -m repro.tools.safety_check

# pytest-benchmark runs of the Figure-6 panels and ablation sweeps in
# benchmarks/, each checked against the paper's shape.
microbench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

figures:
	$(PYTHON) -m repro.harness.figure6 --thread-limit both \
		--csv results/results.csv --json results/results.json --plot

validate:
	$(PYTHON) -m repro.harness.validate

objdump:
	$(PYTHON) -m repro.tools.objdump --app xsbench --stats

# Chaos suite under three fixed fault-sequence seeds (docs/faults.md):
# every leg asserts the same contract — degrade, never crash.
chaos:
	@for seed in 0 1 2; do \
		echo "=== chaos seed $$seed ==="; \
		CHAOS_SEED=$$seed $(PYTHON) -m pytest tests/faults/ -q -x || exit 1; \
	done

# End-to-end campaigns: a two-device pool, then one device past its
# memory wall (docs/scheduler.md).
sched-demo:
	$(PYTHON) examples/multi_device_campaign.py 2
	$(PYTHON) examples/batched_campaign.py

# Natural driver loop -> analyzed, traced, launched as one ensemble,
# replayed, and differenced against sequential (docs/autoensemble.md).
autoensemble-demo:
	$(PYTHON) -m repro.tools.lint --driver examples/auto_ensemble_loop.py
	$(PYTHON) examples/auto_ensemble_loop.py

# Ensemble-as-a-service: host a campaign server on a thread, submit two
# tenants' campaigns through the client, prove the streamed results are
# bitwise-identical to one-shot scheduler runs (docs/serve.md).
serve-demo:
	$(PYTHON) examples/serve_campaigns.py

# Validate the committed wire-document corpus against the serialization
# contract (schema_version policy + stable error codes).
serve-check:
	$(PYTHON) -m repro.serve.check tests/serve/fixtures

# Traced two-device campaign -> results/trace.json + results/metrics.json,
# then validate the trace structurally (docs/observability.md).
trace-demo:
	mkdir -p results
	$(PYTHON) examples/trace_ensemble.py 2 results
	$(PYTHON) -m repro.obs.check results/trace.json

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks .hypothesis
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
