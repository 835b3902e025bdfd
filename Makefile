# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench bench-smoke bench-full perfbench profile-headline demo examples check check-project sanitize-smoke lint stats faults-smoke parallel-smoke serve-smoke defend-smoke coverage clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Performance-regression smoke: the pinned fixed-scale proxy benchmark
# compared against the stored BENCH_headline.json baseline.  Fails on a
# >20% regression on the baseline machine; on other machines the
# comparison is reported as informational only (timings don't transfer
# across CPUs).  Seconds of wall clock, unlike `bench`.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_proxy.py \
		--benchmark-only --bench-compare

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The repository benchmark (BENCHMARK.json, perfbench/README.md): one
# workload or all, end-to-end metrics (TRACE=0) or the per-layer ledger
# (TRACE=1); the last stdout line is JSON.  Override on the command
# line, e.g. `make perfbench WORKLOAD=fig6-screen TRACE=1`.
WORKLOAD ?= all
SEED ?= 2017
TRACE ?= 0

perfbench:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
		--trace $(TRACE)

# Where the headline run spends its budget: a reduced-scale headline
# experiment with the phase profiler attached, printed as a per-phase
# wall/CPU breakdown (model build, exact + fast screening, probe
# selection, trials).  Set REPRO_SIMPATH=reference to profile the
# unoptimized path for comparison.
profile-headline:
	PYTHONPATH=src $(PYTHON) -m repro.cli headline \
		--configs 4 --trials 20 --seed 2017 --mode table \
		--metrics /tmp/repro-profile-metrics.json
	@$(PYTHON) -c "import json; \
		doc = json.load(open('/tmp/repro-profile-metrics.json')); \
		phases = doc.get('phases', {}); \
		rows = sorted(phases.items(), key=lambda kv: -kv[1]['wall_s']); \
		print(); \
		print(f'{\"phase\":<32}{\"wall s\":>9}{\"cpu s\":>9}{\"count\":>8}'); \
		[print(f'{n:<32}{v[\"wall_s\"]:>9.2f}{v[\"cpu_s\"]:>9.2f}{v[\"count\"]:>8.0f}') for n, v in rows]; \
		total = sum(v['wall_s'] for v in phases.values()); \
		print(f'{\"(sum of phases)\":<32}{total:>9.2f}')"

demo:
	$(PYTHON) -m repro.cli demo

# Static analysis (docs/STATIC_ANALYSIS.md).  The domain-aware lint
# (repro-sdn check) always runs; ruff and mypy run when installed
# (pip install -e ".[check]") and are skipped with a notice otherwise,
# so a bare container can still run the core gate.  CI installs both.
check:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	PYTHONPATH=src $(PYTHON) -m repro.cli check src benchmarks examples
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[check]')"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[check]')"; \
	fi

# Whole-program pass (docs/STATIC_ANALYSIS.md, "check --project"):
# call-graph seed provenance, cross-module escape analysis, worker
# closures -- enforced against the committed lint-baseline.json (new
# findings and stale entries both fail).
check-project:
	PYTHONPATH=src $(PYTHON) -m repro.cli check --project \
		--baseline lint-baseline.json src

# Runtime determinism sanitizer smoke (docs/OBSERVABILITY.md): the demo
# under REPRO_SANITIZE=1 -- frozen cache checksums verified at every
# phase/span boundary, unseeded default_rng() refused.
sanitize-smoke:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro.cli demo

lint: check check-project
	PYTHONPATH=src $(PYTHON) -m pytest --collect-only -q tests benchmarks > /dev/null

# Observability smoke (docs/OBSERVABILITY.md): run a tiny instrumented
# headline experiment, then summarise its span trace.
stats:
	PYTHONPATH=src $(PYTHON) -m repro.cli headline \
		--configs 2 --trials 5 --seed 12 --mode table \
		--trace /tmp/repro-trace.ndjson --metrics /tmp/repro-metrics.json
	PYTHONPATH=src $(PYTHON) -m repro.cli stats /tmp/repro-trace.ndjson

# Fault-injection smoke (docs/FAULTS.md): a tiny end-to-end robustness
# sweep -- screened sampling, faulty re-trials, retries, counter export.
# Not part of tier-1; a couple of minutes of wall clock.
faults-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli robustness \
		--configs 2 --trials 6 --mode table --rates 0,0.3 \
		--probe-retries 1 --seed 5 \
		--metrics /tmp/repro-faults-metrics.json

# Parallel-execution smoke (EXPERIMENTS.md "Parallel execution"): the
# same tiny headline experiment serial and with --trial-jobs 2 must
# produce identical result documents -- only the recorded fan-out
# settings (params/job trial_jobs, provenance) may differ.  Exercises both
# experiment fan-out grains (config screening + trials) through the real
# CLI, then the engine and lint fan-outs: `select` must print the same
# probes and joint gain at --jobs 1 and 2, and `check src` the same
# findings.
parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli headline \
		--configs 1 --trials 6 --seed 12 --mode table \
		--out /tmp/repro-parallel-serial.json
	PYTHONPATH=src $(PYTHON) -m repro.cli headline \
		--configs 1 --trials 6 --seed 12 --mode table \
		--trial-jobs 2 --out /tmp/repro-parallel-jobs2.json
	@$(PYTHON) -c "import json; \
		docs = [json.load(open(p)) for p in \
			('/tmp/repro-parallel-serial.json', '/tmp/repro-parallel-jobs2.json')]; \
		[d.pop('provenance', None) for d in docs]; \
		[d['params'].pop('trial_jobs', None) for d in docs]; \
		[d['job'].pop('trial_jobs', None) for d in docs if d.get('job')]; \
		assert docs[0] == docs[1], 'parallel run diverged from serial'; \
		print('parallel-smoke: serial and --trial-jobs 2 documents identical')"
	for jobs in 1 2; do \
		PYTHONPATH=src $(PYTHON) -m repro.cli select --seed 2017 --probes 3 \
			--jobs $$jobs | grep -E '^(probes|joint gain)' \
			> /tmp/repro-parallel-select-$$jobs.txt || exit 1; \
		PYTHONPATH=src $(PYTHON) -m repro.cli check src --jobs $$jobs \
			> /tmp/repro-parallel-check-$$jobs.txt; \
	done
	test -s /tmp/repro-parallel-select-1.txt
	cmp /tmp/repro-parallel-select-1.txt /tmp/repro-parallel-select-2.txt
	cmp /tmp/repro-parallel-check-1.txt /tmp/repro-parallel-check-2.txt
	@echo "parallel-smoke: select and check identical at --jobs 1 and 2"

# Service smoke (docs/SERVICE.md): spool three recon jobs, serve under
# a session budget to simulate a mid-job kill (exit 3), resume to
# completion, then serve the same spool uninterrupted into a fresh
# state and require every checkpoint digest to match -- the
# kill/resume bit-identity contract, end-to-end through the CLI.
serve-smoke:
	rm -rf /tmp/repro-serve-smoke
	for seed in 5 6 7; do \
		PYTHONPATH=src $(PYTHON) -m repro.cli submit recon \
			--configs 2 --trials 6 --mode table --n-targets 2 \
			--seed $$seed --spool /tmp/repro-serve-smoke/spool \
			|| exit 1; \
	done
	PYTHONPATH=src $(PYTHON) -m repro.cli serve \
		--spool /tmp/repro-serve-smoke/spool \
		--state /tmp/repro-serve-smoke/state --shards 2 \
		--max-sessions 3; \
	test $$? -eq 3
	PYTHONPATH=src $(PYTHON) -m repro.cli serve \
		--spool /tmp/repro-serve-smoke/spool \
		--state /tmp/repro-serve-smoke/state --shards 2
	PYTHONPATH=src $(PYTHON) -m repro.cli serve \
		--spool /tmp/repro-serve-smoke/spool \
		--state /tmp/repro-serve-smoke/reference --shards 2
	@PYTHONPATH=src $(PYTHON) -c "from repro.service.checkpoint import CheckpointStore; \
		resumed = CheckpointStore('/tmp/repro-serve-smoke/state'); \
		reference = CheckpointStore('/tmp/repro-serve-smoke/reference'); \
		jobs = sorted(resumed.known_jobs()); \
		assert len(jobs) == 3 and jobs == sorted(reference.known_jobs()), jobs; \
		bad = [j for j in jobs if resumed.digests(j) != reference.digests(j)]; \
		assert not bad, f'resumed digests diverged: {bad}'; \
		print(f'serve-smoke: {len(jobs)} jobs resumed bit-identically')"

# Defense smoke (docs/DEFENSES.md): the countermeasure x attacker grid
# end-to-end through the CLI -- every built-in defense attached to the
# simulated network, the online recon detector scored in each cell,
# defense/detector counters exported.  Not part of tier-1; ~15 seconds
# of wall clock.
defend-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.cli defend \
		--configs 2 --trials 4 --seed 5 \
		--metrics /tmp/repro-defend-metrics.json

# Coverage gate (CI runs this with pytest-cov installed; locally it is
# skipped with a notice when pytest-cov is absent, like ruff/mypy in
# `check`).  The floor sits under the measured baseline (~95% line
# coverage of src/repro under the tier-1 suite) to absorb tool and
# fork-pool accounting differences -- raise it as coverage grows,
# never lower it to pass.  Raised 90 -> 92 with the defense test
# battery (defend grid, detect package, DEF001 rule all fully
# exercised by tier-1).
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m pytest -x -q \
			--cov=repro --cov-report=term-missing:skip-covered \
			--cov-fail-under=92; \
	else \
		echo "pytest-cov not installed; skipping (pip install pytest-cov)"; \
	fi

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/web_visit_recon.py
	$(PYTHON) examples/ids_logging_recon.py
	$(PYTHON) examples/defender_leakage_audit.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
