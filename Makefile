# Developer entry points.  PYTHONPATH is injected so no install is needed.
PYTHON ?= python
PYTHONPATH_SRC := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# Files already migrated to `ruff format`; extend as modules are touched.
FORMAT_PATHS := src/repro/experiments/runner.py src/repro/experiments/gates.py \
	tests/experiments/test_runner.py

# Extra flags for the perf-smoke gate.  CI runs on different hardware
# than the committed baseline, so its workflow passes
#   PERF_SMOKE_FLAGS="--allow-machine-mismatch --tolerance 5.0"
# (see .github/workflows/ci.yml and docs/PERFORMANCE.md).
PERF_SMOKE_FLAGS ?=

# Generated run outputs (perf payloads, artifact stores, experiment
# JSON) land here instead of the repo root; the directory is gitignored.
OUT_DIR := benchmarks/out

.PHONY: test bench-selftest bench-smoke perf perf-smoke smoke invariants importtime lint typecheck experiments ci

test:  ## tier-1 test suite
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

bench-selftest:  ## derandbench self-tests: expected digests and the golden file
	$(PYTHON) -m pytest derandbench -q

BENCH_SMOKE_CHECK := import json, sys; lines = open(sys.argv[1]).read().splitlines(); \
	result = json.loads(lines[-1]); print(lines[-1]); \
	sys.exit(0 if result["correct"] is True and result["failed"] == 0 else "bench-smoke: an op failed")

bench-smoke:  ## 1 s runs of the search and reconstruct (prg) workloads: fails unless every op is correct
	@mkdir -p $(OUT_DIR)
	$(PYTHON) derandbench/run.py --workload search --seed 7 --seconds 1 --trace 0 \
		> $(OUT_DIR)/bench-smoke.log
	$(PYTHON) -c '$(BENCH_SMOKE_CHECK)' $(OUT_DIR)/bench-smoke.log
	$(PYTHON) derandbench/run.py --workload reconstruct --seed 7 --seconds 1 --trace 0 \
		> $(OUT_DIR)/bench-smoke-reconstruct.log
	$(PYTHON) -c '$(BENCH_SMOKE_CHECK)' $(OUT_DIR)/bench-smoke-reconstruct.log

perf:  ## rewrite the benchmarks/BENCH_views.json perf baseline
	$(PYTHON) benchmarks/run_perf_suite.py

perf-smoke:  ## quick perf gate: cold views within 2x of the baseline; live floors: reconstruct >=5x, shared reconstruction walk >=16x, lexicographic search >=32x, snapshot search >=4.0x (MIS star) / >=1.1x (2-hop K4), prg search >=1.7x (MIS) / >=0.9x (matching), factor enumeration >=1.5x/6x, candidate enumeration >=50x/50x, plan-built view deepening >=1.3x, cold start >=1.5x, graph derivation >=1.5x (+ dynamic, artifacts)
	$(PYTHON) benchmarks/run_perf_suite.py --quick --check $(PERF_SMOKE_FLAGS)

smoke:  ## differential gates: faults, churn, hash seed, cold/warm artifacts (repro.experiments.gates)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.experiments.gates --out $(OUT_DIR)

invariants:  ## syntactic + interprocedural flow lint (see docs/LINT.md)
	@mkdir -p $(OUT_DIR)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.lint --baseline LINT_BASELINE.json \
		--json $(OUT_DIR)/LINT_report.json --call-graph $(OUT_DIR)/CALL_GRAPH.json
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.lint tests --warn-only

importtime:  ## python -X importtime of the pipeline and the registry entry (benchmarks/out/IMPORTTIME_*.txt)
	@mkdir -p $(OUT_DIR)
	$(PYTHONPATH_SRC) $(PYTHON) -X importtime -c 'from repro import derandomize_pipeline' \
		2> $(OUT_DIR)/IMPORTTIME_pipeline.txt
	$(PYTHONPATH_SRC) $(PYTHON) -X importtime \
		-c 'from repro.experiments import all_experiment_ids; all_experiment_ids()' \
		2> $(OUT_DIR)/IMPORTTIME_registry.txt

lint:  ## ruff: lint everything, format-check the migrated files
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples && \
		$(PYTHON) -m ruff format --check $(FORMAT_PATHS); \
	else \
		echo "SKIPPED lint: ruff not installed (pip install -e .[dev])"; \
	fi

typecheck:  ## mypy over the typed file set (see [tool.mypy] files in pyproject.toml)
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHONPATH_SRC) $(PYTHON) -m mypy; \
	else \
		echo "SKIPPED typecheck: mypy not installed (pip install -e .[dev])"; \
	fi

experiments:  ## full registry on 2 workers (exit 3 if the pool degrades); canonical_results must equal the golden file
	@mkdir -p $(OUT_DIR)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.experiments --all --jobs 2 --strict-jobs \
		--json $(OUT_DIR)/RESULTS_experiments.json
	$(PYTHONPATH_SRC) $(PYTHON) -c 'import json, sys; \
		from repro.experiments.runner import canonical_results; \
		payload = json.load(open(sys.argv[1])); \
		sys.stdout.write(json.dumps(canonical_results(payload), indent=2, sort_keys=True) + "\n")' \
		$(OUT_DIR)/RESULTS_experiments.json > $(OUT_DIR)/RESULTS_canonical.json
	cmp $(OUT_DIR)/RESULTS_canonical.json tests/runtime/golden/experiments_canonical.json

ci: lint typecheck invariants importtime test bench-selftest bench-smoke smoke experiments perf-smoke  ## exactly what .github/workflows/ci.yml runs
