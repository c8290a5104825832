# Convenience targets for the PowerLog reproduction.
#
# Every target works from a clean checkout without an editable install:
# PYTHONPATH carries the src/ layout so `python -m pytest` and
# `python -m repro` resolve the package directly.

PYTHON ?= python3
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install lint lint-programs typecheck test chaos serve serve-bench bench quick-bench smoke-bench e2e-quick golden-drift examples check clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

# ruff when available (CI installs it); otherwise fall back to a syntax
# pass so the target still guards something in a bare container
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to compileall syntax check"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi
	$(PYTHON) tools/lint_invariants.py

# static analysis over every program in the registry and the example
# .dl files; the registry must stay free of errors (gcn/commnet warn
# RA310, which only fails under --gate async)
lint-programs:
	$(PYTHON) -m repro lint $$($(PYTHON) -c \
		'from repro.programs import PROGRAMS; print(*sorted(PROGRAMS))')
	@for file in examples/datalog/*.dl; do \
		case "$$file" in *bad_*) continue;; esac; \
		echo "== $$file =="; \
		$(PYTHON) -m repro lint "$$file" || exit 1; \
	done

# strict typing is introduced module-by-module; repro.analysis and
# repro.runtime are the fully typed set (mypy when available -- CI
# installs it)
typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/analysis src/repro/runtime; \
	else \
		echo "mypy not installed; skipping (CI runs the strict job)"; \
	fi

test:
	$(PYTHON) -m pytest -x -q tests/

# fault-injection suite only (also runs as part of `make test`)
chaos:
	$(PYTHON) -m pytest -m chaos tests/

# serving-layer demo: the default seeded multi-tenant workload under
# the default chaos plan (burst shedding, stale serving, breaker trips)
serve:
	$(PYTHON) -m repro serve --chaos

# SLO acceptance harness: byte-identical reruns, no lost requests,
# degraded-answer agreement, breaker visibility; writes the JSON report
serve-bench:
	mkdir -p benchmarks/results
	rm -rf benchmarks/results/serve-ckpt
	$(PYTHON) -m repro serve --chaos --acceptance \
		--checkpoint-dir benchmarks/results/serve-ckpt \
		--out benchmarks/results/serve-slo.json
	rm -rf benchmarks/results/serve-ckpt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

quick-bench:
	REPRO_BENCH_SCALE=0.5 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# CI smoke run: tiny scale, skipping the figures whose qualitative
# claims only hold at larger scales (see benchmarks/README notes)
smoke-bench:
	REPRO_BENCH_SCALE=0.25 $(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=benchmarks/results/smoke.json \
		--ignore=benchmarks/bench_fig10_gain.py \
		--ignore=benchmarks/bench_fig11_aap.py \
		--ignore=benchmarks/bench_worker_scaling.py

# end-to-end benchmark smoke (~20 s): every workload at 1/20 size against
# expected.json's pinned simulated clocks, work.* counters and digests,
# then once more traced, so the names the tracer wraps must still exist
e2e-quick:
	$(PYTHON) benchmarks/e2e/run.py --quick
	$(PYTHON) benchmarks/e2e/run.py --quick --trace 1

# the golden snapshots (lint reports, compiled-plan digests, the full
# asynchronous-, synchronous- and single-node-run matrices, ~2.5 min) must be
# regenerable bit-for-bit: rerun the regeneration and fail if anything
# under tests/golden drifts
golden-drift:
	REPRO_REGEN_GOLDEN=1 $(PYTHON) -m pytest -q tests/test_lint_golden.py \
		tests/test_plan_golden.py tests/test_async_golden.py \
		tests/test_sync_golden.py tests/test_mra_golden.py
	git diff --quiet tests/golden || ( \
		echo "tests/golden drifted from the committed snapshots:"; \
		git --no-pager diff --stat tests/golden; exit 1 )

examples:
	for script in examples/*.py; do echo "== $$script =="; $(PYTHON) $$script; done

check:
	$(PYTHON) -m repro experiment table1

clean:
	rm -rf .pytest_cache src/repro.egg-info benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
