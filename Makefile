# Development targets. Everything runs from the repository root with the
# in-tree sources on PYTHONPATH; no installation required.

PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test bench coverage function-coverage docs-check examples lint all

## Tier-1 test suite (what CI and the PR pipeline gate on): tests/, the
## figure tests under benchmarks/ and bench/test_smoke.py.  Clock-free, and
## it leaves the checkout as it found it.
test:
	$(PYTHON) -m pytest -x -q

## Regenerate the committed figure CSVs under benchmarks/results/ at the
## scales the figure tests use (benchmarks/conftest.py).  The only command
## that writes there; timing is measured by bench/run.py, not here.
bench:
	set -e; for figure in fig4 fig5 fig6 fig7 fig9; do \
		$(PYTHON) -m repro $$figure --groups 14 --points 4 --out benchmarks/results; \
	done
	$(PYTHON) -m repro fig8 --groups 30 --points 4 --out benchmarks/results
	set -e; for figure in fig1 fig10 fig11 scalability; do \
		$(PYTHON) -m repro $$figure --groups 24 --out benchmarks/results; \
	done

## Coverage gate (CI): needs pytest-cov; the fail-under floor lives in
## pyproject.toml [tool.coverage.report].
coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing:skip-covered tests

## Function coverage gate (CI): runs tier-1 under a profile hook and fails
## when a function or method in src/repro was never entered in-process and
## its def line carries no "# pragma: no cover - <reason>".  Kept out of
## tier-1: the hook roughly doubles the suite's wall time.
function-coverage:
	$(PYTHON) scripts/function_coverage.py

## Documentation checks: every python block in README.md, docs/api.md,
## docs/serving.md and docs/architecture.md must run (with
## DeprecationWarning as an error), and the documented modules must render
## under pydoc.
docs-check:
	$(PYTHON) scripts/check_readme.py README.md docs/api.md docs/serving.md docs/architecture.md

## Run every example end-to-end on the facade; a DeprecationWarning leaking
## from the facade's own code paths is an error.
examples:
	set -e; for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) -W error::DeprecationWarning $$example 4; \
	done

## Lint (configuration in pyproject.toml [tool.ruff]).
lint:
	ruff check src tests benchmarks scripts examples

all: test lint docs-check examples
