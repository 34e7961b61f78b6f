# Convenience targets for the reproduction repository.  Nothing needs
# installing: every target runs against the checkout (PYTHONPATH=src).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test census bench perf perf-full examples reproduce figures clean

install:
	pip install -e .

# Tier-1 (ROADMAP.md).
test:
	$(PYTHON) -m pytest -x -q

# The library-surface census: what no entry point reaches, and its pins.
census:
	$(PYTHON) tools/census.py
	$(PYTHON) -m pytest -q tests/test_census.py tests/test_knob_inventory.py

# The simulated paper figures (plus the pool's fault benchmark).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The real engine's benchmark (BENCHMARK.json): self-test, then a full run.
perf:
	python3 perf/run.py --smoke

perf-full:
	python3 perf/run.py --seed 1 --out perf/out/run.json

# Quick pass over every runnable example.
examples:
	@for e in examples/*.py; do \
		echo "== $$e =="; \
		$(PYTHON) $$e || exit 1; \
	done

# Regenerate every paper artefact at reduced scale (fast sanity pass).
figures:
	$(PYTHON) examples/reproduce_paper.py 0.1

# The full-scale regeneration with paper-vs-measured assertions.
reproduce: bench
	@echo "Rendered artefacts:"
	@ls benchmarks/results/

clean:
	rm -rf .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
