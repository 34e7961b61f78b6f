# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench examples reproduce figures clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

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
