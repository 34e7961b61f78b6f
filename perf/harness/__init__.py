"""The repo's benchmark harness (see ``perf/README.md``).

``perf/run.py`` is the only entry point; these modules are its parts:

* :mod:`harness.spec` — ``BENCHMARK.json`` as the one table of metric
  names, units, directions and bounds;
* :mod:`harness.inputs` — corpora and queries generated from ``--seed``;
* :mod:`harness.workloads` — the six workloads, each driving one real
  search path through its public functions only;
* :mod:`harness.checker` — the per-op correctness check;
* :mod:`harness.runner` — the closed-loop block runner and the
  end-to-end metrics;
* :mod:`harness.tracing` — the in-memory span recorder;
* :mod:`harness.layers` — the per-layer measurements of the traced run;
* :mod:`harness.compare` — ``--compare A.json B.json``;
* :mod:`harness.provenance` — machine / commit / load-average record.
"""
