"""``BENCHMARK.json`` is the one table of metric names, units,
directions and bounds; the harness reads it instead of repeating it."""

from __future__ import annotations

import json
import os
from typing import Dict, List

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def as_metrics(spec: dict, group: str, values: Dict[str, float]) -> dict:
    """``{name: {"value", "unit"}}`` for every metric of *group*
    (``end_to_end`` or ``per_layer``), in the spec's order.

    The measured names must equal the spec's names exactly: a metric
    the harness forgot, or one the spec does not know, is a bug in the
    benchmark and must not pass silently.
    """
    wanted = [m["name"] for m in spec[group]]
    missing = sorted(set(wanted) - set(values))
    extra = sorted(set(values) - set(wanted))
    if missing or extra:
        raise RuntimeError(f"{group} metrics disagree with BENCHMARK.json: "
                           f"missing {missing}, unknown {extra}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec[group]}
