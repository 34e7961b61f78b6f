"""``perf/run.py --compare A.json B.json``: one row per workload x
end-to-end metric, judged against the metric's bound.

``worse``      B is worse than A by more than the bound.
``unresolved`` the spread between the blocks of either run is wider
               than the bound and their block values overlap, so the
               runs cannot tell the two apart (choosing-metrics §6.5).
``same``       anything else — including B reading better.

Exit status is non-zero on any ``worse`` row or any rise in the share
of failed ops.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List

from harness.spec import load_spec


def _spread(values: List[float]) -> float:
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def verdict(a: float, b: float, a_blocks: List[float], b_blocks: List[float],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / a
    if max(_spread(a_blocks), _spread(b_blocks)) > bound:
        # Too noisy for the medians to speak: only block values that do
        # not overlap at all can.
        if sign * (min(b_blocks) - max(a_blocks)) > 0:
            return "worse" if worse_by > bound else "same"
        if sign * (max(b_blocks) - min(a_blocks)) < 0:
            return "same"
        return "unresolved"
    return "worse" if worse_by > bound else "same"


def compare(path_a: str, path_b: str, out=sys.stdout) -> int:
    spec = load_spec()
    with open(path_a) as f:
        a_doc = json.load(f)
    with open(path_b) as f:
        b_doc = json.load(f)
    bad = 0
    print(f"A = {path_a} ({a_doc['provenance'].get('git_commit')})\n"
          f"B = {path_b} ({b_doc['provenance'].get('git_commit')})\n"
          f"ratio = B / A (base A)", file=out)
    print(f"{'workload':<18} {'metric':<18} {'unit':<5} {'A':>12} {'B':>12} "
          f"{'ratio':>7} {'bound':>6}  verdict", file=out)
    for name in (w["name"] for w in spec["workloads"]):
        a_w = a_doc["workloads"].get(name)
        b_w = b_doc["workloads"].get(name)
        if a_w is None or b_w is None:
            continue
        for m in spec["end_to_end"]:
            key = m["name"]
            a, b = a_w["metrics"][key]["value"], b_w["metrics"][key]["value"]
            v = verdict(a, b, [blk[key] for blk in a_w["blocks"]],
                        [blk[key] for blk in b_w["blocks"]],
                        m["better"], m["bound"])
            bad += v == "worse"
            print(f"{name:<18} {key:<18} {m['unit']:<5} {a:>12.4f} "
                  f"{b:>12.4f} {b / a:>7.3f} {m['bound']:>6.2f}  {v}",
                  file=out)
        fa = a_w["failed"] / a_w["attempted"]
        fb = b_w["failed"] / b_w["attempted"]
        if fb > fa:
            bad += 1
            print(f"{name:<18} failed ops rose: {a_w['failed']}/"
                  f"{a_w['attempted']} -> {b_w['failed']}/"
                  f"{b_w['attempted']}", file=out)
    return 1 if bad else 0
