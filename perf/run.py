#!/usr/bin/env python3
"""The repo's benchmark: six workloads over the four real search paths.

    python3 perf/run.py --workload nt_single_pool2 --seed 1 \\
        --seconds 10 --trace 0          # one workload, end-to-end metrics
    python3 perf/run.py --workload nt_single_pool2 --trace 1
                                        # ... its per-layer metrics + spans
    python3 perf/run.py --out perf/out/a.json
                                        # all six, blocks interleaved
    python3 perf/run.py --compare perf/out/a.json perf/out/b.json
    python3 perf/run.py --smoke --trace 1   # seconds, tiny corpora

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perf/README.md`` for what every workload and metric means.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread per process, decided before numpy is imported: the
# workloads own the machine's two cores themselves.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")
sys.path.insert(0, PERF_DIR)
sys.path.insert(0, SRC_DIR)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402

BLOCKS = 3
SMOKE_OPS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="one workload name, or 'all' (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced run — per-layer metrics and "
                         "span files instead of end-to-end metrics")
    ap.add_argument("--smoke", action="store_true",
                    help=f"20 k-residue corpora, 1 block of {SMOKE_OPS} "
                         f"ops: a self-test, not a measurement")
    ap.add_argument("--out", default=None,
                    help="also write the full result (provenance, "
                         "per-block values) to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two result files and exit")
    return ap.parse_args(argv)


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")


def run(args) -> int:
    from harness import inputs, provenance
    from harness.checker import Checker
    from harness.layers import measure_layers
    from harness.runner import (LeakWatch, WorkloadRun, adopt_orphans,
                                stop_children)
    from harness.spec import OUT_DIR, as_metrics, load_spec, workload_names
    from harness.tracing import Tracer
    from harness.workloads import WORKLOADS

    spec = load_spec()
    names = workload_names(spec)
    if args.workload != "all":
        if args.workload not in names:
            print(f"perf: unknown workload {args.workload!r}; one of "
                  f"{names}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = float(spec["run_seconds"] if args.seconds is None
                    else args.seconds)
    blocks = 1 if args.smoke else BLOCKS
    max_ops = SMOKE_OPS if args.smoke else None
    # The traced run spends half its time on the workload (alternating
    # traced and untraced ops), the rest on the per-layer measurements.
    budget = seconds / blocks / (2 if args.trace else 1)
    reps = 3 if args.smoke else min(15, max(3, round(0.9 * seconds)))

    adopt_orphans()
    # A terminated run tears down like any other (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    prov = provenance.start(seed=args.seed, seconds=seconds,
                            smoke=args.smoke, trace=args.trace,
                            workloads=names)
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    leaks = LeakWatch(workdir)
    tracer = Tracer() if args.trace else None
    layer_values = None
    try:
        t0 = time.perf_counter()
        size = {"residues": inputs.SMOKE_RESIDUES} if args.smoke else {}
        run_kinds = {WORKLOADS[n].kind for n in names}
        # The per-layer measurements need both corpora.
        corpora = {k: (inputs.make_nt if k == "nt" else inputs.make_aa)(
            args.seed, **size)
            for k in sorted({"nt", "aa"} if args.trace else run_kinds)}
        checkers = {k: Checker(corpora[k]) for k in run_kinds}
        gen_s = time.perf_counter() - t0

        runs = {n: WorkloadRun(
            WORKLOADS[n](corpora[WORKLOADS[n].kind], workdir),
            checkers[WORKLOADS[n].kind], leaks, tracer) for n in names}
        # Blocks of different workloads interleave (A1 B1 .. F1 A2 ..),
        # so slow drift of the machine spreads over all of them.
        for _ in range(blocks):
            for n in names:
                runs[n].run_block(budget, max_ops)
        if args.trace:
            gc.collect()
            layer_values = measure_layers(args.seed, corpora["nt"],
                                          corpora["aa"], reps, workdir,
                                          tracer)
            leaks.check([])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # On every path out: no process of ours outlives this one.
        stragglers = stop_children()
    leaks.total += len(stragglers)
    leaks.found.extend(f"pid:{p}" for p in stragglers)
    if os.path.exists(workdir):
        leaks.total += 1
        leaks.found.append(f"file:{workdir}")
    provenance.finish(prov)

    group = "per_layer" if args.trace else "end_to_end"
    doc = {"provenance": prov, "group": group, "workloads": {}}
    for n, r in runs.items():
        driver = r.driver_metrics(gen_s)
        values = (dict(layer_values, **driver) if args.trace
                  else r.end_to_end())
        doc["workloads"][n] = {
            "correct": r.failed == 0 and leaks.total == 0,
            "attempted": r.attempted, "failed": r.failed,
            "metrics": as_metrics(spec, group, values),
            "failures": r.failures, "blocks": r.per_block(),
            "driver": driver,
            "pool_warnings": sum(b.pool_warnings for b in r.blocks),
        }
    doc["leaks"] = leaks.found

    if tracer is not None:
        for wl_name in sorted({s["workload"] for s in tracer.spans}):
            path = os.path.join(OUT_DIR, f"trace-{wl_name}.jsonl")
            tracer.write(path, wl_name)
            print(f"== mean self time per op, {wl_name} ({path})")
            for span, ms in sorted(tracer.self_time_by_name(wl_name).items(),
                                   key=lambda kv: -kv[1]):
                print(f"{span:<40} {ms:>12.3f} ms")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    for n, w in doc["workloads"].items():
        _print_metrics(f"{n}: {w['attempted']} ops attempted, "
                       f"{w['failed']} failed", w["metrics"])
        for problem in w["failures"]:
            print(f"perf: FAILED {n}: {problem}", file=sys.stderr)
    for leak in leaks.found:
        print(f"perf: LEAK {leak}", file=sys.stderr)

    keys = ("correct", "attempted", "failed", "metrics")
    if len(names) == 1:
        last = {k: doc["workloads"][names[0]][k] for k in keys}
    else:
        per = {n: {k: w[k] for k in keys}
               for n, w in doc["workloads"].items()}
        last = {"correct": all(w["correct"] for w in per.values()),
                "attempted": sum(w["attempted"] for w in per.values()),
                "failed": sum(w["failed"] for w in per.values()),
                "workloads": per}
    print(json.dumps(last))
    return 0 if last["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        from harness.compare import compare
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"perf: the program under test is missing ({SRC_DIR}/repro); "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
