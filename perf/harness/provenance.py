"""What produced a result file, and how noisy the machine was."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

from harness.spec import ROOT


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load1() -> float:
    return os.getloadavg()[0]


def start(**run_args) -> dict:
    """Provenance at the start of a run; warns (never fails) when the
    machine is already busy — wall-clock numbers from a loaded 2-core
    box are not worth comparing."""
    import numpy

    nproc = os.cpu_count() or 1
    prov = dict(run_args)
    prov.update({
        "git_commit": _git_commit(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load1_start": load1(),
    })
    if prov["load1_start"] > nproc / 2:
        print(f"perf: WARNING 1-minute load average is "
              f"{prov['load1_start']:.2f} on {nproc} cores at start; "
              f"timings will be noisy", file=sys.stderr)
    return prov


def finish(prov: dict) -> dict:
    prov["load1_end"] = load1()
    return prov
