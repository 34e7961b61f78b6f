"""The closed-loop block runner and the end-to-end metrics.

A workload runs as a few *blocks*.  Each block does a fresh set-up
(timed, together with the first op), a few discarded warm-up ops, then
measured ops until its share of ``--seconds`` is spent (or ``max_ops``
is reached).  Every op — first, warm-up or measured — is checked and
counted in ``attempted``; only measured ops are timed.
"""

from __future__ import annotations

import ctypes
import gc
import os
import signal
import statistics
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from harness.checker import Checker
from harness.tracing import NULL, Tracer
from harness.workloads import Workload

#: Discarded warm-up ops per block: at most this many, and at most this
#: share of the block's time budget (the protein op takes most of a
#: second), but always at least one.
WARMUP_OPS = 5
WARMUP_SHARE = 0.15

_TICK = os.sysconf("SC_CLK_TCK")


# -- /proc readers ------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of *pid* so far (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of *pid* in MB."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reset_own_hwm() -> None:
    """Restart this process's peak-RSS watermark (Linux: ``5`` to
    ``clear_refs``), so a block's peak is its own and not the corpus
    generation's.  Where that is not permitted the watermark stays the
    process-lifetime peak — still a valid upper bound."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


# -- machine-speed calibration --------------------------------------------
class SpeedProbe:
    """A fixed piece of work timed between ops: how fast is this machine
    *right now*?

    This is a shared 2-core VM.  What its neighbours do moves a
    memory-bound numpy gather by 30-80 % and an interpreter loop by
    20-40 %, in phases that last minutes — longer than a run, so no
    amount of repetition inside a run averages them out: raw
    ``nt_single_pool2`` medians of 56 ms and 86 ms were both measured
    on one commit half an hour apart.  The probe is made of the two
    things a search is made of, in about equal parts (a random gather
    through a 4 MB table, as the scan kernel does, and a pure-Python
    loop); it shares no code with the program and never changes.  Every
    time a block measures is divided by the block's median probe time
    over ``NOMINAL_S``: a real speed-up of the program shows in full, a
    slow phase of the machine mostly cancels.
    """

    #: What the probe takes on this class of machine when it is quiet,
    #: so calibrated times read as wall time on such a machine.
    NOMINAL_S = 5.0e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(20030901)
        self._idx = rng.integers(0, 1 << 22, size=250_000).astype(np.int32)
        self._table = np.zeros(1 << 22, dtype=np.uint8)
        self._table[rng.integers(0, 1 << 22, size=1000)] = 1

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.flatnonzero(self._table[self._idx])
        x = 0
        for i in range(50_000):
            x += i * i
        return time.perf_counter() - t0


# -- leak and teardown check ---------------------------------------------
class LeakWatch:
    """After every block and at exit: no ``repro_*`` / ``psm_*`` segment
    of ours in ``/dev/shm``, no live worker or agent pid, nothing but
    the input files left in the work directory.  A benchmark that leaks
    poisons the next block's numbers."""

    SHM = "/dev/shm"

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._baseline = self._segments()
        self.total = 0
        self.found: List[str] = []

    def _segments(self) -> set:
        try:
            return {n for n in os.listdir(self.SHM)
                    if n.startswith(("repro_", "psm_"))}
        except OSError:
            return set()

    def check(self, pids: List[int]) -> int:
        ours = {str(os.getpid())} | {str(p) for p in pids}
        leaks = []
        for name in sorted(self._segments() - self._baseline):
            # repro_<pid>_...: another benchmark on this machine may own
            # segments too; count only this run's.
            if name.startswith("psm_") or name.split("_")[1] in ours:
                leaks.append(f"shm:{name}")
        for pid in pids:
            if os.path.exists(f"/proc/{pid}"):
                leaks.append(f"pid:{pid}")
        if os.path.isdir(self.workdir):
            for name in os.listdir(self.workdir):
                if not name.endswith(".fasta"):
                    leaks.append(f"file:{name}")
        self.total += len(leaks)
        self.found.extend(leaks)
        return len(leaks)


# -- process teardown -----------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the reaper of its whole process tree
    (``PR_SET_CHILD_SUBREAPER``): a grandchild whose parent dies becomes
    our child instead of init's, so ``stop_children`` can wait for it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    me = str(os.getpid())
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = f.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue
        if ppid == me:
            found.append(int(name))
    return found


def stop_children(grace_s: float = 5.0) -> List[int]:
    """Stop every process this run started and wait until each has
    ended; returns the pids that had to be killed.

    Workers and agents are stopped by their own teardown.  What is left
    is multiprocessing's resource-tracker daemon, which the pool starts
    for its shared-memory segments and which otherwise outlives us by a
    moment (it exits when our end of its pipe closes, and nobody waits
    for it) — and whatever a failed teardown left behind."""
    try:
        # Its stop(): close our end of the pipe.  The waiting is done
        # below, with a deadline, since a stray worker may hold a copy.
        from multiprocessing import resource_tracker
        tracker = resource_tracker._resource_tracker
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
    except Exception:
        pass
    killed: List[int] = []
    t0 = time.monotonic()
    while True:
        alive = []
        for pid in _children():
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    alive.append(pid)
            except ChildProcessError:
                pass
        if not alive:
            return killed
        late = time.monotonic() - t0
        if late > grace_s:
            for pid in alive:
                if pid not in killed:
                    killed.append(pid)
                try:
                    os.kill(pid, signal.SIGKILL if late > 2 * grace_s
                            else signal.SIGTERM)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


# -- blocks -------------------------------------------------------------
@dataclass
class Block:
    setup_s: float = 0.0
    lat: List[float] = field(default_factory=list)          # untraced ops
    lat_traced: List[float] = field(default_factory=list)
    cpu_s: float = 0.0            # master + children, measured ops only
    measured_ops: int = 0
    rss_mb: float = 0.0
    pool_warnings: int = 0
    probe: List[float] = field(default_factory=list)
    #: Median probe time over the nominal: > 1 on a slow machine.  The
    #: times above are divided by it once the block is over.
    speed: float = 1.0


class WorkloadRun:
    """One workload's blocks, failures and metrics."""

    def __init__(self, workload: Workload, checker: Checker,
                 leaks: LeakWatch, tracer: Optional[Tracer] = None):
        self.wl = workload
        self.checker = checker
        self.leaks = leaks
        self.tracer = tracer
        self.blocks: List[Block] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._next_op = 0
        self._probe = SpeedProbe()
        self._cycle = len(checker.references)

    # -- one op ---------------------------------------------------------
    def _op(self, tr) -> float:
        """Run and judge the next op; returns its wall time."""
        i = self._next_op
        self._next_op += 1
        self.attempted += 1
        problem = None
        t0 = time.perf_counter()
        try:
            with tr.op(self.wl.name, i):
                answers = self.wl.op(i, tr)
        except Exception as exc:  # an op that raises is a failed op
            answers = []
            problem = f"op {i} raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if problem is None and self.wl.fallback():
            # Correct bytes from the wrong path are not a result here.
            problem = f"op {i}: the pool answered through its serial fallback"
        for qi, text in answers:
            problem = problem or self.checker.problem(qi, text)
        if problem:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(problem)
        return dt

    # -- one block ------------------------------------------------------
    def run_block(self, budget_s: float, max_ops: Optional[int] = None
                  ) -> Block:
        gc.collect()
        reset_own_hwm()
        blk = Block()
        wl = self.wl
        pids: List[int] = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                t0 = time.perf_counter()
                wl.setup()
                self._op(NULL)
                blk.setup_s = time.perf_counter() - t0

                warm_end = time.perf_counter() + WARMUP_SHARE * budget_s
                for k in range(WARMUP_OPS if max_ops is None
                               else min(WARMUP_OPS, max_ops)):
                    if k and time.perf_counter() >= warm_end:
                        break
                    self._op(NULL)

                pids = wl.child_pids()
                child0 = sum(proc_cpu_s(p) for p in pids)
                master = 0.0
                blk.probe.append(self._probe())
                end = time.perf_counter() + budget_s
                while True:
                    # Alternate traced and untraced ops, flipping the
                    # phase every query cycle so each query is seen
                    # both ways.
                    i = self._next_op
                    traced = (self.tracer is not None
                              and (i % self._cycle + i // self._cycle) % 2)
                    c0 = time.process_time()
                    dt = self._op(self.tracer if traced else NULL)
                    master += time.process_time() - c0
                    (blk.lat_traced if traced else blk.lat).append(dt)
                    blk.measured_ops += 1
                    blk.probe.append(self._probe())
                    if max_ops is not None:
                        if blk.measured_ops >= max_ops:
                            break
                    elif time.perf_counter() >= end:
                        break
                blk.cpu_s = master + sum(proc_cpu_s(p) for p in pids) - child0
                blk.rss_mb = max(proc_hwm_mb(p)
                                 for p in [os.getpid()] + pids)
            finally:
                wl.teardown()
        blk.pool_warnings = len(caught)
        blk.speed = statistics.median(blk.probe) / SpeedProbe.NOMINAL_S
        blk.setup_s /= blk.speed
        blk.cpu_s /= blk.speed
        blk.lat = [x / blk.speed for x in blk.lat]
        blk.lat_traced = [x / blk.speed for x in blk.lat_traced]
        self.leaks.check(pids)
        self.blocks.append(blk)
        return blk

    # -- metrics --------------------------------------------------------
    def _block_values(self, blk: Block) -> Dict[str, float]:
        q = self.wl.queries_per_op
        lat = blk.lat + blk.lat_traced
        return {
            "setup_s": blk.setup_s,
            "latency_ms_p50": statistics.median(blk.lat or lat) * 1e3,
            "queries_per_s": q * len(lat) / sum(lat),
            "cpu_ms_per_query": blk.cpu_s / (q * blk.measured_ops) * 1e3,
            "peak_rss_mb": blk.rss_mb,
            "machine_speed": blk.speed,
        }

    def end_to_end(self) -> Dict[str, float]:
        """The run's end-to-end metrics (see perf/README.md): the block
        formulas over all blocks pooled, set-up being the median."""
        pooled = Block(
            setup_s=statistics.median(b.setup_s for b in self.blocks),
            lat=[x for b in self.blocks for x in b.lat],
            lat_traced=[x for b in self.blocks for x in b.lat_traced],
            cpu_s=sum(b.cpu_s for b in self.blocks),
            measured_ops=sum(b.measured_ops for b in self.blocks),
            rss_mb=max(b.rss_mb for b in self.blocks))
        values = self._block_values(pooled)
        del values["machine_speed"]
        return values

    def per_block(self) -> List[Dict[str, float]]:
        return [self._block_values(b) for b in self.blocks]

    def driver_metrics(self, gen_s: float) -> Dict[str, float]:
        """The numbers that qualify the others (``driver.*``)."""
        lat = sorted(x for b in self.blocks for x in b.lat)
        traced = [x for b in self.blocks for x in b.lat_traced]
        n = len(lat)
        p50 = statistics.median(lat)
        medians = [statistics.median(b.lat or b.lat_traced)
                   for b in self.blocks]
        # The tail: the highest percentile with at least ten samples
        # beyond it, and which one that is; the median when the run is
        # too short to have one.
        k = max(n - 11, n // 2)
        return {
            "driver.latency_ms_p90": lat[min(n - 1, int(0.9 * n))] * 1e3,
            "driver.latency_ms_tail": lat[k] * 1e3,
            "driver.tail_pct": 100.0 * (k + 1) / n,
            "driver.samples": n,
            "driver.block_spread_frac": ((max(medians) - min(medians))
                                         / statistics.median(medians)),
            "driver.trace_overhead_frac": (statistics.median(traced) / p50
                                           - 1.0 if traced else 0.0),
            "driver.machine_speed": statistics.median(
                b.speed for b in self.blocks),
            "driver.gen_s": gen_s,
            "driver.leaks": self.leaks.total,
        }
