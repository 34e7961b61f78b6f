"""Deterministic fault injection for the real execution pool.

The paper's robustness experiments (dead server, Figure 7; hot-spot
server, Figures 8–9) perturb a *running* system and measure how the
I/O layer degrades.  This module is the real-runtime analog of those
perturbations: a seeded :class:`FaultPlan` arms kill / hang / slow /
drop-result / corrupt-pack faults against specific workers or tasks,
and the pool's workers consult a :class:`FaultInjector` built from the
plan at the three points where a real machine would betray them — pack
attach, task receipt and result reply.  The production code path is unchanged:
with no plan armed the injector never exists, and a plan can be fed
through the ``REPRO_EXEC_FAULT_PLAN`` environment variable so the CLI
and CI chaos suites exercise the exact code users run.

Every recovery action the pool takes — death, requeue, hedge, respawn,
integrity failure, serial fallback — is recorded in a structured
:class:`FailureLedger`, the runtime twin of the simulator's violation
ledger (PR 2): chaos runs assert on its counters instead of scraping
logs, and CI fails on any *anomaly* entry (an event the hardened pool
should never produce, like a cross-run result mismatch).

Fault semantics (all applied worker-side):

``kill``
    ``os._exit`` at task receipt — the process dies without cleanup,
    exactly like the paper's dead data server (SIGKILL semantics).
``hang``
    sleep ``delay`` (default effectively forever) before serving the
    task — the hot server that stops answering; only the master's
    hard deadline gets the capacity back.
``slow``
    sleep ``delay`` then serve normally — the straggling hot server
    of Figures 8–9; the soft deadline hedges around it.
``drop_result``
    serve nothing and send nothing — a lost reply; indistinguishable
    from a hang at the master, and recovered the same way.
``corrupt_pack``
    scribble into the shared segment before attaching it — the torn
    or corrupted read that CRC verification must catch *before* any
    hit is produced.

Network fault kinds (applied at result-send time by the one worker
loop, :func:`repro.exec.nodes.serve_tasks`, so they mean the same on a
remote node and on a local worker):

``disconnect``
    leave the session abruptly instead of sending the result — the
    dropped TCP connection; the master sees EOF and requeues (to a
    mirror).  A node's agent survives to accept a reconnect; a local
    worker's process ends and is respawned.
``partition``
    go completely silent for ``delay`` seconds (no result, no
    heartbeat replies), then resume — the network partition that is
    indistinguishable from a hang until it heals; the master's
    deadlines decide first.
``delay``
    sleep ``delay`` then send normally — the slow link; the hedge
    races it and the late duplicate is discarded as stale.
``reorder``
    hold this result and release it *after* the next one — delivery
    reordering, which per-task keys make harmless and per-connection
    frame sequence numbers keep distinguishable from loss.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Recognised fault kinds, in documentation order.
FAULT_KINDS = ("kill", "hang", "slow", "drop_result", "corrupt_pack",
               "disconnect", "partition", "delay", "reorder")

#: The subset applied at result-send time (``on_result``), on either
#: transport; the rest fire at task receipt (``on_task``) or attach.
NET_FAULT_KINDS = frozenset({"disconnect", "partition", "delay", "reorder"})

#: Environment variable carrying a JSON fault plan (or ``@/path/to``
#: a JSON file); read by :class:`~repro.exec.pool.ExecPool` when no
#: explicit plan is passed, so chaos suites drive unmodified callers.
#: The only environment variable :mod:`repro.exec` reads.
FAULT_PLAN_ENV = "REPRO_EXEC_FAULT_PLAN"

#: A ``hang`` with no explicit delay sleeps this long — far past any
#: reasonable hard deadline, i.e. "forever" for the pool's purposes.
HANG_FOREVER = 3600.0


@dataclass(frozen=True)
class Fault:
    """One armed fault: a kind plus selectors that must all match.

    ``rank`` selects a worker (``None`` = any worker), ``task_index``
    the n-th task *that worker* serves (0-based, counted per worker),
    ``query`` the query index inside a batch, and ``fragment`` the
    fragment id of the pack the task (or attach, for ``corrupt_pack``)
    touches.  Unset selectors match everything, so ``Fault("kill")``
    kills every worker on its first matching task — ``once=True``
    (the default) disarms a fault after its first firing, which keeps
    seeded plans finite and chaos runs convergent.  Workers the pool
    *respawns* carry no plan at all: a replacement is a healthy
    machine, so an injected crash cannot poison its own requeued task
    forever.
    """

    kind: str
    rank: Optional[int] = None
    task_index: Optional[int] = None
    query: Optional[int] = None
    fragment: Optional[int] = None
    delay: Optional[float] = None
    once: bool = True

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")

    @property
    def stall(self) -> float:
        """Seconds a ``hang``/``slow`` fault sleeps for."""
        if self.delay is not None:
            return float(self.delay)
        return HANG_FOREVER if self.kind == "hang" else 0.75


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable set of armed faults.

    Plans ride to workers in the agent's arguments (handed over once
    at the fork), round-trip through JSON for the
    ``REPRO_EXEC_FAULT_PLAN`` env hook, and carry the seed that
    generated them so a failing chaos run is reproducible from its
    one-line report.
    """

    faults: Tuple[Fault, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise to the JSON form ``from_json`` accepts."""
        return json.dumps({
            "seed": self.seed,
            "faults": [{k: v for k, v in vars(f).items() if v is not None
                        and not (k == "once" and v is True)}
                       for f in self.faults],
        })

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON; raises ``ValueError`` on bad input."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad fault plan JSON: {exc}") from None
        if isinstance(doc, list):        # bare fault list shorthand
            doc = {"faults": doc}
        if not isinstance(doc, dict) or not isinstance(
                doc.get("faults", []), list):
            raise ValueError("fault plan must be a JSON object with a "
                             "'faults' list (or a bare list of faults)")
        try:
            faults = tuple(Fault(**f) for f in doc.get("faults", []))
        except TypeError as exc:
            raise ValueError(f"bad fault entry: {exc}") from None
        return cls(faults=faults, seed=doc.get("seed"))

    @classmethod
    def from_env(cls, value: Optional[str] = None) -> Optional["FaultPlan"]:
        """Build a plan from ``REPRO_EXEC_FAULT_PLAN`` (inline JSON, or
        ``@/path`` to a JSON file).  Returns ``None`` when unset/empty."""
        if value is None:
            value = os.environ.get(FAULT_PLAN_ENV, "")
        value = value.strip()
        if not value:
            return None
        if value.startswith("@"):
            with open(value[1:]) as f:
                value = f.read()
        return cls.from_json(value)


def random_plan(seed: int, n_workers: int,
                kinds: Sequence[str] = ("kill", "hang", "slow",
                                        "drop_result"),
                n_faults: int = 2, max_task_index: int = 3,
                slow_delay: float = 1.0) -> FaultPlan:
    """A seeded random plan for chaos sweeps.

    Picks *n_faults* (kind, rank, task_index) triples from the given
    kinds; ``slow`` faults get a short *slow_delay* so sweeps stay
    fast, ``hang``/``drop_result`` rely on the pool's deadlines.  The
    same seed always yields the same plan (plain ``random.Random``, no
    global state).
    """
    import random

    rng = random.Random(seed)
    faults = []
    for _ in range(max(0, n_faults)):
        kind = rng.choice(list(kinds))
        faults.append(Fault(
            kind=kind,
            rank=rng.randrange(n_workers),
            task_index=rng.randrange(max_task_index + 1),
            delay=slow_delay if kind == "slow" else None,
        ))
    return FaultPlan(faults=tuple(faults), seed=seed)


class FaultInjector:
    """Worker-side fault arbiter: matches plan entries to events.

    Built per worker from the shipped plan; stateful only in which
    one-shot faults have fired and how many tasks this worker has
    served (the ``task_index`` selector counts per worker, so a plan
    is deterministic regardless of global scheduling order).
    """

    def __init__(self, plan: FaultPlan, rank: int):
        self.rank = rank
        self._armed: List[Fault] = [
            f for f in plan.faults if f.rank is None or f.rank == rank]
        self._task_no = -1

    def _take(self, match) -> Optional[Fault]:
        for i, f in enumerate(self._armed):
            if match(f):
                if f.once:
                    del self._armed[i]
                return f
        return None

    def on_attach(self, fragment_id: Optional[int]) -> Optional[Fault]:
        """The fault (if any) armed against attaching this fragment."""
        return self._take(lambda f: f.kind == "corrupt_pack" and (
            f.fragment is None or f.fragment == fragment_id))

    def on_task(self, query, fragment_id=None) -> Optional[Fault]:
        """The fault (if any) armed against the task just received.

        *query* is one query index or, for a multi-query batched task,
        a sequence of indices; *fragment_id* likewise is one fragment
        id or the sequence of ids of the task's packs.  A
        ``query``/``fragment`` selector matches when the armed value is
        anywhere in the batch or the packs.  Either way the task
        counter advances once per task, so ``task_index`` keeps
        counting what the worker actually serves.
        """
        self._task_no += 1
        if query is None or isinstance(query, int):
            queries = (query,)
        else:
            queries = tuple(query)
        if fragment_id is None or isinstance(fragment_id, int):
            frags = (fragment_id,)
        else:
            frags = tuple(fragment_id)
        return self._take(lambda f: f.kind != "corrupt_pack"
                          and f.kind not in NET_FAULT_KINDS
                          and (f.task_index is None
                               or f.task_index == self._task_no)
                          and (f.query is None or f.query in queries)
                          and (f.fragment is None
                               or f.fragment in frags))

    def on_result(self, query, fragment_id=None) -> Optional[Fault]:
        """The network fault (if any) armed against the result the
        worker is about to send.  Selector semantics match
        :meth:`on_task` but against the task counter *as already
        advanced* by the paired ``on_task`` call — the two hooks see
        the same task index for the same task."""
        if query is None or isinstance(query, int):
            queries = (query,)
        else:
            queries = tuple(query)
        if fragment_id is None or isinstance(fragment_id, int):
            frags = (fragment_id,)
        else:
            frags = tuple(fragment_id)
        return self._take(lambda f: f.kind in NET_FAULT_KINDS
                          and (f.task_index is None
                               or f.task_index == self._task_no)
                          and (f.query is None or f.query in queries)
                          and (f.fragment is None
                               or f.fragment in frags))


# ----------------------------------------------------------------------
#: Ledger kinds that a hardened pool must never produce; CI chaos runs
#: fail when any appear.  (``integrity``/``fallback`` etc. are expected
#: outcomes of the faults that provoke them, not anomalies.)
ANOMALY_KINDS = frozenset({"result_mismatch", "anomaly"})


@dataclass(frozen=True)
class LedgerEntry:
    """One recovery event: what happened, to whom, about which task."""

    kind: str
    rank: Optional[int] = None
    task: Optional[tuple] = None
    detail: str = ""
    time: float = 0.0


class FailureLedger:
    """Structured record of every fault, requeue, hedge, and respawn.

    The runtime counterpart of the simulator's violation ledger: the
    pool appends an entry for each recovery action, chaos suites
    assert on :meth:`summary` counters, and :meth:`anomalies` gates CI
    (non-zero means the hardening itself misbehaved).
    """

    def __init__(self):
        self.entries: List[LedgerEntry] = []
        self._t0 = time.monotonic()

    def record(self, kind: str, rank: Optional[int] = None,
               task: Optional[tuple] = None, detail: str = "") -> LedgerEntry:
        """Append one event; returns the entry for convenience."""
        entry = LedgerEntry(kind=kind, rank=rank, task=task, detail=detail,
                            time=time.monotonic() - self._t0)
        self.entries.append(entry)
        return entry

    def count(self, kind: Optional[str] = None) -> int:
        """Entries of one kind (or all of them)."""
        if kind is None:
            return len(self.entries)
        return sum(1 for e in self.entries if e.kind == kind)

    def summary(self) -> Dict[str, int]:
        """``{kind: count}`` over every recorded entry."""
        out: Dict[str, int] = {}
        for e in self.entries:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def anomalies(self) -> int:
        """Events the hardened pool should never produce (CI gate)."""
        return sum(1 for e in self.entries if e.kind in ANOMALY_KINDS)

    def clear(self) -> None:
        """Drop all entries (per-sweep reuse in chaos tools)."""
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FailureLedger {self.summary()!r}>"
