"""Schedule-perturbation fuzzing: a race detector for the DES.

The engine tie-breaks simultaneous events by insertion order, so any
model result can silently depend on the order processes happen to be
spawned.  The fuzzer re-runs a scenario with the tie-break among
same-(time, priority) events randomized under K different seeds and
asserts the *end state* is equivalent to the unperturbed baseline:
timings may legitimately shift, but conserved totals (work done, bytes
moved, failures observed) must not, the event heap must drain, no
process may be orphaned, and every registered resource must audit
clean.

Usage::

    from repro.sim.fuzz import ScheduleFuzzer, perturbed

    fuzzer = ScheduleFuzzer(run_scenario, seeds=range(25))
    report = fuzzer.run()        # raises ScheduleDivergence on a race
    assert report.ok

``run_scenario`` builds its own simulator(s), runs them to completion,
and returns a JSON-ish fingerprint of the end state (everything the
scenario considers order-independent).  Simulators created inside a
:func:`perturbed` context pick up the perturbation seed automatically,
so existing harnesses (``run_experiment``, ``run_parallel_blast``)
need no plumbing.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.sim import engine
from repro.sim.check import InvariantViolation


class ScheduleDivergence(AssertionError):
    """A perturbed schedule produced a different end state than the
    baseline — the scenario's outcome depends on event insertion order."""

    def __init__(self, seed: int, baseline: Any, perturbed: Any,
                 diff: Sequence[str]):
        lines = "\n  ".join(diff) or "(fingerprints differ)"
        super().__init__(
            f"schedule perturbation seed={seed} changed the end state:\n  {lines}")
        self.seed = seed
        self.baseline = baseline
        self.perturbed = perturbed


@contextlib.contextmanager
def perturbed(seed: Optional[int]):
    """Context manager: simulators constructed inside break ties by seed.

    Same-(time, priority) events fire in an order drawn from a
    generator seeded *seed*; ``None`` restores insertion order.
    """
    prev = engine._TIE_BREAK_OVERRIDE
    engine._TIE_BREAK_OVERRIDE = seed
    try:
        yield
    finally:
        engine._TIE_BREAK_OVERRIDE = prev


@contextlib.contextmanager
def strict_checking():
    """Context manager: simulators constructed inside run their
    invariant monitor in strict mode."""
    prev = engine._STRICT_OVERRIDE
    engine._STRICT_OVERRIDE = True
    try:
        yield
    finally:
        engine._STRICT_OVERRIDE = prev


def job_fingerprint(job: Any) -> dict:
    """Order-independent end-state summary of a
    :class:`~repro.parallel.master.JobResult`.

    Which worker searched which fragment legitimately depends on message
    arrival order, so per-worker assignments are folded into conserved
    totals: the multiset of searched fragments, total bytes moved, and
    the set of aborted workers.
    """
    return {
        "fragments_done": job.fragments_done,
        "fragments_searched": sorted(
            f for w in job.workers for f in w.fragments),
        "requeues": job.requeues,
        "aborted_workers": list(job.aborted_workers),
        "workers_accounted": len(job.workers),
        "read_bytes_total": sum(w.read_bytes for w in job.workers),
        "write_bytes_total": sum(w.write_bytes for w in job.workers),
    }


def _diff(baseline: Any, other: Any, prefix: str = "") -> List[str]:
    """Human-readable path-wise diff of two fingerprints."""
    if isinstance(baseline, dict) and isinstance(other, dict):
        out: List[str] = []
        for key in sorted(set(baseline) | set(other)):
            sub = f"{prefix}.{key}" if prefix else str(key)
            if key not in baseline:
                out.append(f"{sub}: only in perturbed ({other[key]!r})")
            elif key not in other:
                out.append(f"{sub}: only in baseline ({baseline[key]!r})")
            else:
                out.extend(_diff(baseline[key], other[key], sub))
        return out
    if baseline != other:
        return [f"{prefix or 'value'}: baseline {baseline!r} != perturbed {other!r}"]
    return []


@dataclass
class FuzzReport:
    """Outcome of one :meth:`ScheduleFuzzer.run`."""

    baseline: Any
    seeds_passed: List[int] = field(default_factory=list)
    #: (seed, exception) pairs when running with ``raise_on_divergence=False``.
    failures: List[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class ScheduleFuzzer:
    """Replay a scenario under K perturbed schedules and compare end
    states against the unperturbed baseline.

    Parameters
    ----------
    scenario:
        Zero-argument callable that builds and runs one simulation to
        completion and returns a fingerprint (any ==-comparable,
        preferably dict-of-scalars).  It must construct its simulators
        *inside* the call so the perturbation context applies.
    seeds:
        Perturbation seeds to try (default ``range(25)``).

    Every simulator (baseline and perturbed) runs with strict invariant
    checking on.
    """

    def __init__(self, scenario: Callable[[], Any],
                 seeds: Iterable[int] = range(25)):
        self.scenario = scenario
        self.seeds = list(seeds)

    def _run_once(self, seed: Optional[int]) -> Any:
        with strict_checking(), perturbed(seed):
            return self.scenario()

    def run(self, raise_on_divergence: bool = True) -> FuzzReport:
        """Run baseline + every seed.

        With ``raise_on_divergence`` (default), the first divergent or
        invariant-violating seed raises — :class:`ScheduleDivergence`
        names the seed, so the failure is replayable with
        ``perturbed(seed)``.  Otherwise failures are collected in the
        report.
        """
        baseline = self._run_once(None)
        report = FuzzReport(baseline=baseline)
        for seed in self.seeds:
            try:
                result = self._run_once(seed)
            except (InvariantViolation, AssertionError) as exc:
                exc = type(exc)(f"[perturbation seed={seed}] {exc}")
                if raise_on_divergence:
                    raise exc from None
                report.failures.append((seed, exc))
                continue
            diff = _diff(baseline, result)
            if diff:
                exc = ScheduleDivergence(seed, baseline, result, diff)
                if raise_on_divergence:
                    raise exc
                report.failures.append((seed, exc))
            else:
                report.seeds_passed.append(seed)
        return report
