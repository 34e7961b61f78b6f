"""Lightweight per-stage profiling for the search drivers.

``REPRO_PROFILE=1`` (or the CLI's ``--profile``) makes every top-level
:func:`repro.blast.search.search` / ``search_batch`` call emit one JSON
line to stderr with per-stage wall times — pack, index, scan, seed,
extend, gapped_bulk (the score-mode pass, run when a batch's gapped
problems do not fit one align chunk), gapped (the one
``banded_local_align_many`` call of the batch: over the score pass's
survivors, or over every problem when there was none) — plus
counters.  ``seeds_skipped``
counts the seeds the per-diagonal coverage replay dropped, in the
groups that reach the replay: a group whose best extension scores
under the emit bound (``search._emit_bound``) is dropped whole before
it, and its seeds are counted under ``seeds`` only.  The gapped stage
threads three
counters, the same on both routes since both replay one plan:
``gapped_trials`` (distinct gapped DP problems, one per (group,
diagonal)), ``gapped_traceback`` (problems aligned with traceback —
the score pass's survivors, or every problem when a batch is aligned
directly) and
``gapped_culled`` (triggered candidates minus tracebacks: memo hits
and, after a score pass, zero-score results and E-value-reject
skips).
Until PR 22 the scalar route ran and counted one DP per triggered
candidate; distinct problems are never more, and the same on every
benchmark query.  The scan stage reports ``scan_step`` (4 when the
batch took the packed scan, which looks at every 4th window through
its 8-mer filter; 1 = the dense scan) and ``scan_candidates`` (windows whose full word was tested
against the bitmap — every window at step 1, four per filter survivor
otherwise), so the filter's selectivity can be read off one line, and
``hit_groups``: the (query orientation, subject) groups with a word
hit that the scan formed, summed over fragments — beside ``seeds``, the
number the candidate pipeline's per-group work scales with.  The
extend stage counts ``seeds_rescanned``: the (seed, direction) walks
that neither bulk route settled within its last 64-position window and
that took the exact per-seed walk (``extend._best_prefix``) — true
alignments, not the random-hit noise the windows are sized for.  The
point is to stop guessing where the numpy passes go: kernel PRs read
the stage split instead of re-deriving it with ad-hoc timers.

The hook is designed to cost nothing when off: the drivers consult
:func:`current_profile` (a module-global read) and skip every timer
when it returns ``None``.  Only the *outermost* search activates a
profile — nested calls (``search`` runs as a ``search_batch`` of one)
accumulate into the active one rather than emitting their own lines.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Dict, Optional

#: Environment switch; any non-empty value other than ``0`` enables
#: profiling (the CLI's ``--profile`` sets it to ``1`` for the extent of
#: one command).
PROFILE_ENV = "REPRO_PROFILE"

_active: Optional["StageProfile"] = None


def profiling_enabled() -> bool:
    """Whether the environment asks for per-stage emission."""
    return (os.environ.get(PROFILE_ENV) or "").strip() not in ("", "0")


def current_profile() -> Optional["StageProfile"]:
    """The profile of the enclosing search call, or ``None`` (the
    common, zero-overhead case)."""
    return _active


class StageProfile:
    """Accumulates stage wall times and counters for one search call."""

    def __init__(self, label: str, **meta):
        self.label = label
        self.meta = dict(meta)
        self.stages: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self._t0 = time.perf_counter()

    def add(self, stage: str, seconds: float) -> None:
        """Accumulate *seconds* into a stage bucket."""
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter (seeds seen, seeds skipped, subjects hit...)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def as_dict(self) -> dict:
        out = {"profile": self.label,
               "total_s": round(time.perf_counter() - self._t0, 6)}
        out.update(self.meta)
        out["stages"] = {k: round(v, 6) for k, v in self.stages.items()}
        if self.counters:
            out["counters"] = dict(self.counters)
        return out

    def emit(self) -> None:
        """One JSON line to stderr (never stdout — results live there)."""
        print(json.dumps(self.as_dict()), file=sys.stderr)


@contextmanager
def profiled(label: str, enabled: Optional[bool] = None,
             emit: bool = True, **meta):
    """Activate a :class:`StageProfile` for the dynamic extent.

    Yields the active profile (or ``None`` when profiling is off).  A
    profile already being active means this call is nested inside
    another profiled search: the outer one keeps collecting and no new
    line is emitted.  ``emit=False`` collects stage times without
    printing the JSON line — benchmarks use it to read stage splits
    programmatically from the yielded profile.
    """
    global _active
    if enabled is None:
        enabled = profiling_enabled()
    if not enabled or _active is not None:
        yield _active
        return
    prof = StageProfile(label, **meta)
    _active = prof
    try:
        yield prof
    finally:
        _active = None
        if emit:
            prof.emit()
