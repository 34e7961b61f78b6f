"""The event loop at the heart of the simulation.

The :class:`Simulator` owns virtual time and an event heap.  Events are
scheduled with a (time, priority, rank, sequence) key so that
simultaneous events fire in a deterministic order: first by priority
(lower first), then by insertion order.  ``rank`` is 0 in normal runs;
under schedule perturbation (``tie_break_seed``, see
:mod:`repro.sim.fuzz`) it is a seeded random draw, which permutes the
firing order of same-(time, priority) events while leaving the time and
priority semantics untouched — a race detector for models that silently
depend on insertion order.
"""

from __future__ import annotations

import heapq
import os
import random
from typing import TYPE_CHECKING, Any, Generator, Optional

if TYPE_CHECKING:
    from repro.sim.events import Event
    from repro.sim.process import Process

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for "urgent" bookkeeping events (fire before NORMAL).
URGENT = 0

#: Process-wide overrides installed by :func:`repro.sim.fuzz.perturbed`
#: / :func:`repro.sim.fuzz.strict_checking`; ``None`` means "consult
#: the environment".  Simulators read these once, at construction.
_TIE_BREAK_OVERRIDE: Optional[int] = None
_STRICT_OVERRIDE: Optional[bool] = None


def default_tie_break_seed() -> Optional[int]:
    """The tie-break seed new simulators pick up:
    the active :func:`repro.sim.fuzz.perturbed` context, else the
    ``REPRO_TIE_BREAK_SEED`` environment variable, else ``None``
    (insertion order)."""
    if _TIE_BREAK_OVERRIDE is not None:
        return _TIE_BREAK_OVERRIDE
    env = os.environ.get("REPRO_TIE_BREAK_SEED", "")
    return int(env) if env else None


def default_strict() -> bool:
    """Whether new simulators run their invariant monitor in strict
    mode: the active :func:`repro.sim.fuzz.strict_checking` context,
    else the ``REPRO_STRICT_INVARIANTS`` environment variable."""
    if _STRICT_OVERRIDE is not None:
        return _STRICT_OVERRIDE
    return os.environ.get("REPRO_STRICT_INVARIANTS", "") not in ("", "0")


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class StopProcess(Exception):
    """Raised inside a process generator to terminate it early.

    ``raise StopProcess(value)`` behaves like ``return value`` but also
    works from helper functions called by the process body.
    """

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Simulator:
    """Discrete-event simulation engine.

    Parameters
    ----------
    start:
        Initial value of the simulation clock, in seconds.
    strict:
        Run the :class:`~repro.sim.check.InvariantMonitor` in strict
        mode (extra conservation-ledger checks during audits).

    Notes
    -----
    Under :func:`repro.sim.fuzz.perturbed` (or ``REPRO_TIE_BREAK_SEED``)
    same-(time, priority) events fire in a seeded pseudo-random order
    instead of insertion order — still fully deterministic for a fixed
    seed.  The simulator is single-threaded and deterministic: two runs
    with the same seed and the same process structure produce identical
    event orderings.  All user code runs inside generator-based processes (see
    :class:`repro.sim.process.Process`).
    """

    def __init__(self, start: float = 0.0, strict: Optional[bool] = None):
        from repro.sim.check import InvariantMonitor

        self._now = float(start)
        self._heap: list = []
        self._seq = 0
        self._active: int = 0  # events on the heap that are not cancelled
        self._processes: set = set()  # live Process objects (see orphans())
        self.tie_break_seed = default_tie_break_seed()
        self._tie_rng = (random.Random(self.tie_break_seed)
                         if self.tie_break_seed is not None else None)
        if strict is None:
            strict = default_strict()
        #: Runtime invariant checker (see :mod:`repro.sim.check`).
        self.check = InvariantMonitor(self, strict=strict)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    def schedule(self, event: "Event", delay: float = 0.0, priority: int = NORMAL) -> None:
        """Schedule *event* to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        if event.scheduled:
            raise SimulationError(f"event {event!r} scheduled twice")
        event.scheduled = True
        self._seq += 1
        rank = self._tie_rng.getrandbits(32) if self._tie_rng is not None else 0
        heapq.heappush(self._heap,
                       (self._now + delay, priority, rank, self._seq, event))
        self._active += 1

    # ------------------------------------------------------------------
    def process(self, generator: Generator, name: Optional[str] = None,
                daemon: bool = False) -> "Process":
        """Launch *generator* as a new simulation process.

        Returns the :class:`~repro.sim.process.Process`, which is itself
        an event that fires when the process finishes.  *daemon*
        processes are infrastructure loops (disk schedulers, monitors)
        that run forever by design and are excluded from the
        :meth:`orphans` accounting.
        """
        from repro.sim.process import Process

        return Process(self, generator, name=name, daemon=daemon)

    # ------------------------------------------------------------------
    def orphans(self) -> list:
        """Non-daemon processes that are alive but have no way to make
        progress.

        Meaningful after the event heap has drained (``run()``
        returned): any surviving non-daemon process is then blocked on
        an event that can never fire — a leaked resource or an orphaned
        fan-out branch.  The failure-injection tests assert this is
        empty.
        """
        return [p for p in self._processes
                if p.is_alive and not p.daemon]

    def find_process(self, name: str) -> Optional["Process"]:
        """First alive process with the given *name*, or ``None``.

        Failure-injection harnesses use this to target a process
        (e.g. a named worker) without threading handles through every
        layer."""
        for p in self._processes:
            if p.name == name and p.is_alive:
                return p
        return None

    # ------------------------------------------------------------------
    def timeout(self, delay: float) -> "Event":
        """Convenience constructor for :class:`repro.sim.events.Timeout`."""
        from repro.sim.events import Timeout

        return Timeout(self, delay)

    # ------------------------------------------------------------------
    def event(self) -> "Event":
        """Create a bare, untriggered event bound to this simulator."""
        from repro.sim.events import Event

        return Event(self)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event on the heap.

        Raises
        ------
        SimulationError
            If the heap is empty (instead of leaking ``IndexError``
            from the underlying ``heapq``).
        """
        if not self._heap:
            raise SimulationError("step on empty heap")
        when, _prio, _rank, _seq, event = heapq.heappop(self._heap)
        self._active -= 1
        if event.cancelled:
            return
        if when < self._now:
            raise SimulationError("time ran backwards")
        self._now = when
        self.check.note_fire(when)
        event.fire()

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or the clock passes *until*.

        Returns the final simulation time.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        while self._heap:
            when = self._heap[0][0]
            if until is not None and when > until:
                self._now = until
                return self._now
            self.step()
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    # ------------------------------------------------------------------
    def run_until_complete(self, *processes: "Event", limit: float = 1e12) -> None:
        """Run until every event in *processes* has fired.

        Raises
        ------
        SimulationError
            If the event heap drains (deadlock) before all the given
            events have triggered, or the time *limit* is exceeded.
        """
        pending = [p for p in processes if not p.triggered]
        while pending:
            if not self._heap:
                raise SimulationError(
                    f"deadlock: {len(pending)} process(es) never completed"
                )
            if self._now > limit:
                raise SimulationError(f"simulation exceeded time limit {limit}")
            self.step()
            pending = [p for p in pending if not p.triggered]

    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self._now:.6f} pending={len(self._heap)}>"
