"""Event primitives: bare events, timeouts, composite events, interrupts."""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.sim.engine import NORMAL, SimulationError, Simulator


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessCancelled(Exception):
    """The value of a process that was cancelled before it finished.

    Raised in any process that waits on a cancelled process.  Unlike
    :class:`Interrupt`, cancellation is not delivered *into* the target
    process — its generator is closed (``finally`` blocks still run)
    and whatever it was waiting on is withdrawn, releasing the
    underlying resource.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` (or
    :meth:`fail`) schedules it; when the simulator pops it, it *fires*:
    all registered callbacks run with the event as argument.  Processes
    wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "triggered", "scheduled", "cancelled", "_value", "_failed")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        #: True once the event has fired (callbacks have run).
        self.triggered = False
        #: True once the event sits on the heap.
        self.scheduled = False
        #: A cancelled event is skipped when popped.
        self.cancelled = False
        self._value: Any = None
        self._failed = False

    # ------------------------------------------------------------------
    @property
    def value(self) -> Any:
        """The event's payload (or the exception if it failed)."""
        return self._value

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def ok(self) -> bool:
        return self.triggered and not self._failed

    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with an optional payload."""
        self._value = value
        self.sim.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters see *exception* raised."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._failed = True
        self._value = exception
        self.sim.schedule(self, delay)
        return self

    def cancel(self) -> None:
        """Prevent a scheduled event from firing."""
        self.cancelled = True

    def withdraw(self) -> None:
        """The (sole) waiter no longer wants this event.

        Called when the process waiting on this event is cancelled or
        interrupted.  Subclasses backed by a shared resource override
        this to release their claim (dequeue a disk request, give back
        a NIC slot, leave a store's waiter queue); the base class just
        makes sure the event can never fire.

        Withdrawal assumes exclusive ownership: do not withdraw an
        event that other waiters still hold callbacks on.
        """
        if not self.triggered:
            self.cancelled = True

    # ------------------------------------------------------------------
    def fire(self) -> None:
        """Run callbacks.  Called by the simulator only."""
        if self.triggered:
            raise SimulationError(f"{self!r} fired twice")
        self.triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    # ------------------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register *fn* to run when the event fires (immediately if it
        already has)."""
        if self.triggered:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self.triggered else ("scheduled" if self.scheduled else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None):
        super().__init__(sim)
        self.delay = float(delay)
        self._value = value
        sim.schedule(self, self.delay)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        super().__init__(sim)
        self.events: List[Event] = list(events)
        self._count = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _release_pending(self, exclude: Optional[Event] = None) -> None:
        """Detach from and withdraw every component that has not fired.

        Withdrawn processes are cancelled and release their resources;
        withdrawn plain events simply never fire.
        """
        for ev in self.events:
            if ev is exclude or ev.triggered or ev.scheduled:
                continue
            ev.callbacks = [cb for cb in ev.callbacks
                            if getattr(cb, "__self__", None) is not self]
            ev.withdraw()

    def withdraw(self) -> None:
        """Cascade: the condition's waiter is gone, so nobody will ever
        see the components either — cancel them too."""
        super().withdraw()
        self._release_pending()


class AllOf(_Condition):
    """Fires when *all* component events have fired.

    The payload is the list of component values, in the original order.
    If any component fails, the condition fails with that exception
    *and cancels the still-pending components*: a failed fan-out leaves
    no sibling running to silently perturb later measurements (see
    :meth:`repro.sim.process.Process.cancel`).
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered or self.scheduled:
            return
        if event.failed:
            self.fail(event.value)
            self._release_pending(exclude=event)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed([ev.value for ev in self.events])


class AnyOf(_Condition):
    """Fires when the *first* component event fires.

    The payload is that first event's value; the winning event itself is
    available as :attr:`winner`.
    """

    __slots__ = ("winner",)

    def __init__(self, sim: Simulator, events: Iterable[Event]):
        self.winner: Optional[Event] = None
        super().__init__(sim, events)

    def _check(self, event: Event) -> None:
        if self.triggered or self.scheduled:
            return
        self.winner = event
        if event.failed:
            self.fail(event.value)
        else:
            self.succeed(event.value)
