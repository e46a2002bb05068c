"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes ``yield`` events to suspend until they trigger.  Events carry a
value (delivered to the waiting process) or an exception (raised inside
the waiting process), mirroring the success/failure duality of remote
calls in the systems built on top of the kernel.

Every event class is ``__slots__``-backed: events are the single most
allocated object in a run (one per timeout, one per process, one per
trigger), and dict-backed attributes were a measurable share of the
kernel hot loop.  Subclasses outside this package may still add
attributes freely — a subclass without ``__slots__`` gets a ``__dict__``
as usual.
"""

from __future__ import annotations

import typing
from heapq import heappush

from repro.sim.rng import _mix64

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Environment


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value supplied by the interrupter
    (for example, a description of an injected failure).
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "no value yet" from "value is None".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle::

        e = Event(env)       # untriggered
        e.succeed(value)     # or e.fail(exc); schedules callbacks at `now`
        # -> triggered, then processed once callbacks have run

    Events may only be triggered once; a second trigger raises
    ``RuntimeError``.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: typing.Optional[
            typing.List[typing.Callable[["Event"], None]]
        ] = []
        self._value: object = _PENDING
        self._exception: typing.Optional[BaseException] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        if not self.triggered:
            raise RuntimeError("event has not been triggered")
        return self._exception is None

    @property
    def value(self) -> object:
        """The value the event carried, or raises its exception."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError("event already triggered")
        self._value = value
        env = self.env
        if env.monitor is not None:
            env.monitor.event_triggered(self)
        env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        If no process ever waits on a failed event, the kernel surfaces
        the exception at ``run()`` time so failures never pass silently.
        """
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        env = self.env
        if env.monitor is not None:
            env.monitor.event_triggered(self)
        env._schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled (suppresses kernel surfacing)."""
        self._defused = True

    def _add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately at the current time.
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks; called by the kernel when the event comes due."""
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(self)
        elif self._exception is not None and not self._defused:
            # Nobody was listening; re-raise so the failure is visible.
            raise self._exception


class Timeout(Event):
    """An event that triggers ``delay`` milliseconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None):
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        # Inlined Event.__init__ plus direct queue insertion: a Timeout
        # is the hottest allocation in the kernel, and its delay is
        # already validated, so the _schedule() re-check is skipped.
        self.env = env
        self.callbacks = []
        self._exception = None
        self._defused = False
        self.delay = delay = float(delay)
        self._value = value
        eid = env._eid
        env._eid = eid + 1
        if env._salt is not None:
            eid = _mix64(eid ^ env._salt)
        heappush(env._queue, (env._now + delay, eid, self))

    def succeed(self, value: object = None) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout triggers itself; do not call succeed()")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise RuntimeError("Timeout triggers itself; do not call fail()")

    @property
    def triggered(self) -> bool:
        # A Timeout is scheduled at construction; it is "triggered" in the
        # sense that its value is fixed, but it remains waitable until
        # processed.  Report True so double-trigger guards hold.
        return True


class _ConditionBase(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: typing.Sequence[Event]):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        self._done = 0
        for event in self.events:
            if event.callbacks is None:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _collect(self) -> typing.Dict[Event, object]:
        results: typing.Dict[Event, object] = {}
        for event in self.events:
            if event.triggered and event._exception is None and event.processed:
                results[event] = event._value
        return results

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_ConditionBase):
    """Triggers as soon as any child event triggers.

    Carries a dict mapping each already-processed successful child to its
    value.  A failing child fails the condition.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defuse()
            return
        if event._exception is not None:
            event.defuse()
            self.fail(event._exception)
        else:
            self.succeed(self._collect() or {event: event._value})


class AllOf(_ConditionBase):
    """Triggers once every child event has triggered.

    Carries a dict mapping every child to its value.  The first failing
    child fails the condition.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defuse()
            return
        if event._exception is not None:
            event.defuse()
            self.fail(event._exception)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed({e: e._value for e in self.events})
