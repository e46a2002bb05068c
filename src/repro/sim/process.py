"""Generator-based simulated processes.

A process is a Python generator that ``yield``\\ s :class:`Event` objects
to suspend until they trigger.  The value of a successful event is sent
back into the generator; the exception of a failed event is thrown into
it.  When the generator returns, the process (itself an event) succeeds
with the generator's return value, so processes compose: one process may
``yield`` another.
"""

from __future__ import annotations

import typing

from repro.sim.events import Event, Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

ProcessGenerator = typing.Generator[Event, object, object]


class Process(Event):
    """A running simulated activity; also an event others can wait on."""

    __slots__ = ("generator", "name", "_target")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: typing.Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: typing.Optional[Event] = None
        # Kick the process off at the current simulated time: a start
        # event, pre-succeeded and scheduled directly (the general
        # succeed() path re-checks trigger state we know to be fresh).
        start = Event(env)
        start.callbacks.append(self._resume)
        start._value = None
        if env.monitor is not None:
            env.monitor.event_triggered(start)
        env._schedule(start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Used by failure injection (crash a server mid-call) and by
        timeout wrappers.  Interrupting a finished process is an error.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        # Detach from whatever the process was waiting on so the stale
        # resume callback never fires.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        punch = Event(self.env)
        punch.callbacks.append(self._resume)
        punch.fail(Interrupt(cause))

    def _resume(self, event: Event) -> None:
        """Run the generator from ``event`` up to its next pending yield.

        The value of ``event`` is sent in (its exception thrown in).  A
        yielded event that is already processed resumes the generator
        again on the spot, in a new segment.  A generator that returns
        while nobody waits on the process settles it in place: no
        completion event is scheduled, since it would have no callbacks
        to run.  A failure always takes the scheduled path, so an
        unobserved one still raises from ``run()``.
        """
        env = self.env
        monitor = env.monitor
        generator = self.generator
        while True:
            if monitor is not None:
                monitor.note_resume(self, event)
                monitor.segment_begin(self)
            error = event._exception
            if error is not None:
                event.defuse()
            env._active_process = self
            try:
                if error is not None:
                    target = generator.throw(error)
                else:
                    target = generator.send(event._value)
            except StopIteration as stop:
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    self._value = stop.value
                    self.callbacks = None
                    if monitor is not None:
                        monitor.event_triggered(self)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            finally:
                env._active_process = None
                if monitor is not None:
                    monitor.segment_end(self)
            if not isinstance(target, Event):
                # Surface inside the generator so user code sees a clear
                # error: resume it with an (unscheduled) failed event.
                event = Event(env)
                event.callbacks = None
                event._value = None
                event._exception = RuntimeError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield Event objects"
                )
                continue
            self._target = target
            if target.callbacks is not None:
                target.callbacks.append(self._resume)
                return
            event = target
