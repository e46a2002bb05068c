"""The simulation environment: virtual clock plus event queue.

:class:`Environment` is deliberately small.  Everything else in the
repository — network messages, RPC calls, disk reads, cache probes — is
expressed as processes and events scheduled here.  Time is in simulated
milliseconds, matching the units of every number in the paper.

The event queue is one ``heapq`` list of ``(time, key, event)`` entries.
The key is the event id, handed out in scheduling order, so events run
in ``(time, eid)`` order and simultaneous events fire FIFO.  A run
without a :class:`KernelMonitor` pops and dispatches in one plain loop;
a monitored run goes through :meth:`Environment.step`.  Both loops pop
the same entries in the same order, so a passive monitor never changes
a digest — the determinism checker (:mod:`repro.analysis.determinism`)
verifies exactly that on every registered scenario.
"""

from __future__ import annotations

import typing
from heapq import heappop, heappush

from repro.obs.span import Observability
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator
from repro.sim.rng import RngRegistry, _mix64
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer

#: Schedule-perturbation seed used when ``Environment(perturb_seed=None)``.
#: ``None`` (always, outside the racer) means no perturbation: the FIFO
#: ``(time, eid)`` tie-break, digest-identical behaviour.  The hnsracer
#: confirmation mode (:mod:`repro.analysis.perturb`) flips this module
#: global around a scenario builder, so every environment the builder
#: constructs drains same-timestamp cohorts in a seeded shuffled order.
DEFAULT_PERTURB_SEED: typing.Optional[int] = None

#: Optional factory consulted at :class:`Environment` construction: when
#: set, every new environment gets ``monitor = factory(env)`` before any
#: event is scheduled.  This is how the racer attaches an
#: :class:`~repro.analysis.sanitizer.InterleavingSanitizer` to the
#: environments a scenario builder creates internally, without the
#: builder knowing.  Monitors installed this way must be passive, like
#: any :class:`KernelMonitor`.
DEFAULT_MONITOR_FACTORY: typing.Optional[
    typing.Callable[["Environment"], "KernelMonitor"]
] = None

#: One queue entry: (absolute time ms, tie-break key, event).
Entry = typing.Tuple[float, int, Event]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class KernelMonitor:
    """Observer hooks the kernel calls when one is attached.

    The interleaving sanitizer (:mod:`repro.analysis.sanitizer`)
    subclasses this to reconstruct happens-before ordering between
    process segments.  Every hook is a no-op here, and no hook is
    invoked at all unless :attr:`Environment.monitor` is set — the
    instrumentation is off by default, and the ``monitor is None``
    check is hoisted out of the per-event path: ``run()`` selects a
    monitored or unmonitored inner loop once, up front.

    Monitors must be *passive*: they may record what they see but must
    never schedule events, trigger events, or otherwise perturb the run,
    or they would break the determinism they exist to check.
    """

    def segment_begin(self, process: Process) -> None:
        """``process`` is resuming: a new segment (yield-to-yield) starts."""

    def segment_end(self, process: Process) -> None:
        """``process`` suspended (or finished): its current segment ends."""

    def event_triggered(self, event: Event) -> None:
        """``succeed``/``fail`` was called on ``event``, or it settled in
        place with no event scheduled (an idle resource grant, or a
        process exit nobody waits on)."""

    def note_resume(self, process: Process, event: Event) -> None:
        """``event`` is about to resume ``process``."""

    def event_processing(self, event: Event) -> None:
        """The kernel is about to run ``event``'s callbacks."""

    def event_processed(self, event: Event) -> None:
        """The kernel finished running ``event``'s callbacks."""


class Environment:
    """Owns the virtual clock, the event queue, and run control.

    Parameters
    ----------
    seed:
        Master seed for the per-purpose random streams handed out by
        :attr:`rng`.  Two environments with the same seed replay the
        same simulation exactly.
    perturb_seed:
        When set (or when :data:`DEFAULT_PERTURB_SEED` is), the queue's
        tie-break key becomes ``_mix64(eid ^ salt)`` instead of ``eid``:
        event times are untouched, but every same-timestamp cohort runs
        in a seeded shuffled order (hnsracer confirmation runs only).
    """

    def __init__(
        self,
        seed: int = 0,
        perturb_seed: typing.Optional[int] = None,
    ):
        self._now: float = 0.0
        #: The event queue: a heap of (time, key, event) entries.
        self._queue: typing.List[Entry] = []
        #: Next event id; assigned in scheduling order so simultaneous
        #: events fire FIFO.  Doubles as the events-scheduled count.
        self._eid = 0
        if perturb_seed is None:
            perturb_seed = DEFAULT_PERTURB_SEED
        #: Tie-break salt; ``None`` keeps the FIFO eid key.
        self._salt: typing.Optional[int] = (
            None
            if perturb_seed is None
            else _mix64(perturb_seed ^ 0x9E3779B97F4A7C15)
        )
        self._active_process: typing.Optional[Process] = None
        self.rng = RngRegistry(seed)
        self.trace = Tracer(self)
        self.stats = StatsRegistry(self)
        #: Span-based causal tracing (:mod:`repro.obs`); off by default
        #: and digest-neutral when enabled.
        self.obs = Observability(self)
        #: Optional :class:`KernelMonitor`; None (the default) disables
        #: all instrumentation.
        self.monitor: typing.Optional[KernelMonitor] = None
        if DEFAULT_MONITOR_FACTORY is not None:
            self.monitor = DEFAULT_MONITOR_FACTORY(self)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def active_process(self) -> typing.Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event triggering ``delay`` ms from now, carrying ``value``."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: typing.Optional[str] = None
    ) -> Process:
        """Start ``generator`` as a process at the current time."""
        return Process(self, generator, name=name)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Event triggering when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event triggering when all of ``events`` have."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms into the past")
        eid = self._eid
        self._eid = eid + 1
        if self._salt is not None:
            eid = _mix64(eid ^ self._salt)
        heappush(self._queue, (self._now + delay, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _, event = heappop(self._queue)
        monitor = self.monitor
        if monitor is not None:
            monitor.event_processing(event)
            try:
                event._process()
            finally:
                monitor.event_processed(event)
        else:
            event._process()

    def run(
        self,
        until: typing.Union[None, float, Event] = None,
    ) -> object:
        """Run the simulation.

        - ``until=None``: run until the event queue drains.
        - ``until=<float>``: run until the clock reaches that time.
        - ``until=<Event>``: run until that event has been processed and
          return its value (raising its exception if it failed).
        """
        if isinstance(until, Event):
            target = until
            # Defuse so the kernel does not double-report a failure we are
            # about to raise from .value below.
            target._add_callback(lambda e: e.defuse() if not e.ok else None)
            if not target.processed:
                self._loop(target, _INF)
            if not target.processed:
                raise SimulationError(
                    "event queue drained before the awaited event "
                    "triggered (deadlock?)"
                )
            return target.value
        if until is None:
            self._loop(None, _INF)
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        self._loop(None, horizon)
        self._now = horizon
        return None

    def _loop(self, target: typing.Optional[Event], horizon: float) -> None:
        """Run events due by ``horizon``; stop early once ``target`` ran.

        Without a monitor this is the kernel's one hot loop, with
        :meth:`Event._process` inlined; with one, every event goes
        through :meth:`step` so the monitor sees it.
        """
        queue = self._queue
        if self.monitor is not None:
            while queue and queue[0][0] <= horizon:
                self.step()
                if target is not None and target.callbacks is None:
                    return
            return
        while queue and queue[0][0] <= horizon:
            self._now, _, event = heappop(queue)
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for callback in callbacks:
                    callback(event)
                if event is target:
                    return
            elif event._exception is not None and not event._defused:
                # Nobody was listening; surface the failure (the
                # inlined equivalent of Event._process's re-raise).
                raise event._exception

    # ------------------------------------------------------------------
    # Kernel self-instrumentation
    # ------------------------------------------------------------------
    def kernel_counters(self) -> typing.Dict[str, int]:
        """The kernel's own performance counters, as plain data.

        Deliberately *not* recorded in :attr:`stats` during the run, so
        they never enter a scenario digest.  Call
        :meth:`publish_kernel_stats` (once, after a run) when a
        benchmark wants them in the registry.
        """
        return {
            "sim.kernel.events_scheduled": self._eid,
            "sim.kernel.events_processed": self._eid - len(self._queue),
        }

    def publish_kernel_stats(self) -> None:
        """Copy :meth:`kernel_counters` into the stats registry.

        Opt-in and additive: call it once at the end of a run (the
        benchmark harness does) — never from inside a registered
        scenario, where the counts would enter its digest.
        """
        stats = self.stats
        for name, value in self.kernel_counters().items():
            stats.counter(name).increment(value)
