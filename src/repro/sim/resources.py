"""Contended devices: generic resources, CPUs, and disks.

The Clearinghouse's slowness in the paper comes from authenticating every
access and reading virtually all data from disk; BIND is fast because it
keeps everything in primary memory.  We model that by charging simulated
service time on per-host CPU and Disk resources, so concurrent load
queues realistically.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


class Request(Event):
    """Claim on a :class:`Resource`; triggers when granted.

    A claim on an idle resource is granted on the spot and is already
    processed when the constructor returns; only a queued claim waits
    for a grant event.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._admit(self)

    def release(self) -> None:
        self.resource._release(self)


class Resource:
    """A FIFO resource with fixed capacity.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            req.release()
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: typing.Set[Request] = set()
        self._waiting: typing.Deque[Request] = collections.deque()

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        return Request(self)

    def _admit(self, req: Request) -> None:
        if len(self._users) < self.capacity:
            # Idle: grant on the spot.  The request is born processed and
            # no grant event is scheduled, so the requester goes on in
            # the same step (a grant event would run no other code).
            self._users.add(req)
            req._value = None
            req.callbacks = None
            env = self.env
            if env.monitor is not None:
                env.monitor.event_triggered(req)
        else:
            self._waiting.append(req)

    def _release(self, req: Request) -> None:
        if req not in self._users:
            raise RuntimeError("release() of a request that does not hold the resource")
        self._users.remove(req)
        if self._waiting:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed(None)

    def use(self, service_ms: float) -> typing.Generator[Event, object, None]:
        """Convenience process fragment: acquire, hold ``service_ms``, release."""
        if service_ms < 0:
            raise ValueError(f"negative service time: {service_ms}")
        req = self.request()
        if req.callbacks is not None:
            yield req  # queued behind another user: wait for the grant
        try:
            if service_ms > 0:
                yield Timeout(self.env, service_ms)
        finally:
            self._release(req)


class CPU(Resource):
    """A host processor charging compute time in ms.

    ``speed_factor`` scales charged costs, letting scenarios model the
    mixed hardware of the HCS testbed (a Tektronix workstation is slower
    than a MicroVAX-II).
    """

    def __init__(self, env: "Environment", name: str = "", speed_factor: float = 1.0):
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {speed_factor}")
        super().__init__(env, capacity=1, name=name)
        self.speed_factor = speed_factor

    def compute(self, cost_ms: float) -> typing.Generator[Event, object, None]:
        """Charge ``cost_ms`` of compute, scaled by the host's speed."""
        yield from self.use(cost_ms / self.speed_factor)


class Disk(Resource):
    """A disk with per-access latency plus per-byte transfer time."""

    def __init__(
        self,
        env: "Environment",
        name: str = "",
        access_ms: float = 30.0,
        per_kb_ms: float = 1.0,
    ):
        if access_ms < 0 or per_kb_ms < 0:
            raise ValueError("disk parameters must be non-negative")
        super().__init__(env, capacity=1, name=name)
        self.access_ms = access_ms
        self.per_kb_ms = per_kb_ms

    def read(self, size_bytes: int = 0) -> typing.Generator[Event, object, None]:
        """One disk access transferring ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError(f"negative read size: {size_bytes}")
        yield from self.use(self.access_ms + self.per_kb_ms * size_bytes / 1024.0)

    write = read  # Same cost model either direction.
