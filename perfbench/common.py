"""Shared pieces of the benchmark: operation records, the open-loop
generator, the percentile rule, staleness, the run digest and strict JSON.

Nothing here imports ``repro``: these are the benchmark's own rules,
unit-tested in ``test_perfbench.py`` without building a testbed.
"""

from __future__ import annotations

import dataclasses
import fractions
import hashlib
import json
import math
import typing

#: Percentiles the tail rule may pick from, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
#: Samples that must lie beyond a percentile for it to be reported.
TAIL_MIN_BEYOND = 10


@dataclasses.dataclass
class Op:
    """One offered operation, as the benchmark saw it."""

    index: int
    kind: str  # "read" or "write"
    arrival_ms: float
    key: str
    latency_ms: typing.Optional[float] = None
    outcome: str = "pending"  # "ok", "wrong" or an exception class name
    value: object = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def percentile(values: typing.Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> typing.Optional[float]:
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` samples
    beyond it, among :data:`TAIL_PERCENTILES`; None if even the median
    has fewer."""
    for pct in TAIL_PERCENTILES:
        beyond = count * (100 - fractions.Fraction(str(pct))) / 100
        if beyond >= TAIL_MIN_BEYOND:
            return pct
    return None


def checked_p99(values: typing.Sequence[float]) -> float:
    """p99, refusing sample counts too small for the tail rule to allow it."""
    pct = tail_percentile(len(values))
    if pct is None or pct < 99.0:
        raise ValueError(
            f"{len(values)} samples: p99 needs {100 * TAIL_MIN_BEYOND}"
        )
    return percentile(values, 99.0)


def staleness(
    writes: typing.Sequence[typing.Tuple[str, float, object]],
    reads: typing.Sequence[typing.Tuple[str, float, object]],
) -> typing.Tuple[typing.List[float], int]:
    """Visibility lag of each acknowledged write, and the stale reads.

    ``writes`` are (key, ack time, value); ``reads`` are (key, completion
    time, value seen).  A write's staleness is the time from its ack to
    the first read of its key that completed at or after the ack and saw
    its value (or a later write's).  A read is stale if it completed
    after an ack yet saw a value older than that ack's.  Writes never observed by a
    later read are left out.
    """
    by_key: typing.Dict[str, typing.List[typing.Tuple[float, object]]] = {}
    for key, acked, value in sorted(writes, key=lambda w: w[1]):
        by_key.setdefault(key, []).append((acked, value))
    lags: typing.List[float] = []
    stale = 0
    reads_by_key: typing.Dict[str, typing.List[typing.Tuple[float, object]]] = {}
    for key, at, value in sorted(reads, key=lambda r: r[1]):
        reads_by_key.setdefault(key, []).append((at, value))
    for key, history in by_key.items():
        seen = reads_by_key.get(key, [])
        for index, (acked, value) in enumerate(history):
            newer = {v for _, v in history[index:]}
            for at, got in seen:
                if at >= acked and got in newer:
                    lags.append(at - acked)
                    break
        for at, got in seen:
            acked = [i for i, (t, _) in enumerate(history) if t <= at]
            if acked and got not in {v for _, v in history[acked[-1]:]}:
                stale += 1
    return lags, stale


def run_digest(ops: typing.Sequence[Op]) -> str:
    """Digest of every operation's (arrival, sim latency, outcome)."""
    h = hashlib.sha256()
    for op in ops:
        latency = "-" if op.latency_ms is None else repr(op.latency_ms)
        h.update(f"{op.index}|{op.arrival_ms!r}|{latency}|{op.outcome}\n".encode())
    return h.hexdigest()[:16]


def strict_dumps(obj: object) -> str:
    """JSON text that refuses NaN and infinities (``allow_nan=False``)."""
    return json.dumps(obj, allow_nan=False, sort_keys=True)


def median(values: typing.Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class OpenLoop:
    """Drives operations at fixed arrival times, each in its own
    simulator process, and tracks how many are in flight.

    ``start(op)`` must return a fresh generator performing ``op`` and
    returning its value; ``check(op, value)`` says whether the value is
    correct.  A failed operation records its exception class.
    """

    def __init__(self, env, check: typing.Callable[[Op, object], bool], watched=None):
        self.env = env
        self.check = check
        self.in_flight = 0
        #: (arrival time, in flight just before it) for every arrival
        self.backlog: typing.List[typing.Tuple[float, int]] = []
        #: role -> host whose CPU is sampled at every arrival; Poisson
        #: arrivals see time averages, so the busy share estimates the
        #: CPU's utilisation without instrumenting it
        self.watched = dict(watched or {})
        self.busy: typing.Dict[str, int] = {role: 0 for role in self.watched}
        #: simulator process -> operation index (spans use it)
        self.request_of: typing.Dict[object, int] = {}

    def drive(self, ops, start) -> typing.Generator:
        """Launch every op at its arrival time; return when all are done."""
        env = self.env
        procs = []
        for op in ops:
            if op.arrival_ms > env.now:
                yield env.timeout(op.arrival_ms - env.now)
            self.backlog.append((env.now, self.in_flight))
            for role, host in self.watched.items():
                if host.cpu.in_use:
                    self.busy[role] += 1
            proc = env.process(self._one(op, start(op)))
            self.request_of[proc] = op.index
            procs.append(proc)
        for proc in procs:
            if not proc.triggered:
                yield proc

    def reset(self) -> None:
        """Forget the warm-up's arrivals before the timed stream."""
        self.backlog.clear()
        self.request_of.clear()
        self.busy = {role: 0 for role in self.watched}

    def utilisation(self) -> typing.Dict[str, float]:
        """Share of arrivals that found each watched CPU busy."""
        arrivals = len(self.backlog)
        return {role: n / arrivals for role, n in self.busy.items()} if arrivals else {}

    def _one(self, op: Op, gen) -> typing.Generator:
        self.in_flight += 1
        try:
            value = yield from gen
        except Exception as err:  # noqa: BLE001 - every failure is counted
            op.outcome = type(err).__name__
        else:
            op.value = value
            op.outcome = "ok" if self.check(op, value) else "wrong"
        finally:
            self.in_flight -= 1
        op.latency_ms = self.env.now - op.arrival_ms


def backlog_grows(backlog: typing.Sequence[typing.Tuple[float, int]]) -> bool:
    """True if the mean in-flight count seen by arrivals in the second
    half of the arrival window exceeds the first half's by more than a
    quarter plus one operation (an unbounded queue, not noise)."""
    if len(backlog) < 4:
        return False
    start, end = backlog[0][0], backlog[-1][0]
    mid = (start + end) / 2.0
    first = [n for t, n in backlog if t < mid]
    second = [n for t, n in backlog if t >= mid]
    if not first or not second:
        return False
    a = sum(first) / len(first)
    b = sum(second) / len(second)
    return b > 1.25 * a + 1.0


def poisson_arrivals(rng, rate_per_s: float, count: int, start_ms: float = 0.0):
    """``count`` arrival times of a Poisson process at ``rate_per_s``."""
    at = start_ms
    times = []
    mean_ms = 1000.0 / rate_per_s
    for _ in range(count):
        at += rng.expovariate(1.0 / mean_ms)
        times.append(at)
    return times


def zipf_cumulative(n: int, s: float) -> typing.List[float]:
    """Normalised cumulative weights of ranks 1..n under Zipf(s)."""
    total = 0.0
    cums = []
    for rank in range(1, n + 1):
        total += rank ** -s
        cums.append(total)
    return [c / total for c in cums]
