"""Schedule perturbation: controlled tie-break shuffling for the racer.

The kernel orders events by ``(time, eid)``; eids are handed out at
schedule time, so same-timestamp events run in FIFO order.  Most code
never depends on that tie-break — but code that *does* is exactly the
code one latency-constant tweak away from a trajectory change.  The
racer flips :data:`repro.sim.kernel.DEFAULT_PERTURB_SEED` so every
``Environment`` built inside the context keys its event heap by
``_mix64(eid ^ salt)`` instead of ``eid``, which permutes the order of
same-timestamp cohorts deterministically per seed.  Event *times* are
untouched: a perturbed run is a legal schedule the kernel could have
produced under a different arrival order, not a different workload.

The helpers here swap module-global kernel defaults around a builder
call and restore them in a ``finally``, the way the determinism checker
forces span tracing on for its traced run.
"""

from __future__ import annotations

import contextlib
import typing

from repro.sim import kernel as _kernel
from repro.sim.rng import _mix64

#: splitmix64 increment — the same constant the kernel salt uses, so the
#: derived-seed stream is a textbook splitmix64 sequence.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(base: int, index: int) -> int:
    """The ``index``-th perturbation seed derived from ``base``.

    A splitmix64 stream: distinct, uncorrelated 64-bit seeds that are
    reproducible from ``(base, index)`` alone — the racer report only
    needs to record the base seed.
    """
    return _mix64((base + (index + 1) * _GOLDEN) & _MASK64)


@contextlib.contextmanager
def perturbed(seed: typing.Optional[int]) -> typing.Iterator[None]:
    """Every ``Environment`` built inside runs schedule-perturbed.

    ``None`` restores plain FIFO tie-breaking (useful for nesting).
    """
    saved = _kernel.DEFAULT_PERTURB_SEED
    _kernel.DEFAULT_PERTURB_SEED = seed
    try:
        yield
    finally:
        _kernel.DEFAULT_PERTURB_SEED = saved


@contextlib.contextmanager
def monitored(
    factory: typing.Optional[
        typing.Callable[["_kernel.Environment"], "_kernel.KernelMonitor"]
    ],
) -> typing.Iterator[None]:
    """Every ``Environment`` built inside gets ``factory(env)`` attached
    as its kernel monitor — how the racer hands an
    :class:`~repro.analysis.sanitizer.InterleavingSanitizer` to scenario
    builders it cannot modify."""
    saved = _kernel.DEFAULT_MONITOR_FACTORY
    _kernel.DEFAULT_MONITOR_FACTORY = factory
    try:
        yield
    finally:
        _kernel.DEFAULT_MONITOR_FACTORY = saved
