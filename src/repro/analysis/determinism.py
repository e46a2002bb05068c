"""The determinism checker: same seed, same trajectory — verified.

Static rules (:mod:`repro.analysis.rules_sim`) catch wall-clock and
ambient-randomness *patterns*; this module checks the property itself.
Every scenario registered in :mod:`repro.workloads.scenarios` is run
twice with the same seed — plus a third time with span tracing
(:mod:`repro.obs`) forced on, and a fourth time with a passive
:class:`~repro.sim.kernel.KernelMonitor` attached (so every event goes
through ``Environment.step()`` instead of the kernel's unmonitored
loop), neither of which may move the trajectory — and each run is
reduced to a digest over

- the canonical trace serialization (every traced occurrence, in order,
  with sorted data keys),
- every stats counter value, and
- the final simulated clock.

Any mismatch means something outside the seeded sandbox leaked into the
run — a host clock, the process RNG, dict-iteration order of a set, an
id()-keyed container — and the digest diff pinpoints the first record
where the trajectories diverge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

from repro.analysis.perturb import monitored
from repro.obs.span import Observability
from repro.sim.kernel import Environment, KernelMonitor


@dataclasses.dataclass(frozen=True)
class ScenarioCheck:
    """Result of double-running one scenario.

    ``digest_obs`` comes from a third run with span tracing forced on
    (:attr:`~repro.obs.span.Observability.default_enabled`): tracing a
    run must not change its trajectory.  ``digest_monitored`` comes
    from a fourth run with a passive :class:`KernelMonitor` attached:
    the monitored ``step()`` loop and the unmonitored hot loop pop the
    same heap, so switching between them must be digest-invisible too.
    All four digests must match.
    """

    scenario: str
    seed: int
    ok: bool
    digest_a: str
    digest_b: str
    events_a: int
    events_b: int
    first_divergence: str = ""
    digest_obs: str = ""
    digest_monitored: str = ""

    def to_json(self) -> typing.Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
            "digest_obs": self.digest_obs,
            "digest_monitored": self.digest_monitored,
            "trace_records_a": self.events_a,
            "trace_records_b": self.events_b,
            "first_divergence": self.first_divergence,
        }


def run_lines(env: Environment) -> typing.List[str]:
    """The canonical serialization of a finished run.

    Trace records first, then counters (sorted by name), then the final
    clock — every line participates in the digest.
    """
    lines = list(env.trace.canonical_lines())
    for name, value in sorted(env.stats.counters().items()):
        lines.append(f"counter|{name}|{value}")
    lines.append(f"clock|{env.now!r}")
    return lines


def run_digest(env: Environment) -> str:
    """sha256 over the canonical run lines of a finished environment."""
    hasher = hashlib.sha256()
    for line in run_lines(env):
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def check_scenario(
    name: str,
    builder: typing.Callable[[int], Environment],
    seed: int = 0,
) -> ScenarioCheck:
    """Run ``builder`` four times with ``seed`` and compare.

    Runs A and B are plain replays; run C executes with span tracing
    forced on (:class:`~repro.obs.span.Observability` constructs
    enabled), proving that observability never perturbs a run; run D
    executes with a no-op :class:`KernelMonitor` attached to every
    environment the builder constructs (via
    :func:`~repro.analysis.perturb.monitored`), proving the monitored
    ``step()`` loop and the unmonitored hot loop run events in the
    identical order.
    """
    env_a = builder(seed)
    lines_a = run_lines(env_a)
    env_b = builder(seed)
    lines_b = run_lines(env_b)
    saved = Observability.default_enabled
    Observability.default_enabled = True
    try:
        env_c = builder(seed)
        lines_c = run_lines(env_c)
    finally:
        Observability.default_enabled = saved
    with monitored(lambda _env: KernelMonitor()):
        env_d = builder(seed)
    lines_d = run_lines(env_d)
    digest_a = _digest(lines_a)
    digest_b = _digest(lines_b)
    digest_c = _digest(lines_c)
    digest_d = _digest(lines_d)
    divergence = ""
    if digest_a != digest_b:
        divergence = _first_divergence(lines_a, lines_b)
    elif digest_a != digest_c:
        divergence = "traced run: " + _first_divergence(lines_a, lines_c)
    elif digest_a != digest_d:
        divergence = "monitored run: " + _first_divergence(lines_a, lines_d)
    return ScenarioCheck(
        scenario=name,
        seed=seed,
        ok=digest_a == digest_b == digest_c == digest_d,
        digest_a=digest_a,
        digest_b=digest_b,
        events_a=len(env_a.trace.records),
        events_b=len(env_b.trace.records),
        first_divergence=divergence,
        digest_obs=digest_c,
        digest_monitored=digest_d,
    )


def check_all(
    names: typing.Optional[typing.Sequence[str]] = None,
    seed: int = 0,
) -> typing.List[ScenarioCheck]:
    """Determinism-check the registered scenarios (all by default)."""
    from repro.workloads.scenarios import SCENARIOS, iter_scenarios

    checks = []
    if names is None:
        pairs: typing.Iterable = iter_scenarios()
    else:
        unknown = [n for n in names if n not in SCENARIOS]
        if unknown:
            known = ", ".join(sorted(SCENARIOS))
            raise KeyError(
                f"unknown scenario(s) {', '.join(unknown)}; known: {known}"
            )
        pairs = [(n, SCENARIOS[n]) for n in names]
    for name, builder in pairs:
        checks.append(check_scenario(name, builder, seed=seed))
    return checks


def _digest(lines: typing.Sequence[str]) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def _first_divergence(
    lines_a: typing.Sequence[str], lines_b: typing.Sequence[str]
) -> str:
    for index, (a, b) in enumerate(zip(lines_a, lines_b)):
        if a != b:
            return f"line {index}: {a!r} != {b!r}"
    if len(lines_a) != len(lines_b):
        shorter = min(len(lines_a), len(lines_b))
        longer = lines_a if len(lines_a) > len(lines_b) else lines_b
        return (
            f"line {shorter}: one run ends, the other continues with "
            f"{longer[shorter]!r}"
        )
    return "digests differ but serializations match (hash collision?)"
