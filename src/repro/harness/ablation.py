"""The parallel ablation engine: knob grids, fanned execution, importance.

Every benchmark in this repository asks the same shaped question: with
one mechanism turned off, how much do p50/p99/availability/meta-queries
move against the everything-on baseline?  Tables 3.1 and 3.2 of the
paper are exactly that shape too.  This module makes the shape a
first-class object, following the AblationStudy pattern from
AE-Scientist's ``stage4_ablation`` and the aumai-ablation API:

- a **knob registry** (:class:`Knob`): named axes with a baseline
  variant and ablation variants — the frozen
  :class:`~repro.resolution.PolicySet` axes and scenario parameters
  (TTLs, churn, stall probability) all fit;
- **grid expansion** (:meth:`AblationStudy.expand`): one baseline run,
  one run per non-baseline variant of each knob (the one-offs), any
  named extra combinations, and optionally the full cartesian grid;
- **parallel execution** (:meth:`AblationStudy.execute`): runs fan out
  over a ``ProcessPoolExecutor`` — the simulator is deterministic, so
  the runs are embarrassingly parallel — and merge back in expansion
  order, never completion order, so ``--jobs 1`` and ``--jobs N``
  produce byte-identical artifacts (wall-clock fields aside);
- **importance scores** (:meth:`AblationStudy.importance`): per-knob,
  per-metric deltas and ratios against the baseline run.

Results serialize to the ``BENCH_*.json`` schema v2 (see
:data:`SCHEMA_VERSION` and docs/harness.md); the CI perf-regression
gate (:mod:`repro.harness.gate`) consumes that schema.

Specs and results are plain picklable dataclasses; runners are
referenced by dotted path (``"repro.harness.grids:run_fast_path"``)
so a worker process can resolve them by import, never by closure.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import importlib
import itertools
import json
import time
import traceback
import typing
import zlib

#: Version of the BENCH_*.json envelope this module emits.
SCHEMA_VERSION = 2

#: Wall-clock (and execution-environment) fields, excluded from
#: cross-run equality and the regression gate: they measure the host
#: and the job fan-out, not the simulation.
WALL_CLOCK_FIELDS = frozenset(
    {"wall_s", "wall_clock_s", "events_per_sec", "generated_at", "jobs", "cpus"}
)

#: The spec key of the all-baseline run.
BASELINE_KEY = "baseline"


def now_wall() -> float:
    """Host wall-clock seconds.

    The harness is the one place in ``src/repro`` allowed to read the
    host clock: wall time *is* the measured quantity (how long a grid
    takes to execute), never an input to any simulation.  Every other
    module takes time from ``env.now``.  Keeping the read behind this
    helper keeps the hnslint SIM001 suppression to a single line.
    """
    return time.perf_counter()


@dataclasses.dataclass(frozen=True)
class Knob:
    """One ablation axis: a name, its baseline variant, and ablations.

    Variants are plain strings; the grid's runner maps them to concrete
    objects (a :class:`~repro.resolution.FastPathPolicy`, a TTL, a
    churn rate).  Keeping the registry stringly keeps every
    spec picklable and every artifact JSON-stable.
    """

    name: str
    baseline: str
    variants: typing.Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.baseline in self.variants:
            raise ValueError(
                f"knob {self.name!r}: baseline {self.baseline!r} must not "
                "repeat in variants"
            )
        if len(set(self.variants)) != len(self.variants):
            raise ValueError(f"knob {self.name!r}: duplicate variants")

    @property
    def all_variants(self) -> typing.Tuple[str, ...]:
        """Baseline first, then the ablation variants, in order."""
        return (self.baseline,) + self.variants


@dataclasses.dataclass(frozen=True)
class GridDef:
    """A named ablation grid: knobs, a runner, and base parameters.

    ``runner`` is a dotted path ``"package.module:function"``; the
    function signature is ``(knobs, seed, smoke) -> RunOutput`` where
    ``knobs`` maps every knob name to its variant string for this run.
    ``extras`` are named full assignments beyond the one-off pattern
    (e.g. an all-hit reference config that flips two knobs at once).
    """

    name: str
    knobs: typing.Tuple[Knob, ...]
    runner: str
    seed: int = 0
    extras: typing.Tuple[
        typing.Tuple[str, typing.Tuple[typing.Tuple[str, str], ...]], ...
    ] = ()

    def __post_init__(self) -> None:
        names = [knob.name for knob in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"grid {self.name!r}: duplicate knob names")

    def knob(self, name: str) -> Knob:
        """Look up one knob by name."""
        for knob in self.knobs:
            if knob.name == name:
                return knob
        raise KeyError(name)


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One fully-specified run: grid, knob assignment, seed.

    ``key`` is the stable identity used for ordering, seeding, and
    baseline comparison — never the pool's completion order.
    """

    grid: str
    key: str
    knobs: typing.Tuple[typing.Tuple[str, str], ...]
    runner: str
    seed: int
    smoke: bool

    def knob_dict(self) -> typing.Dict[str, str]:
        """The knob assignment as a plain dict."""
        return dict(self.knobs)


@dataclasses.dataclass
class RunOutput:
    """What a grid runner returns: metrics plus determinism evidence.

    A metric is ``None`` when it has no samples (an empty percentile).
    """

    metrics: typing.Mapping[str, typing.Optional[float]]
    digest: typing.Optional[str] = None
    sim_ms: float = 0.0


@dataclasses.dataclass
class RunResult:
    """Outcome of executing one :class:`RunSpec`.

    ``status`` is ``"ok"`` or ``"error"``; a raising scenario becomes a
    structured error result (with the worker's traceback in ``error``)
    instead of poisoning the pool.
    """

    spec: RunSpec
    status: str
    metrics: typing.Dict[str, typing.Optional[float]]
    digest: typing.Optional[str]
    sim_ms: float
    wall_s: float
    error: typing.Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the run completed without raising."""
        return self.status == "ok"


def derive_seed(base_seed: int, grid: str, key: str) -> int:
    """A per-run seed, stable across job counts and sessions.

    Derived from the spec identity with crc32 (never ``hash()``, which
    is salted per process) so ``--jobs 1`` and ``--jobs N`` hand every
    run the identical seed.
    """
    tag = zlib.crc32(f"{grid}:{key}".encode("utf-8"))
    return (base_seed * 1_000_003 + tag) % 2_147_483_647


def resolve_runner(path: str) -> typing.Callable[..., RunOutput]:
    """Import ``"module:function"`` and return the function."""
    module_name, _, func_name = path.partition(":")
    if not func_name:
        raise ValueError(f"runner path {path!r} is not 'module:function'")
    module = importlib.import_module(module_name)
    return typing.cast(
        typing.Callable[..., RunOutput], getattr(module, func_name)
    )


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec to completion; never raises.

    This is the function worker processes execute: module-level so it
    pickles by reference, and exception-proof so a crashing scenario
    reports a structured failure instead of hanging the pool.
    """
    start = now_wall()
    try:
        runner = resolve_runner(spec.runner)
        output = runner(spec.knob_dict(), spec.seed, spec.smoke)
        return RunResult(
            spec=spec,
            status="ok",
            metrics=dict(output.metrics),
            digest=output.digest,
            sim_ms=output.sim_ms,
            wall_s=now_wall() - start,
        )
    except BaseException:
        return RunResult(
            spec=spec,
            status="error",
            metrics={},
            digest=None,
            sim_ms=0.0,
            wall_s=now_wall() - start,
            error=traceback.format_exc(),
        )


class AblationStudy:
    """Expand a :class:`GridDef` into runs, execute them, score knobs."""

    def __init__(self, grid: GridDef, smoke: bool = False, seed: typing.Optional[int] = None):
        self.grid = grid
        self.smoke = smoke
        self.base_seed = grid.seed if seed is None else seed

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def _spec(
        self, key: str, assignment: typing.Mapping[str, str]
    ) -> RunSpec:
        knobs = tuple(
            (knob.name, assignment[knob.name]) for knob in self.grid.knobs
        )
        return RunSpec(
            grid=self.grid.name,
            key=key,
            knobs=knobs,
            runner=self.grid.runner,
            seed=derive_seed(self.base_seed, self.grid.name, key),
            smoke=self.smoke,
        )

    def expand(self, full_grid: bool = False) -> typing.List[RunSpec]:
        """Baseline + one-offs (+ extras, + optionally the full grid).

        Order is deterministic: baseline first, then each knob's
        ablation variants in registry order, then the named extras,
        then (if asked) the cartesian product in lexicographic variant
        order.  Keys never repeat: a cartesian cell that duplicates an
        earlier spec's assignment is skipped.
        """
        baseline = {knob.name: knob.baseline for knob in self.grid.knobs}
        specs = [self._spec(BASELINE_KEY, baseline)]
        seen = {tuple(sorted(baseline.items()))}

        def add(key: str, assignment: typing.Mapping[str, str]) -> None:
            fingerprint = tuple(sorted(assignment.items()))
            if fingerprint in seen:
                return
            seen.add(fingerprint)
            specs.append(self._spec(key, assignment))

        for knob in self.grid.knobs:
            for variant in knob.variants:
                assignment = dict(baseline)
                assignment[knob.name] = variant
                add(f"{knob.name}={variant}", assignment)
        for extra_key, pairs in self.grid.extras:
            assignment = dict(baseline)
            assignment.update(dict(pairs))
            add(extra_key, assignment)
        if full_grid:
            axes = [knob.all_variants for knob in self.grid.knobs]
            for combo in itertools.product(*axes):
                assignment = {
                    knob.name: variant
                    for knob, variant in zip(self.grid.knobs, combo)
                }
                key = ",".join(
                    f"{knob.name}={variant}"
                    for knob, variant in zip(self.grid.knobs, combo)
                )
                add(key, assignment)
        return specs

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        specs: typing.Optional[typing.Sequence[RunSpec]] = None,
        jobs: int = 1,
    ) -> typing.List[RunResult]:
        """Run every spec; return results in spec order, not completion.

        ``jobs <= 1`` runs inline (no pool, no pickling).  With a pool,
        a worker that dies outright (not merely raises — that is caught
        in :func:`execute_spec`) surfaces as an error result carrying
        the executor's exception, and the remaining futures still
        drain.
        """
        if specs is None:
            specs = self.expand()
        if jobs <= 1:
            return [execute_spec(spec) for spec in specs]
        by_key: typing.Dict[str, RunResult] = {}
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(execute_spec, spec): spec for spec in specs}
            for future in concurrent.futures.as_completed(futures):
                spec = futures[future]
                try:
                    by_key[spec.key] = future.result()
                except BaseException as exc:
                    by_key[spec.key] = RunResult(
                        spec=spec,
                        status="error",
                        metrics={},
                        digest=None,
                        sim_ms=0.0,
                        wall_s=0.0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
        return [by_key[spec.key] for spec in specs]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def importance(
        self, results: typing.Sequence[RunResult]
    ) -> typing.Dict[str, typing.Dict[str, typing.Dict[str, float]]]:
        """Per-knob importance: metric deltas of each one-off vs baseline.

        Returns ``{one_off_key: {metric: {baseline, value, delta,
        ratio}}}``; ``ratio`` is ``value / baseline`` (0 treated as
        absent).  Only one-off runs (keys of the form ``knob=variant``
        produced by :meth:`expand`) participate; extras and cartesian
        cells are comparison rows, not component scores.
        """
        by_key = {result.spec.key: result for result in results}
        base = by_key.get(BASELINE_KEY)
        if base is None or not base.ok:
            return {}
        one_off_keys = {
            f"{knob.name}={variant}"
            for knob in self.grid.knobs
            for variant in knob.variants
        }
        scores: typing.Dict[str, typing.Dict[str, typing.Dict[str, float]]] = {}
        for key, result in by_key.items():
            if key not in one_off_keys or not result.ok:
                continue
            per_metric: typing.Dict[str, typing.Dict[str, float]] = {}
            for metric, value in sorted(result.metrics.items()):
                base_value = base.metrics.get(metric)
                if value is None or base_value is None:
                    continue
                baseline_value = float(base_value)
                delta = float(value) - baseline_value
                entry = {
                    "baseline": baseline_value,
                    "value": float(value),
                    "delta": delta,
                }
                if baseline_value:
                    entry["ratio"] = float(value) / baseline_value
                per_metric[metric] = entry
            scores[key] = per_metric
        return scores


# ----------------------------------------------------------------------
# Serialization: BENCH_*.json schema v2
# ----------------------------------------------------------------------
def study_payload(
    study: AblationStudy,
    results: typing.Sequence[RunResult],
    jobs: int,
    wall_s: float,
    cpus: typing.Optional[int] = None,
) -> typing.Dict[str, object]:
    """The schema-v2 envelope for one executed study.

    Everything except the :data:`WALL_CLOCK_FIELDS` is a deterministic
    function of (grid, seed, smoke): the jobs-equality test and the CI
    gate both rely on that.
    """
    runs: typing.List[typing.Dict[str, object]] = []
    for result in results:
        row: typing.Dict[str, object] = {
            "key": result.spec.key,
            "knobs": dict(result.spec.knobs),
            "seed": result.spec.seed,
            "status": result.status,
            "digest": result.digest,
            "sim_ms": result.sim_ms,
            "wall_s": result.wall_s,
            "metrics": dict(sorted(result.metrics.items())),
        }
        if result.error is not None:
            row["error"] = result.error.splitlines()[-1]
        runs.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": f"ablation_{study.grid.name}",
        "grid": study.grid.name,
        "smoke": study.smoke,
        "jobs": jobs,
        "cpus": cpus,
        "wall_s": wall_s,
        "vs_baseline": None,
        "runs": runs,
        "importance": study.importance(results),
    }


def strip_wall_clock(value: object) -> object:
    """A deep copy with every wall-clock field removed.

    This is the equality (and gate-comparison) view of an artifact:
    identical across ``--jobs`` settings and host speeds.
    """
    if isinstance(value, dict):
        return {
            key: strip_wall_clock(item)
            for key, item in value.items()
            if key not in WALL_CLOCK_FIELDS
        }
    if isinstance(value, list):
        return [strip_wall_clock(item) for item in value]
    return value


def dump_payload(payload: typing.Mapping[str, object]) -> str:
    """Canonical JSON serialization for BENCH artifacts."""
    return (
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


def write_payload(path: str, payload: typing.Mapping[str, object]) -> None:
    """Write one artifact to ``path`` in canonical form."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_payload(payload))
