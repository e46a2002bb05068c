"""The registered ablation grids: knobs, runners, and the grid registry.

Each grid pairs a knob registry (the frozen
:class:`~repro.resolution.PolicySet` axes plus scenario parameters like
meta TTL, wire drop, and primary health) with a module-level runner
function a worker process can resolve by dotted path.  The runners are
the workload bodies the hand-rolled benchmarks used to inline —
``benchmarks/bench_fast_path.py``, ``bench_replica_scheduling.py``, and
``bench_update_path.py`` are now thin grid definitions over this
module.

Every runner is deterministic given ``(knobs, seed, smoke)``: it
builds a fresh :class:`~repro.sim.Environment`, drives the scenario in
simulated time, and reports metrics plus the run digest the CI gate
pins.  No runner reads the host clock — wall time is measured by the
engine around the runner, not inside it.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.determinism import run_digest
from repro.bind import BindServer as _BindServer
from repro.core import HNSName
from repro.core.admin import HnsAdministrator
from repro.harness.ablation import GridDef, Knob, RunOutput
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    DiscoveryPolicy,
    FastPathPolicy,
    PolicySet,
    ReplicaPolicy,
    UpdatePolicy,
)
from repro.sim import Environment

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import ProcessGenerator

#: The name every fast-path workload resolves (the paper's testbed host).
FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def percentile(
    samples: typing.Sequence[float], p: float
) -> typing.Optional[float]:
    """Linear-interpolated percentile of a sample list.

    ``None`` when there are no samples, so an artifact records ``null``
    (strict JSON) rather than a made-up number or ``NaN``.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    k = (len(ordered) - 1) * (p / 100.0)
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def _run(env: Environment, gen: "ProcessGenerator") -> object:
    return env.run(until=env.process(gen))


def idle(env: Environment, ms: float) -> None:
    """Advance simulated time by ``ms`` alongside whatever is scheduled."""

    def sleeper() -> "ProcessGenerator":
        yield env.timeout(ms)

    _run(env, sleeper())


# ----------------------------------------------------------------------
# Variant tables: knob variant name -> concrete object
# ----------------------------------------------------------------------

#: fast_path knob: every FindNSM mechanism off by itself, plus endpoints.
FAST_PATH_VARIANTS: typing.Dict[str, FastPathPolicy] = {
    "full": FastPathPolicy(),
    "no_coalescing": FastPathPolicy(coalesce=False),
    "no_refresh": FastPathPolicy(refresh_ahead_fraction=0.0),
    "no_batching": FastPathPolicy(batch_meta_lookups=False),
    "disabled": FastPathPolicy.disabled(),
}

#: meta_ttl knob: the ablation TTL vs a TTL long enough that every
#: post-warm lookup is a cache hit (u32 wire field caps "forever").
META_TTL_VARIANTS: typing.Dict[str, typing.Callable[[bool], float]] = {
    "short": lambda smoke: 7_000.0 if smoke else 30_000.0,
    "all_hit": lambda smoke: 3_000_000_000.0,
}

#: drop knob: wire loss on the testbed segment.
DROP_VARIANTS: typing.Dict[str, float] = {"none": 0.0, "p10": 0.10}

#: replica knob: adaptive hedged scheduling vs the prototype's ordered
#: failover.
REPLICA_VARIANTS: typing.Dict[str, typing.Optional[ReplicaPolicy]] = {
    "hedged": ReplicaPolicy(),
    "ordered": ReplicaPolicy.disabled(),
}

#: primary knob: whether the (always-first) replica intermittently
#: stalls past the transport timeout.
PRIMARY_VARIANTS: typing.Dict[str, float] = {"degraded": 0.15, "healthy": 0.0}

#: invalidation knob: how caches learn about a rebinding.
INVALIDATION_VARIANTS: typing.Dict[str, UpdatePolicy] = {
    "notify": UpdatePolicy(invalidation="notify"),
    "lease": UpdatePolicy(invalidation="lease", lease_ms=5_000.0),
    "ttl": UpdatePolicy(invalidation="ttl"),
}

#: churn knob: (mean crash interval ms, outage length ms) per event.
CHURN_VARIANTS: typing.Dict[str, typing.Tuple[float, float]] = {
    "low": (6_000.0, 4_000.0),
    "high": (2_500.0, 1_500.0),
}

#: beacon_period knob: how often each host announces its presence.
BEACON_PERIOD_VARIANTS: typing.Dict[str, float] = {
    "fast": 500.0,
    "slow": 2_000.0,
}

#: watchdog knob: liveness deadline as a multiple of the beacon period;
#: ``ttl_only`` turns the watchdog off so eviction waits for entry TTL.
WATCHDOG_VARIANTS: typing.Dict[str, float] = {"x3": 3.0, "ttl_only": 0.0}


# ----------------------------------------------------------------------
# fast_path grid
# ----------------------------------------------------------------------
def run_fast_path(
    knobs: typing.Mapping[str, str], seed: int, smoke: bool
) -> RunOutput:
    """Zipf closed-loop FindNSM workload under one knob assignment.

    Ported from ``bench_fast_path.test_zipf_latency_distribution``:
    concurrent clients resolve Zipf-distributed contexts against a
    short meta TTL; refresh-ahead keeps the tail at cache-hit cost,
    batching cuts meta queries per find, and the drop knob degrades
    the wire so availability becomes a real metric.
    """
    from repro.workloads import build_testbed
    from repro.workloads.scenarios import BIND_NS

    clients = 8 if smoke else 16
    contexts = 16 if smoke else 32
    duration_ms = 20_000.0 if smoke else 90_000.0
    think_mean_ms = 150.0
    zipf_s = 0.9
    fast_path = FAST_PATH_VARIANTS[knobs["fast_path"]]
    ttl_ms = META_TTL_VARIANTS[knobs["meta_ttl"]](smoke)
    drop = DROP_VARIANTS[knobs["drop"]]

    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=ttl_ms)
    testbed = build_testbed(seed=seed, calibration=calibration)
    env = testbed.env
    hns = testbed.make_hns(
        testbed.client,
        policies=PolicySet(
            resolution=DEFAULT_RESOLUTION_POLICY, fast_path=fast_path
        ),
    )
    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

    def register_contexts() -> "ProcessGenerator":
        for i in range(contexts):
            yield from admin.register_context(f"zipf-ctx-{i}", BIND_NS)

    _run(env, register_contexts())
    names = [
        HNSName(f"zipf-ctx-{i}", "fiji.cs.washington.edu")
        for i in range(contexts)
    ]
    weights = [1.0 / (i + 1) ** zipf_s for i in range(contexts)]

    def warm() -> "ProcessGenerator":
        for name in names:
            yield from hns.find_nsm(name, "HRPCBinding")

    _run(env, warm())
    # Degrade the wire only after warm-up so every knob assignment
    # measures the same steady state.
    testbed.internet.segments[0].drop_probability = drop
    start_queries = env.stats.counter("bind.meta-bind.queries").value
    rng = env.rng.stream("harness.zipf")
    latencies: typing.List[float] = []
    failures = [0]
    deadline = env.now + duration_ms

    def client_loop() -> "ProcessGenerator":
        while env.now < deadline:
            name = rng.choices(names, weights)[0]
            t0 = env.now
            try:
                yield from hns.find_nsm(name, "HRPCBinding")
            except Exception:
                # Exhausted retries on a degraded wire: an availability
                # miss, not a harness error.
                failures[0] += 1
            else:
                latencies.append(env.now - t0)
            yield env.timeout(rng.expovariate(1.0 / think_mean_ms))

    for _ in range(clients):
        env.process(client_loop())
    idle(env, duration_ms + 30_000.0)
    queries = env.stats.counter("bind.meta-bind.queries").value - start_queries
    attempts = len(latencies) + failures[0]
    env.stats.counter("harness.fast_path.finds").increment(len(latencies))
    metrics = {
        "finds": float(len(latencies)),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "meta_queries_per_find": queries / max(1, len(latencies)),
        "availability": len(latencies) / max(1, attempts),
    }
    return RunOutput(metrics=metrics, digest=run_digest(env), sim_ms=env.now)


FAST_PATH_GRID = GridDef(
    name="fast_path",
    knobs=(
        Knob(
            "fast_path",
            baseline="full",
            variants=("no_coalescing", "no_refresh", "no_batching", "disabled"),
        ),
        Knob("meta_ttl", baseline="short", variants=("all_hit",)),
        Knob("drop", baseline="none", variants=("p10",)),
    ),
    runner="repro.harness.grids:run_fast_path",
    seed=33,
    extras=(
        # The steady-state reference the bench compares tails against:
        # prototype resolution against a never-expiring cache.
        (
            "reference",
            (("fast_path", "disabled"), ("meta_ttl", "all_hit")),
        ),
    ),
)


# ----------------------------------------------------------------------
# replica_scheduling grid
# ----------------------------------------------------------------------
def run_replica_scheduling(
    knobs: typing.Mapping[str, str], seed: int, smoke: bool
) -> RunOutput:
    """Closed-loop lookups against a three-replica set.

    Ported from ``bench_replica_scheduling.test_tail_latency_one_
    degraded_replica``: the primary intermittently stalls past the
    transport timeout (the ``primary`` knob), and the ``replica`` knob
    swaps hedged adaptive scheduling against the prototype's ordered
    failover.
    """
    from repro.bind import BindResolver, BindServer, ResourceRecord, RRType, Zone
    from repro.net import DatagramTransport, Internetwork
    from repro.sim import ConstantLatency

    lookups = 120 if smoke else 500
    stall_ms = 400.0
    stall_probability = PRIMARY_VARIANTS[knobs["primary"]]
    replica_policy = REPLICA_VARIANTS[knobs["replica"]]
    cal = DEFAULT_CALIBRATION

    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(cal.wire_base_ms, cal.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    hosts = [net.add_host(f"ns{i}", seg) for i in range(3)]

    def make_zone() -> "Zone":
        zone = Zone("hns")
        zone.add(
            ResourceRecord.text_record(
                "a.ctx.hns", "ns=one", rtype=RRType.UNSPEC, ttl=3_600_000
            )
        )
        return zone

    primary = _FlakyBindServer(
        hosts[0],
        zones=[make_zone()],
        lookup_cost_ms=cal.meta_bind_lookup_ms,
        stall_ms=stall_ms,
        stall_probability=stall_probability,
    )
    replicas = [
        BindServer(
            host, zones=[make_zone()], lookup_cost_ms=cal.meta_bind_lookup_ms
        )
        for host in hosts[1:]
    ]
    primary_ep = primary.listen()
    secondary_eps = [replica.listen() for replica in replicas]
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    resolver = BindResolver(
        client,
        udp,
        primary_ep,
        secondaries=secondary_eps,
        policies=PolicySet(replica=replica_policy),
        name="harness",
    )
    latencies: typing.List[float] = []

    def client_loop() -> "ProcessGenerator":
        for _ in range(lookups):
            start = env.now
            yield from resolver.lookup("a.ctx.hns", RRType.UNSPEC)
            latencies.append(env.now - start)
            yield env.timeout(5.0)

    _run(env, client_loop())
    idle(env, 2_000.0)  # drain hedge-loser legs
    counters = env.stats.counters()
    metrics = {
        "lookups": float(len(latencies)),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "max_ms": max(latencies),
        "hedges": float(counters.get("bind.harness.hedges", 0)),
        "failovers": float(counters.get("bind.harness.failovers", 0)),
        "availability": 1.0,
    }
    return RunOutput(metrics=metrics, digest=run_digest(env), sim_ms=env.now)


REPLICA_GRID = GridDef(
    name="replica_scheduling",
    knobs=(
        Knob("replica", baseline="hedged", variants=("ordered",)),
        Knob("primary", baseline="degraded", variants=("healthy",)),
    ),
    runner="repro.harness.grids:run_replica_scheduling",
    seed=61,
)


# ----------------------------------------------------------------------
# update_path grid
# ----------------------------------------------------------------------
def run_update_path(
    knobs: typing.Mapping[str, str], seed: int, smoke: bool
) -> RunOutput:
    """Staleness window after a rebinding, plus a registration storm.

    Ported from ``bench_update_path``: a writer re-registers a context
    under a fleet of warm readers (the ``invalidation`` knob decides
    how fast they notice), then a separate storm phase measures meta
    round trips for an N-writer registration burst with and without
    the batched pipeline (the ``batch`` knob).
    """
    from repro.workloads.scenarios import build_testbed

    readers = 4 if smoke else 8
    poll_ms = 250.0
    storm_size = 16 if smoke else 32
    base_update = INVALIDATION_VARIANTS[knobs["invalidation"]]
    update = dataclasses.replace(base_update, batch=(knobs["batch"] == "on"))
    cal_fast_ttl = dataclasses.replace(
        DEFAULT_CALIBRATION, meta_ttl_ms=60_000.0
    )

    # Phase 1: the staleness window.
    testbed = build_testbed(
        seed=seed, calibration=cal_fast_ttl, update_policy=update
    )
    env = testbed.env
    writer = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    reader_stores = [
        testbed.make_metastore(testbed.client) for _ in range(readers)
    ]
    observed: typing.List[typing.Optional[float]] = [None] * readers
    change_at: typing.Dict[str, float] = {}

    def poller(index: int) -> "ProcessGenerator":
        reader = reader_stores[index]
        while True:
            ns = yield from reader.context_to_name_service("storm")
            if ns == "ns-v2":
                observed[index] = env.now - change_at["t"]
                return
            yield env.timeout(poll_ms)

    def refresh(reader: object) -> "ProcessGenerator":
        ns = yield from reader.context_to_name_service("storm")  # type: ignore[attr-defined]
        assert ns == "ns-v1"

    def drive() -> "ProcessGenerator":
        yield from writer.register_context("storm", "ns-v1")
        for reader in reader_stores:
            yield from refresh(reader)
            if update.notify:
                yield from reader.subscribe_invalidation()
        yield env.timeout(max(0.0, 9_500.0 - env.now))
        # Refresh just before the rebinding so lease-capped TTLs are
        # live when the write lands; pure-TTL refreshes are cache hits.
        yield env.all_of([env.process(refresh(r)) for r in reader_stores])
        yield env.timeout(250.0)
        change_at["t"] = env.now
        yield from writer.register_context("storm", "ns-v2")
        pollers = [env.process(poller(i)) for i in range(readers)]
        yield env.all_of(pollers)

    _run(env, drive())
    staleness = [s for s in observed if s is not None]
    assert len(staleness) == readers

    # Phase 2: the registration storm, in a fresh testbed so phase-1
    # cache state cannot leak into the round-trip count.
    storm_testbed = build_testbed(seed=seed + 1, update_policy=update)
    storm_env = storm_testbed.env
    # The prototype's single-op updates queue long enough at the server
    # to blow the default 1 s call timeout; both arms get the same
    # patient policy so round trips stay the metric, not timeouts.
    patient = dataclasses.replace(
        DEFAULT_RESOLUTION_POLICY,
        call_timeout_ms=30_000.0,
        breaker_threshold=10_000,
    )
    storm_testbed.udp.retry_timeout_ms = 60_000.0
    store = storm_testbed.make_metastore(
        storm_testbed.agent_host,
        policies=PolicySet(resolution=patient, update=update),
    )
    before = storm_env.stats.counters().get("net.udp.delivered", 0)
    storm_started = storm_env.now

    def storm() -> "ProcessGenerator":
        writers = [
            storm_env.process(store.register_context(f"ctx{i}", "BIND-cs"))
            for i in range(storm_size)
        ]
        yield storm_env.all_of(writers)

    _run(storm_env, storm())
    storm_counters = storm_env.stats.counters()
    metrics = {
        "staleness_ms_max": max(staleness),
        "staleness_ms_mean": sum(staleness) / len(staleness),
        "storm_ops": float(storm_size),
        "storm_round_trips": float(
            storm_counters.get("net.udp.delivered", 0) - before
        ),
        "storm_ms": storm_env.now - storm_started,
    }
    digest = f"{run_digest(env)}+{run_digest(storm_env)}"
    return RunOutput(metrics=metrics, digest=digest, sim_ms=env.now)


UPDATE_GRID = GridDef(
    name="update_path",
    knobs=(
        Knob("invalidation", baseline="notify", variants=("lease", "ttl")),
        Knob("batch", baseline="on", variants=("off",)),
    ),
    runner="repro.harness.grids:run_update_path",
    seed=29,
)


# ----------------------------------------------------------------------
# discovery grid
# ----------------------------------------------------------------------
def run_discovery(
    knobs: typing.Mapping[str, str], seed: int, smoke: bool
) -> RunOutput:
    """Ad-hoc names under silent host churn, one run per knob assignment.

    The workload body is :func:`repro.workloads.adhoc.drive_churn`:
    hosts vanish without retracting their names and return with bumped
    incarnations while a client keeps resolving through a
    :class:`~repro.discovery.DiscoveryNsm`.  The ``watchdog`` knob is
    the headline ablation — liveness-driven eviction against waiting
    out the entry TTL — scored by how long dead bindings keep being
    served (``staleness_after_vanish_ms``, ``stale_serves``).
    """
    from repro.workloads.adhoc import build_adhoc_world, drive_churn

    churn_interval_ms, down_ms = CHURN_VARIANTS[knobs["churn"]]
    policy = DiscoveryPolicy(
        beacon_period_ms=BEACON_PERIOD_VARIANTS[knobs["beacon_period"]],
        entry_ttl_ms=10_000.0,
        watchdog_multiplier=WATCHDOG_VARIANTS[knobs["watchdog"]],
    )
    world = build_adhoc_world(seed=seed, policy=policy, host_count=6)
    env = world.env
    metrics = drive_churn(
        world,
        owners=3,
        duration_ms=20_000.0 if smoke else 60_000.0,
        churn_interval_ms=churn_interval_ms,
        down_ms=down_ms,
        query_interval_ms=400.0,
    )
    counters = env.stats.counters()
    metrics["evictions"] = float(counters.get("discovery.evictions", 0))
    metrics["requeries"] = float(counters.get("discovery.requeries", 0))
    return RunOutput(metrics=metrics, digest=run_digest(env), sim_ms=env.now)


DISCOVERY_GRID = GridDef(
    name="discovery",
    knobs=(
        Knob("churn", baseline="low", variants=("high",)),
        Knob("beacon_period", baseline="fast", variants=("slow",)),
        Knob("watchdog", baseline="x3", variants=("ttl_only",)),
    ),
    runner="repro.harness.grids:run_discovery",
    seed=83,
    extras=(
        # The worst case the watchdog exists for: rapid churn with
        # TTL-only eviction, every outage served stale for seconds.
        (
            "high_churn_ttl_only",
            (("churn", "high"), ("watchdog", "ttl_only")),
        ),
    ),
)


# ----------------------------------------------------------------------
# toy grid: the schema exemplar, and the harness's own test subject
# ----------------------------------------------------------------------
def run_toy(
    knobs: typing.Mapping[str, str], seed: int, smoke: bool
) -> RunOutput:
    """A seconds-free miniature scenario for tests, docs, and demos.

    ``ticks`` picks the event count, ``mode`` the delay shape; the
    ``boom`` variant raises on purpose so worker-crash surfacing stays
    covered by a fast tier-1 test.
    """
    ticks = {"few": 5, "many": 50}[knobs["ticks"]]
    mode = knobs["mode"]
    if mode == "boom":
        raise ValueError("injected toy-grid failure (mode=boom)")
    env = Environment(seed=seed)
    rng = env.rng.stream("harness.toy")
    latencies: typing.List[float] = []

    def ticker() -> "ProcessGenerator":
        for _ in range(ticks):
            delay = 10.0 if mode == "steady" else rng.random() * 20.0
            t0 = env.now
            yield env.timeout(delay)
            latencies.append(env.now - t0)
            env.stats.counter("harness.toy.ticks").increment()

    _run(env, ticker())
    metrics = {
        "ticks": float(ticks),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "sim_ms_total": env.now,
    }
    return RunOutput(metrics=metrics, digest=run_digest(env), sim_ms=env.now)


TOY_GRID = GridDef(
    name="toy",
    knobs=(
        Knob("ticks", baseline="few", variants=("many",)),
        Knob("mode", baseline="steady", variants=("jittered", "boom")),
    ),
    runner="repro.harness.grids:run_toy",
    seed=7,
)


#: Every registered grid, by name.  ``python -m repro.cli bench all``
#: runs the non-toy entries.
GRIDS: typing.Dict[str, GridDef] = {
    grid.name: grid
    for grid in (
        FAST_PATH_GRID,
        REPLICA_GRID,
        UPDATE_GRID,
        DISCOVERY_GRID,
        TOY_GRID,
    )
}

#: The grids the CI perf gate runs and compares against committed
#: baselines (toy is a test subject, not a benchmark).
GATED_GRIDS: typing.Tuple[str, ...] = (
    "fast_path",
    "replica_scheduling",
    "update_path",
    "discovery",
)


class _FlakyBindServer(_BindServer):
    """A BindServer that intermittently stalls past the client timeout."""

    def __init__(
        self,
        *args: typing.Any,
        stall_ms: float = 0.0,
        stall_probability: float = 0.0,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.stall_ms = stall_ms
        self.stall_probability = stall_probability
        self._rng = self.env.rng.stream(f"harness.stall:{self.name}")

    def handle(
        self, datagram: typing.Any, responder: typing.Any
    ) -> typing.Any:
        """Serve one datagram, sometimes after the injected stall."""
        if self.stall_ms and self._rng.random() < self.stall_probability:
            yield self.env.timeout(self.stall_ms)
        yield from super().handle(datagram, responder)
