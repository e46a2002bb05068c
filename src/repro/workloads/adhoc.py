"""Ad-hoc discovery scenarios: churn, partition/heal, and a flash crowd.

A lightweight ad-hoc world — one segment, a handful of beacon-running
hosts, no administered servers at all — drives the first two scenarios;
the flash crowd runs on the full HCS testbed to prove the ad-hoc tier
joins the confederation end to end (registered in the meta zone,
located by ``HNS.find_nsm``, called through ``NsmStub``).

``drive_churn`` is the shared workload body: the registered
``adhoc_churn`` scenario runs it small for the determinism gate, and
``repro.harness.grids.run_discovery`` runs it across the churn-rate ×
beacon-period × watchdog grid for the benchmark.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.names import HNSName
from repro.discovery import BeaconService, DiscoveryNsm
from repro.discovery.nsm import ADHOC_NS
from repro.net import DatagramTransport, Internetwork
from repro.net.host import Host
from repro.resolution import DEFAULT_DISCOVERY_POLICY, DiscoveryPolicy
from repro.sim import ConstantLatency, Environment
from repro.workloads.scenarios import SRV_CONTEXT, scenario, build_testbed

#: the context ad-hoc names resolve under (maps to the ``adhoc`` service)
ADHOC_CONTEXT = "adhoc"


@dataclasses.dataclass
class AdhocWorld:
    """One segment of beacon-running hosts and nothing else."""

    env: Environment
    internet: Internetwork
    udp: DatagramTransport
    hosts: typing.List[Host]
    beacons: typing.List[BeaconService]

    @property
    def segment(self):
        return self.internet.segments[0]


def build_adhoc_world(
    seed: int,
    policy: DiscoveryPolicy = DEFAULT_DISCOVERY_POLICY,
    host_count: int = 6,
) -> AdhocWorld:
    """A segment where every host runs a :class:`BeaconService`."""
    env = Environment(seed=seed)
    internet = Internetwork(env)
    segment = internet.add_segment(latency=ConstantLatency(1.0, 0.0008))
    hosts = [internet.add_host(f"adhoc{i}", segment) for i in range(host_count)]
    udp = DatagramTransport(internet)
    beacons = [BeaconService(host, udp, policy) for host in hosts]
    return AdhocWorld(
        env=env, internet=internet, udp=udp, hosts=hosts, beacons=beacons
    )


# ----------------------------------------------------------------------
# The shared churn workload
# ----------------------------------------------------------------------
def drive_churn(
    world: AdhocWorld,
    owners: int = 3,
    duration_ms: float = 20_000.0,
    churn_interval_ms: float = 6_000.0,
    down_ms: float = 4_000.0,
    query_interval_ms: float = 400.0,
) -> typing.Dict[str, typing.Optional[float]]:
    """Hosts vanish silently and return; a client keeps resolving.

    Hosts 1..``owners`` each announce one name; a churn process crashes
    them round-robin (silently — no retraction) and restarts them with
    a bumped incarnation after ``down_ms``.  Host 0 resolves every name
    every ``query_interval_ms`` through a :class:`DiscoveryNsm` and the
    query log is scored post-hoc:

    - ``staleness_after_vanish_ms``: per vanish event, how long queries
      kept serving the dead binding (the metric liveness eviction buys).
    - ``stale_serves``: total queries answered with a dead owner.
    - ``p99_ms`` / ``availability``: resolution tail and the fraction
      of queries with a correct outcome (a served live binding, or a
      miss while the owner really was down).
    """
    env = world.env
    assert owners <= len(world.hosts) - 1, "need a non-owner client host"
    names = [f"svc-{i}" for i in range(owners)]
    for i, name in enumerate(names):
        world.beacons[1 + i].announce(name, 9_000 + i)
    nsm = DiscoveryNsm(world.beacons[0])
    rng = env.rng.stream("adhoc.churn")
    # (time, name, served_owner or None, latency_ms) per query
    log: typing.List[typing.Tuple[float, str, typing.Optional[str], float]] = []
    # name -> list of (vanish_at, recover_at)
    outages: typing.Dict[str, typing.List[typing.List[float]]] = {
        name: [] for name in names
    }

    # Warm every view: a few beacon periods is plenty.
    warm_ms = 3.0 * world.beacons[0].policy.beacon_period_ms + 100.0

    def churner() -> typing.Generator:
        index = 0
        while env.now < warm_ms + duration_ms - down_ms:
            yield env.timeout(churn_interval_ms * (0.75 + 0.5 * rng.random()))
            victim = 1 + (index % owners)
            index += 1
            host, beacon = world.hosts[victim], world.beacons[victim]
            name = names[victim - 1]
            outages[name].append([env.now, float("inf")])
            host.crash()  # silent: no retraction reaches the segment
            yield env.timeout(down_ms)
            host.restart()
            beacon.restart()  # incarnation bump reconciles the views
            outages[name][-1][1] = env.now

    def querier() -> typing.Generator:
        while env.now < warm_ms + duration_ms:
            for name in names:
                t0 = env.now
                try:
                    result = yield from nsm.query(
                        HNSName(ADHOC_CONTEXT, name)
                    )
                except LookupError:
                    log.append((t0, name, None, env.now - t0))
                else:
                    log.append(
                        (t0, name, str(result.value["owner"]), env.now - t0)
                    )
            yield env.timeout(query_interval_ms)

    def drive() -> typing.Generator:
        yield env.timeout(warm_ms)
        churn = env.process(churner(), name="adhoc.churner")
        query = env.process(querier(), name="adhoc.querier")
        yield env.all_of([churn, query])

    env.run(until=env.process(drive(), name="adhoc.driver"))

    # ---- post-hoc scoring -------------------------------------------------
    def down_during(name: str, at: float) -> bool:
        return any(start <= at < end for start, end in outages[name])

    owner_of = {name: world.hosts[1 + i].name for i, name in enumerate(names)}
    stale = good = 0
    for at, name, served, _latency in log:
        is_down = down_during(name, at)
        if served is None:
            good += 0 if not is_down else 1
        elif is_down and served == owner_of[name]:
            stale += 1
        else:
            good += 1
    staleness: typing.List[float] = []
    for name, spans in outages.items():
        for start, end in spans:
            window = [q for q in log if q[1] == name and start <= q[0] < end]
            fresh = [q for q in window if q[2] != owner_of[name]]
            if fresh:
                staleness.append(fresh[0][0] - start)
            elif window:
                # Served stale for the whole outage.
                staleness.append(end - start)
    latencies = [q[3] for q in log]
    from repro.harness.grids import percentile

    env.stats.counter("discovery.churn_queries").increment(len(log))
    return {
        "queries": float(len(log)),
        "vanish_events": float(sum(len(s) for s in outages.values())),
        "stale_serves": float(stale),
        "staleness_after_vanish_ms": (
            sum(staleness) / len(staleness) if staleness else 0.0
        ),
        "p99_ms": percentile(latencies, 99),
        "availability": good / max(1, len(log)),
    }


# ----------------------------------------------------------------------
# Registered scenarios
# ----------------------------------------------------------------------
@scenario("adhoc_churn")
def _adhoc_churn_scenario(seed: int) -> Environment:
    """Silent host churn under liveness watchdogs, sized for the gate."""
    world = build_adhoc_world(
        seed,
        policy=DiscoveryPolicy(
            beacon_period_ms=500.0,
            entry_ttl_ms=10_000.0,
            watchdog_multiplier=3.0,
        ),
        host_count=5,
    )
    env = world.env
    env.trace.enabled = True
    metrics = drive_churn(
        world,
        owners=2,
        duration_ms=12_000.0,
        churn_interval_ms=4_000.0,
        down_ms=3_000.0,
        query_interval_ms=500.0,
    )
    assert metrics["vanish_events"] >= 1
    assert env.stats.counters().get("discovery.evictions", 0) >= 1
    env.trace.emit(
        "adhoc",
        "churn complete",
        queries=int(metrics["queries"]),
        stale_serves=int(metrics["stale_serves"]),
        evictions=env.stats.counters().get("discovery.evictions", 0),
    )
    return env


@scenario("adhoc_partition_heal")
def _adhoc_partition_heal_scenario(seed: int) -> Environment:
    """Split the segment, let the views diverge, heal, reconcile.

    The assertion of record: after heal, *every* host's membership
    digest is identical — the incarnation-numbered beacons reconcile
    both sides without any administered authority.  The digest goes
    into the trace, so determinism quad-runs pin it too.
    """
    world = build_adhoc_world(
        seed,
        policy=DiscoveryPolicy(
            beacon_period_ms=500.0,
            entry_ttl_ms=30_000.0,
            watchdog_multiplier=3.0,
        ),
        host_count=6,
    )
    env = world.env
    env.trace.enabled = True
    left, right = world.hosts[:3], world.hosts[3:]
    world.beacons[1].announce("editor", 9_001)
    world.beacons[4].announce("printer", 9_004)

    def digests(hosts: typing.Sequence[Host]) -> typing.Set[str]:
        index = {h.name: i for i, h in enumerate(world.hosts)}
        return {
            world.beacons[index[h.name]].cache.membership_digest()
            for h in hosts
        }

    def drive() -> typing.Generator:
        yield env.timeout(3_000.0)  # converge whole
        assert len(digests(world.hosts)) == 1, "views never converged"
        world.segment.partition(left, right)
        # Both names keep beaconing; each side evicts the other's.
        yield env.timeout(6_000.0)
        split_left, split_right = digests(left), digests(right)
        assert len(split_left) == 1 and len(split_right) == 1
        assert split_left != split_right, "partition did not diverge views"
        world.segment.heal()
        yield env.timeout(6_000.0)

    env.run(until=env.process(drive(), name="adhoc.partition_driver"))
    healed = digests(world.hosts)
    assert len(healed) == 1, f"views did not reconcile after heal: {healed}"
    env.trace.emit(
        "adhoc",
        "partition healed",
        membership_digest=next(iter(healed)),
        partition_drops=env.stats.counters().get("net.partition.drops", 0),
    )
    return env


@scenario("adhoc_flash_crowd")
def _adhoc_flash_crowd_scenario(seed: int) -> Environment:
    """The ad-hoc tier joins the confederation, then takes a stampede.

    The full testbed registers the ``adhoc`` name service (a new kind)
    and a linked-in-only ``AdHocService`` NSM (port 0) in the meta
    zone; ``HNS.find_nsm`` hands back a local binding and ``NsmStub``
    dispatches unchanged.  Eight concurrent clients then resolve the
    same freshly announced name — the single-flight coalescer keeps the
    stampede to one native resolution.
    """
    from repro.core.admin import HnsAdministrator
    from repro.core.nsm import NsmStub
    from repro.resolution import FastPathPolicy

    testbed = build_testbed(seed=seed)
    env = testbed.env
    env.trace.enabled = True
    policy = DiscoveryPolicy(beacon_period_ms=500.0, watchdog_multiplier=3.0)
    client_beacon = BeaconService(testbed.client, testbed.udp, policy)
    june_beacon = BeaconService(testbed.june, testbed.udp, policy)
    june_beacon.announce("buildcache", 9_100)

    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))
    nsm = DiscoveryNsm(client_beacon, fast_path=FastPathPolicy())

    def register() -> typing.Generator:
        yield from admin.register_name_service(
            ADHOC_NS, "adhoc", testbed.client.name, 0
        )
        yield from admin.register_context(ADHOC_CONTEXT, ADHOC_NS)
        yield from admin.register_nsm(
            nsm_name=nsm.name,
            query_class="AdHocService",
            name_service=ADHOC_NS,
            host_name=f"{testbed.client.name}.cs.washington.edu",
            host_context=SRV_CONTEXT,
            program=f"nsm.{nsm.name}",
            suite="sunrpc",
            port=0,  # linked-in only: FindNSM returns a local binding
        )

    env.run(until=env.process(register()))
    hns = testbed.make_hns(testbed.client)
    hns.link_local_nsm(nsm)
    stub = NsmStub(testbed.client)
    stub.link_local(nsm)
    name = HNSName(ADHOC_CONTEXT, "buildcache")
    results: typing.List[object] = []

    def one_client() -> typing.Generator:
        binding = yield from hns.find_nsm(name, "AdHocService")
        result = yield from stub.call(binding, name)
        results.append(result)

    def drive() -> typing.Generator:
        yield env.timeout(2_000.0)  # let the beacons seed the view
        crowd = [env.process(one_client()) for _ in range(8)]
        yield env.all_of(crowd)

    env.run(until=env.process(drive(), name="adhoc.flash_driver"))
    assert len(results) == 8
    assert all(r.value["owner"] == testbed.june.name for r in results)  # type: ignore[attr-defined]
    natives = env.stats.counters().get(f"nsm.{nsm.name}.native_queries", 0)
    env.trace.emit(
        "adhoc",
        "flash crowd resolved",
        crowd=len(results),
        native_queries=natives,
    )
    return env
