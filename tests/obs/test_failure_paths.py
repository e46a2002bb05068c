"""Trace propagation across the failure paths (PR 5 satellite).

Degraded resolutions must trace as *one* causally linked story: the
retry rounds, the stale answer that masked an outage, the hedge leg
that lost — all annotated spans under the trace id of the operation
that triggered them.
"""

import dataclasses

from repro.bind import BindResolver, BindServer, ResourceRecord, RRType, Zone
from repro.core import HNSName
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork
from repro.resolution import PolicySet, ReplicaPolicy
from repro.sim import ConstantLatency, Environment
from repro.workloads import build_testbed
from repro.workloads.scenarios import BIND_CONTEXT, BIND_NS

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def run(env, gen):
    return env.run(until=env.process(gen))


def sleep(env, ms):
    def idle():
        yield env.timeout(ms)

    run(env, idle())


# ----------------------------------------------------------------------
# Retried FindNSM: the outage and the recovery in one trace
# ----------------------------------------------------------------------
def test_find_nsm_retry_rounds_trace_under_one_root():
    testbed = build_testbed(seed=18)
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    env.obs.enable()
    # The public BIND answers the native HostAddress lookup (mapping 6);
    # killing it fails FindNSM after the meta mappings have succeeded.
    testbed.public_host.crash()

    def medic():
        while env.stats.counter("hns.find_nsm.retries").value < 1:
            yield env.timeout(100.0)
        testbed.public_host.restart()

    env.process(medic())
    binding = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert binding.program == "nsm.HRPCBinding-BIND-cs"

    roots = env.obs.roots()
    assert len(roots) == 1, [r.name for r in roots]
    root = roots[0]
    assert root.name == "hns.find_nsm"
    assert root.attrs["name"] == FIJI.name
    assert {s.trace_id for s in env.obs.spans} == {root.trace_id}

    attempts = env.obs.spans_named("resolution.attempt")
    failed = [s for s in attempts if s.status == "error"]
    succeeded = [s for s in attempts if s.status == "ok"]
    assert failed and succeeded
    # The retry is visible as attempt indices, not just a counter.
    assert {s.attrs["attempt"] for s in attempts} >= {0, 1}


# ----------------------------------------------------------------------
# Retried-then-served-stale: the grace period, annotated
# ----------------------------------------------------------------------
def test_stale_meta_read_is_annotated_after_failed_rounds():
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    testbed = build_testbed(seed=14, calibration=calibration)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    testbed.meta_host.crash()
    sleep(env, 6_000)  # past the TTL but within the stale window

    env.obs.enable()  # capture only the degraded read
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    assert env.stats.counter("bind.meta@client.stale_hits").value == 1

    roots = env.obs.roots()
    assert len(roots) == 1, [r.name for r in roots]
    root = roots[0]
    assert {s.trace_id for s in env.obs.spans} == {root.trace_id}

    stale = [
        s
        for s in env.obs.spans_named("bind.fetch")
        if s.attrs.get("served_stale")
    ]
    assert len(stale) == 1
    # The stale answer came *after* real retry rounds against the dead
    # server: every leg errored, and the rounds preceded the serve.
    legs = env.obs.spans_named("bind.leg")
    assert legs
    assert all(s.attrs.get("outcome") == "error" for s in legs)
    assert all(s.end_ms <= stale[0].end_ms for s in legs)


# ----------------------------------------------------------------------
# Hedged query: winner and loser under the same trace
# ----------------------------------------------------------------------
class StallServer(BindServer):
    """A BindServer that can be told to sit on requests for a while."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stall_ms = 0.0

    def handle(self, datagram, responder):
        if self.stall_ms:
            yield self.env.timeout(self.stall_ms)
        yield from super().handle(datagram, responder)


def make_cluster(replica_policy, seed=41):
    cal = DEFAULT_CALIBRATION
    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(cal.wire_base_ms, cal.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    primary_host = net.add_host("ns-primary", seg)
    secondary_host = net.add_host("ns-secondary", seg)

    def make_zone():
        zone = Zone("hns")
        zone.add(
            ResourceRecord.text_record(
                "a.ctx.hns", "ns=one", rtype=RRType.UNSPEC, ttl=3_600_000
            )
        )
        return zone

    primary = StallServer(primary_host, zones=[make_zone()], lookup_cost_ms=4.8)
    secondary = BindServer(
        secondary_host, zones=[make_zone()], lookup_cost_ms=4.8
    )
    primary_ep = primary.listen()
    secondary_ep = secondary.listen()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=200)
    resolver = BindResolver(
        client,
        udp,
        primary_ep,
        secondaries=[secondary_ep],
        policies=PolicySet(replica=replica_policy),
        name="r",
    )
    return env, resolver, primary


def lookup_once(env, resolver):
    def go():
        records = yield from resolver.lookup("a.ctx.hns", RRType.UNSPEC)
        return records

    return run(env, go())


def test_hedge_winner_and_loser_share_the_trace():
    policy = ReplicaPolicy(adaptive=False, hedge_min_samples=4)
    env, resolver, primary = make_cluster(policy)
    for _ in range(6):
        lookup_once(env, resolver)  # warm the hedge-delay window

    # Stall the primary past the hedge delay but under the transport
    # timeout: the hedge wins, the primary still answers — and loses.
    primary.stall_ms = 60.0
    env.obs.enable()
    records = lookup_once(env, resolver)
    assert records[0].text == "ns=one"
    assert env.stats.counter("bind.r.hedges").value >= 1
    sleep(env, 500.0)  # let the losing leg finish and record

    roots = env.obs.roots()
    assert len(roots) == 1, [r.name for r in roots]
    root = roots[0]
    assert root.name == "bind.lookup"

    legs = env.obs.spans_named("bind.leg")
    outcomes = sorted(s.attrs.get("outcome") for s in legs)
    assert outcomes == ["lost", "won"], outcomes
    # The loser is causally tied to the same resolution, not orphaned.
    assert {s.trace_id for s in legs} == {root.trace_id}
    winner = next(s for s in legs if s.attrs["outcome"] == "won")
    loser = next(s for s in legs if s.attrs["outcome"] == "lost")
    assert winner.attrs["hedge"] is True
    assert loser.attrs["hedge"] is False
    assert winner.end_ms <= loser.end_ms
