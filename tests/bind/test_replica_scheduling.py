"""Replica-aware meta reads: adaptive selection, hedging, breaker skip."""

import pytest

from repro.bind import BindResolver, BindServer, ReplicaScheduler, ResourceRecord, RRType, Zone
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork, NetworkError
from repro.net.addresses import Endpoint, NetworkAddress
from repro.resolution import PolicySet, ReplicaPolicy, ResolutionPolicy
from repro.sim import ConstantLatency, Environment

CAL = DEFAULT_CALIBRATION


def rec(name, text, ttl=3_600_000):
    return ResourceRecord.text_record(name, text, rtype=RRType.UNSPEC, ttl=ttl)


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
def test_policy_defaults_enable_everything():
    policy = ReplicaPolicy()
    assert policy.adaptive and policy.hedging and policy.scheduling
    assert policy.skip_open_breakers and policy.ixfr


def test_disabled_policy_is_inert():
    policy = ReplicaPolicy.disabled()
    assert not policy.adaptive
    assert not policy.hedging
    assert not policy.scheduling
    assert not policy.skip_open_breakers
    assert not policy.ixfr


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"inflight_penalty_ms": -1.0},
        {"hedge_quantile": 1.0},
        {"hedge_min_samples": 0},
        {"hedge_min_delay_ms": 10.0, "hedge_max_delay_ms": 5.0},
        {"max_hedges": -1},
        {"breaker_threshold": -1},
        {"breaker_reset_ms": -1.0},
    ],
)
def test_policy_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ReplicaPolicy(**kwargs)


# ----------------------------------------------------------------------
# Scheduler unit behaviour (no network)
# ----------------------------------------------------------------------
def endpoints(n):
    return [Endpoint(NetworkAddress(f"10.0.0.{i + 1}"), 530) for i in range(n)]


def test_scheduler_prefers_measured_fast_replica():
    env = Environment(seed=1)
    eps = endpoints(2)
    sched = ReplicaScheduler(env, eps, ReplicaPolicy(), name="r")
    fast, slow = sched.states
    for _ in range(6):
        sched.record_start(fast)
        sched.record_success(fast, 5.0, won=True)
        sched.record_start(slow)
        sched.record_success(slow, 200.0, won=True)
    # p2c always compares the only two replicas; the fast one leads.
    for _ in range(10):
        assert sched.plan()[0] is fast


def test_scheduler_inflight_penalty_sheds_load():
    env = Environment(seed=2)
    sched = ReplicaScheduler(
        env, endpoints(2), ReplicaPolicy(inflight_penalty_ms=1_000.0), name="r"
    )
    a, b = sched.states
    sched.record_start(a)
    sched.record_success(a, 5.0, won=True)
    sched.record_start(b)
    sched.record_success(b, 10.0, won=True)
    # a is faster, but pile requests onto it and b takes over.
    for _ in range(3):
        sched.record_start(a)
    assert sched.plan()[0] is b


def test_scheduler_skips_open_breaker():
    env = Environment(seed=3)
    sched = ReplicaScheduler(
        env,
        endpoints(2),
        ReplicaPolicy(adaptive=False, breaker_threshold=1),
        name="r",
    )
    dead, live = sched.states
    sched.record_start(dead)
    sched.record_failure(dead, 100.0)
    assert dead.breaker.state == "open"
    plan = sched.plan()
    assert plan == [live]
    assert env.stats.counters()[f"bind.replica.{dead.label}.skipped"] == 1


def test_scheduler_falls_back_when_all_breakers_open():
    env = Environment(seed=4)
    sched = ReplicaScheduler(
        env,
        endpoints(2),
        ReplicaPolicy(adaptive=False, breaker_threshold=1),
        name="r",
    )
    for state in sched.states:
        sched.record_start(state)
        sched.record_failure(state, 100.0)
    # Refusing outright would turn a brown-out into a black-out: the
    # full static order is still offered.
    assert sched.plan() == sched.states


def test_hedge_delay_needs_samples_then_tracks_quantile():
    env = Environment(seed=5)
    policy = ReplicaPolicy(hedge_min_samples=8, hedge_quantile=0.95)
    sched = ReplicaScheduler(env, endpoints(2), policy, name="r")
    state = sched.states[0]
    assert sched.hedge_delay_ms() is None
    for latency in (10.0,) * 19 + (500.0,):
        sched.record_start(state)
        sched.record_success(state, latency, won=True)
    delay = sched.hedge_delay_ms()
    # 95th percentile of {10 x19, 500}: near the top of the fast cluster.
    assert delay is not None
    assert 10.0 <= delay <= 500.0
    # Clamping: a tiny max wins over the observed quantile.
    clamped = ReplicaScheduler(
        env, endpoints(2), ReplicaPolicy(hedge_max_delay_ms=2.0), name="r2"
    )
    for _ in range(8):
        clamped.record_start(clamped.states[0])
        clamped.record_success(clamped.states[0], 300.0, won=True)
    assert clamped.hedge_delay_ms() == 2.0


def test_scheduler_mirrors_counters_and_ewma_timer():
    env = Environment(seed=6)
    sched = ReplicaScheduler(env, endpoints(1), ReplicaPolicy(), name="r")
    state = sched.states[0]
    sched.record_start(state, hedge=False)
    sched.record_success(state, 10.0, won=True)
    sched.record_start(state, hedge=True)
    sched.record_success(state, 20.0, won=False)
    sched.record_start(state)
    sched.record_failure(state, 100.0)
    label = state.label
    counters = env.stats.counters()
    assert counters[f"bind.replica.{label}.requests"] == 3
    assert counters[f"bind.replica.{label}.hedges"] == 1
    assert counters[f"bind.replica.{label}.wins"] == 1
    assert counters[f"bind.replica.{label}.errors"] == 1
    timer = env.stats.timer(f"bind.replica.{label}.ewma_ms")
    assert timer.count == 3
    # EWMA after 10, 20, 100 with alpha 0.3: 10 -> 13 -> 39.1
    assert timer.samples[-1] == pytest.approx(39.1)
    assert state.ewma_ms == pytest.approx(39.1)


# ----------------------------------------------------------------------
# End-to-end: a resolver over two replicas
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


def make_cluster(
    replica_policy,
    seed=41,
    primary_cost=4.8,
    secondary_cost=4.8,
    resolution_policy=None,
):
    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    primary_host = net.add_host("ns-primary", seg)
    secondary_host = net.add_host("ns-secondary", seg)

    def make_zone():
        zone = Zone("hns")
        zone.add(rec("a.ctx.hns", "ns=one"))
        return zone

    primary = StallServer(
        primary_host, zones=[make_zone()], lookup_cost_ms=primary_cost
    )
    secondary = BindServer(
        secondary_host, zones=[make_zone()], lookup_cost_ms=secondary_cost
    )
    primary_ep = primary.listen()
    secondary_ep = secondary.listen()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    resolver = BindResolver(
        client,
        udp,
        primary_ep,
        secondaries=[secondary_ep],
        policies=PolicySet(resolution=resolution_policy, replica=replica_policy),
        name="r",
    )
    return env, resolver, primary, secondary, primary_host


def lookup_once(env, resolver):
    start = env.now

    def go():
        records = yield from resolver.lookup("a.ctx.hns", RRType.UNSPEC)
        return records

    records = run(env, go())
    return records, env.now - start


def test_adaptive_selection_avoids_slow_replica():
    env, resolver, primary, secondary, _ = make_cluster(
        ReplicaPolicy(hedge_quantile=0.0, max_hedges=0),  # adaptive only
        primary_cost=200.0,
        secondary_cost=4.8,
    )
    for _ in range(20):
        records, _elapsed = lookup_once(env, resolver)
        assert records[0].text == "ns=one"
    counters = env.stats.counters()
    primary_label = str(resolver.server)
    secondary_label = str(resolver.secondaries[0])
    to_primary = counters.get(f"bind.replica.{primary_label}.requests", 0)
    to_secondary = counters.get(f"bind.replica.{secondary_label}.requests", 0)
    assert to_primary + to_secondary >= 20
    # A few exploration probes hit the slow primary; the bulk does not.
    assert to_secondary >= 15
    assert to_primary <= 5


def test_hedging_rescues_a_stalled_primary():
    policy = ReplicaPolicy(adaptive=False, hedge_min_samples=4)
    env, resolver, primary, secondary, _ = make_cluster(policy)
    # Warm the latency window on the (static-order) primary.
    for _ in range(6):
        _records, elapsed = lookup_once(env, resolver)
    baseline = elapsed
    primary.stall_ms = 500.0
    records, elapsed = lookup_once(env, resolver)
    assert records[0].text == "ns=one"
    # The hedge to the secondary answers long before the stalled
    # primary would have.
    assert elapsed < 100.0
    counters = env.stats.counters()
    assert counters[f"bind.r.hedges"] >= 1
    secondary_label = str(resolver.secondaries[0])
    assert counters[f"bind.replica.{secondary_label}.wins"] >= 1
    assert elapsed < baseline + 60.0


def test_ordered_failover_eats_the_stall_without_hedging():
    env, resolver, primary, secondary, _ = make_cluster(ReplicaPolicy.disabled())
    for _ in range(6):
        lookup_once(env, resolver)
    primary.stall_ms = 500.0
    _records, elapsed = lookup_once(env, resolver)
    # Static failover waits out the full transport timeout before it
    # even tries the secondary; hedging answers in a fraction of that.
    assert elapsed >= 100.0


def test_breaker_skip_spares_cold_lookups_the_timeout():
    policy = ReplicaPolicy(
        adaptive=False, hedge_quantile=0.0, max_hedges=0, breaker_threshold=1
    )
    env, resolver, primary, secondary, primary_host = make_cluster(policy)
    primary_host.crash()
    # First lookup pays the transport timeout, fails over, and trips
    # the primary's breaker.
    records, elapsed = lookup_once(env, resolver)
    assert records[0].text == "ns=one"
    assert elapsed >= 100.0
    primary_label = str(resolver.server)
    counters = env.stats.counters()
    assert counters[f"bind.replica.{primary_label}.errors"] == 1
    # Second lookup skips the open breaker: no timeout in its path.
    records, elapsed = lookup_once(env, resolver)
    assert records[0].text == "ns=one"
    assert elapsed < 100.0
    counters = env.stats.counters()
    assert counters[f"bind.replica.{primary_label}.skipped"] >= 1
    assert counters[f"bind.replica.{primary_label}.errors"] == 1  # unchanged


def test_static_failover_pays_the_timeout_every_time():
    env, resolver, primary, secondary, primary_host = make_cluster(
        ReplicaPolicy.disabled()
    )
    primary_host.crash()
    for _ in range(2):
        records, elapsed = lookup_once(env, resolver)
        assert records[0].text == "ns=one"
        assert elapsed >= 100.0  # the dead primary taxes every lookup


#: Simulated ms from the lookup to its failure with both replicas down:
#: three rounds of two 1 s call timeouts (the policy's; the transport
#: does not resend) plus two jittered backoffs.  Scheduling changes the
#: order of the legs, not the cost.
TIME_TO_FAIL_MS = 6128.811742614444


@pytest.mark.parametrize("scheduling", [False, True])
def test_every_replica_down_fails_after_exactly_the_retry_rounds(scheduling):
    policy = ResolutionPolicy(attempts=3)
    env, resolver, _primary, secondary, primary_host = make_cluster(
        ReplicaPolicy() if scheduling else None, resolution_policy=policy
    )
    assert (resolver._scheduler is not None) == scheduling
    primary_host.crash()
    secondary.host.crash()
    start = env.now

    def go():
        with pytest.raises(NetworkError):
            yield from resolver.lookup("a.ctx.hns", RRType.UNSPEC)
        return env.now - start

    assert run(env, go()) == pytest.approx(TIME_TO_FAIL_MS)
    assert env.stats.counter("bind.r.retries").value == policy.attempts - 1


def test_disabled_policy_reproduces_legacy_behaviour_exactly():
    """`ReplicaPolicy.disabled()` must be bit-for-bit the no-policy path."""

    def drive(replica_policy):
        env, resolver, primary, secondary, primary_host = make_cluster(
            replica_policy, seed=47
        )
        for _ in range(5):
            lookup_once(env, resolver)
        primary_host.crash()
        lookup_once(env, resolver)
        primary_host.restart()
        for _ in range(3):
            lookup_once(env, resolver)
        return env.now, env.stats.counters()

    legacy_now, legacy_counters = drive(None)
    ablated_now, ablated_counters = drive(ReplicaPolicy.disabled())
    assert ablated_now == legacy_now
    assert ablated_counters == legacy_counters


def test_disabled_policy_has_no_scheduler():
    env, resolver, *_ = make_cluster(ReplicaPolicy.disabled())
    assert resolver._scheduler is None
    env2, resolver2, *_ = make_cluster(ReplicaPolicy())
    assert resolver2._scheduler is not None
