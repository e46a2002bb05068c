"""Incremental zone transfer: the journal, the wire, and the refresh."""

import pytest

from repro.bind import (
    BindResolver,
    DomainName,
    BindServer,
    ResolverCache,
    ResourceRecord,
    RRType,
    SecondaryBindServer,
    Zone,
    ZoneDelta,
)
from repro.bind.messages import delta_from_idl, delta_to_idl
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork
from repro.resolution import PolicySet, ReplicaPolicy
from repro.sim import ConstantLatency, Environment

CAL = DEFAULT_CALIBRATION


def rec(name, text, ttl=10_000):
    return ResourceRecord.text_record(name, text, rtype=RRType.UNSPEC, ttl=ttl)


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# The zone journal
# ----------------------------------------------------------------------
def test_journal_records_each_update():
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))       # serial 2
    zone.add(rec("b.ctx.hns", "ns=two"))       # serial 3
    zone.remove("a.ctx.hns", RRType.UNSPEC)    # serial 4
    deltas = zone.delta_since(1)
    assert deltas is not None
    assert [d.serial for d in deltas] == [2, 3, 4]
    assert deltas[0].records[0].text == "ns=one"
    assert deltas[2].records == ()  # deletion: empty record set


def test_delta_since_current_serial_is_empty():
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))
    assert zone.delta_since(zone.serial) == []
    assert zone.delta_since(zone.serial + 5) == []


def test_delta_since_partial():
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))   # 2
    zone.add(rec("b.ctx.hns", "ns=two"))   # 3
    deltas = zone.delta_since(2)
    assert [d.serial for d in deltas] == [3]


def test_delta_since_truncated_journal_returns_none():
    zone = Zone("hns", journal_limit=2)
    for i in range(5):
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    # Journal only holds serials 5 and 6; serial 2 is unreachable.
    assert zone.delta_since(2) is None
    assert zone.delta_since(4) is not None


def test_delta_since_predating_journal_returns_none():
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))
    # A requester at serial 0 never saw the initial empty zone: the
    # journal starts at serial 2, so coverage of 0 is impossible.
    assert zone.delta_since(0) is None


def test_apply_delta_tracks_primary():
    primary = Zone("hns")
    replica = Zone("hns")
    primary.add(rec("a.ctx.hns", "ns=one"))
    primary.replace(
        "a.ctx.hns", RRType.UNSPEC, [rec("a.ctx.hns", "ns=NEW")]
    )
    for delta in primary.delta_since(1):
        replica.apply_delta(delta)
    assert replica.serial == primary.serial
    assert replica.all_records() == primary.all_records()
    # The replica re-journals the applied deltas, so it can serve IXFR
    # to a downstream requester at an intermediate serial.
    assert replica.delta_since(2) is not None


def test_zone_delta_wire_round_trip():
    delta = ZoneDelta(
        7, DomainName("a.ctx.hns"), RRType.UNSPEC, (rec("a.ctx.hns", "ns=one"),)
    )
    value = delta_to_idl(delta)
    back = delta_from_idl(value)
    assert back.serial == 7
    assert str(back.name) == "a.ctx.hns"
    assert back.rtype is RRType.UNSPEC
    assert back.records[0].text == "ns=one"


# ----------------------------------------------------------------------
# Client/server IXFR exchange
# ----------------------------------------------------------------------
@pytest.fixture
def wired():
    env = Environment(seed=71)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    server_host = net.add_host("ns", seg)
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))
    server = BindServer(
        server_host, zones=[zone], allow_dynamic_update=True, lookup_cost_ms=4.8
    )
    endpoint = server.listen()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    resolver = BindResolver(client, udp, endpoint)
    return env, zone, server, resolver, udp, client, endpoint


def test_ixfr_exchange_returns_delta(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    synced_at = zone.serial
    zone.add(rec("b.ctx.hns", "ns=two"))
    serial, full, deltas, records = run(
        env, resolver.incremental_zone_transfer("hns", synced_at)
    )
    assert serial == zone.serial
    assert not full
    assert records == []
    assert len(deltas) == 1 and deltas[0].records[0].text == "ns=two"
    assert env.stats.counters()[f"bind.{server.name}.ixfrs"] == 1


def test_ixfr_exchange_falls_back_to_snapshot(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    serial, full, deltas, records = run(
        env, resolver.incremental_zone_transfer("hns", 0)
    )
    assert full
    assert deltas == []
    assert records == zone.all_records()
    assert env.stats.counters()[f"bind.{server.name}.ixfr_fallbacks"] == 1


def test_ixfr_delta_is_cheaper_than_snapshot(wired):
    """The per-record streaming charge applies to the delta only."""
    env, zone, server, resolver, udp, client, endpoint = wired
    for i in range(50):
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    synced_at = zone.serial
    zone.add(rec("fresh.ctx.hns", "ns=fresh"))

    start = env.now
    run(env, resolver.incremental_zone_transfer("hns", synced_at))
    delta_ms = env.now - start

    start = env.now
    run(env, resolver.zone_transfer("hns"))
    full_ms = env.now - start
    assert delta_ms < full_ms / 3


# ----------------------------------------------------------------------
# Secondary refresh over IXFR (the satellite coverage)
# ----------------------------------------------------------------------
def make_replicated(journal_limit=512, replica_policy=ReplicaPolicy()):
    env = Environment(seed=72)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    primary_host = net.add_host("ns-primary", seg)
    secondary_host = net.add_host("ns-secondary", seg)
    zone = Zone("hns", journal_limit=journal_limit)
    zone.add(rec("a.ctx.hns", "ns=one"))
    primary = BindServer(
        primary_host, zones=[zone], allow_dynamic_update=True, lookup_cost_ms=4.8
    )
    primary_ep = primary.listen()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    secondary = SecondaryBindServer(
        secondary_host,
        primary_ep,
        origins=["hns"],
        transport=udp,
        refresh_ms=1_000,
        lookup_cost_ms=4.8,
        replica_policy=replica_policy,
    )
    secondary.listen()
    return env, zone, primary, secondary, client, udp


def replica_zone(secondary):
    return secondary.zone_named(secondary.zones[0].origin)


def test_refresh_serial_unchanged_no_transfer():
    env, zone, primary, secondary, client, udp = make_replicated()
    run(env, secondary.refresh_once())
    pulled = run(env, secondary.refresh_once())
    counters = env.stats.counters()
    assert pulled == 0
    assert counters[f"bind.{secondary.name}.refresh_skips"] == 1
    # Neither an incremental nor a full transfer happened.
    assert f"bind.{primary.name}.ixfrs" not in counters or (
        counters[f"bind.{primary.name}.ixfrs"] == 1  # the initial sync
    )
    assert counters.get(f"bind.{secondary.name}.ixfrs", 0) == 0


def test_refresh_applies_exact_delta_via_ixfr():
    env, zone, primary, secondary, client, udp = make_replicated()
    run(env, secondary.refresh_once())  # first sync: AXFR-style fallback
    counters = env.stats.counters()
    assert counters[f"bind.{secondary.name}.axfr_fallbacks"] == 1

    zone.add(rec("b.ctx.hns", "ns=two"))
    zone.replace("a.ctx.hns", RRType.UNSPEC, [rec("a.ctx.hns", "ns=NEW")])
    pulled = run(env, secondary.refresh_once())
    counters = env.stats.counters()
    assert pulled == 1
    assert counters[f"bind.{secondary.name}.ixfrs"] == 1
    assert counters[f"bind.{secondary.name}.axfr_fallbacks"] == 1  # unchanged
    # The replica now equals the primary, record for record.
    assert replica_zone(secondary).all_records() == zone.all_records()
    assert secondary.replica_serials[zone.origin] == zone.serial


def test_refresh_falls_back_to_axfr_when_journal_truncated():
    env, zone, primary, secondary, client, udp = make_replicated(journal_limit=2)
    run(env, secondary.refresh_once())
    for i in range(8):  # far beyond the journal window
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    pulled = run(env, secondary.refresh_once())
    counters = env.stats.counters()
    assert pulled == 1
    assert counters[f"bind.{secondary.name}.axfr_fallbacks"] == 2
    assert counters.get(f"bind.{secondary.name}.ixfrs", 0) == 0
    assert replica_zone(secondary).all_records() == zone.all_records()
    assert secondary.replica_serials[zone.origin] == zone.serial


def test_refresh_without_policy_keeps_axfr():
    env, zone, primary, secondary, client, udp = make_replicated(
        replica_policy=None
    )
    run(env, secondary.refresh_once())
    zone.add(rec("b.ctx.hns", "ns=two"))
    run(env, secondary.refresh_once())
    counters = env.stats.counters()
    assert counters.get(f"bind.{primary.name}.ixfrs", 0) == 0
    assert counters[f"bind.{primary.name}.xfers"] == 2
    assert replica_zone(secondary).all_records() == zone.all_records()


def test_refresh_handles_deletion_via_ixfr():
    env, zone, primary, secondary, client, udp = make_replicated()
    zone.add(rec("b.ctx.hns", "ns=two"))
    run(env, secondary.refresh_once())
    zone.remove("b.ctx.hns", RRType.UNSPEC)
    run(env, secondary.refresh_once())
    assert not replica_zone(secondary).contains("b.ctx.hns", RRType.UNSPEC)
    assert replica_zone(secondary).all_records() == zone.all_records()


# ----------------------------------------------------------------------
# Incremental cache preload
# ----------------------------------------------------------------------
def test_preload_cache_incremental(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    for i in range(40):
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    cache = ResolverCache(env, name="preload")
    preloader = BindResolver(
        client,
        udp,
        endpoint,
        cache=cache,
        policies=PolicySet(replica=ReplicaPolicy()),
    )
    start = env.now
    loaded = run(env, preloader.preload_cache("hns"))
    first_ms = env.now - start
    assert loaded == zone.record_count

    # Churn two keys, then re-preload: only the delta travels/installs.
    zone.add(rec("fresh.ctx.hns", "ns=fresh"))
    zone.remove("x0.ctx.hns", RRType.UNSPEC)
    start = env.now
    loaded = run(env, preloader.preload_cache("hns"))
    second_ms = env.now - start
    assert loaded == 1  # the one added record; the deletion carries none
    assert env.stats.counters()[f"bind.{preloader.name}.incremental_preloads"] == 1
    assert second_ms < first_ms / 3

    keys = {entry[0] for entry in cache.entries()}
    assert ("fresh.ctx.hns", RRType.UNSPEC.value) in keys
    assert ("x0.ctx.hns", RRType.UNSPEC.value) not in keys


def test_preload_cache_without_policy_always_full(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    cache = ResolverCache(env, name="preload")
    preloader = BindResolver(client, udp, endpoint, cache=cache)
    run(env, preloader.preload_cache("hns"))
    zone.add(rec("b.ctx.hns", "ns=two"))
    run(env, preloader.preload_cache("hns"))
    counters = env.stats.counters()
    assert counters[f"bind.{server.name}.xfers"] == 2
    assert counters.get(f"bind.{server.name}.ixfrs", 0) == 0
