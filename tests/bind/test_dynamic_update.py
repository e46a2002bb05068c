"""The production write path: batched updates, leases, NOTIFY/IXFR."""

import pytest

from repro.bind import (
    BindResolver,
    BindServer,
    DomainName,
    NameNotFound,
    ResourceRecord,
    RRType,
    SecondaryBindServer,
    UpdateMode,
    UpdateOp,
    UpdateRefused,
    Zone,
)
from repro.bind.messages import STATUS_OK
from repro.core.errors import ContextNotFound
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    PolicySet,
    UpdatePolicy,
)
from repro.workloads.scenarios import build_testbed


def run(env, gen):
    return env.run(until=env.process(gen))


def idle(env, ms):
    def sleeper():
        yield env.timeout(ms)

    run(env, sleeper())


def _replace_op(owner, value, lease_ms=0.0, ttl=3_600_000.0):
    return UpdateOp(
        UpdateMode.REPLACE,
        DomainName(owner),
        RRType.UNSPEC,
        (ResourceRecord(owner, RRType.UNSPEC, ttl, value),),
        lease_ms=lease_ms,
    )


def _meta_server(deployment, **kwargs):
    env, net, transport, client, server, endpoint = deployment
    meta = BindServer(
        server.host,
        zones=[Zone("hns")],
        allow_dynamic_update=True,
        name="meta",
        **kwargs,
    )
    ep = meta.listen(5353)
    return meta, BindResolver(client, transport, ep)


# ----------------------------------------------------------------------
# Batched updates
# ----------------------------------------------------------------------
def test_update_batch_applies_every_op_in_one_exchange(deployment):
    env = deployment[0]
    meta, resolver = _meta_server(deployment)

    ops = [_replace_op(f"svc{i}.hns", f"v={i}".encode()) for i in range(5)]
    serial, statuses = run(env, resolver.update_batch(ops))

    assert statuses == [STATUS_OK] * 5
    assert serial == meta.zones[0].serial
    counters = env.stats.counters()
    assert counters["bind.update.batches"] == 1
    assert counters["bind.update.ops"] == 5
    records = run(env, resolver.lookup("svc3.hns", RRType.UNSPEC))
    assert records[0].data == b"v=3"


def test_update_batch_refused_without_dynamic_update(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)  # public server

    def scenario():
        with pytest.raises(UpdateRefused):
            yield from resolver.update_batch([_replace_op("x.gw.net", b"v=1")])
        return "done"

    assert run(env, scenario()) == "done"


def test_metastore_coalesces_concurrent_writes_last_writer_wins():
    """A write storm through one store flushes as a single batch, and a
    same-owner rewrite inside the window takes the later value."""
    testbed = build_testbed(seed=3, update_policy=UpdatePolicy())
    env = testbed.env
    store = testbed.make_metastore(
        testbed.client,
        policies=PolicySet(
            resolution=DEFAULT_RESOLUTION_POLICY, update=UpdatePolicy()
        ),
    )
    before = env.stats.counters().get("bind.update.batches", 0)

    def drive():
        writers = [
            env.process(store.register_context(f"ctx{i}", "BIND-cs"))
            for i in range(6)
        ]
        writers.append(env.process(store.register_context("ctx0", "CH-hcs")))
        yield env.all_of(writers)

    run(env, drive())
    counters = env.stats.counters()
    assert counters["bind.update.batches"] - before == 1
    assert counters["hns.meta.coalesced_writes"] == 6
    assert run(env, store.context_to_name_service("ctx0")) == "CH-hcs"
    assert run(env, store.context_to_name_service("ctx5")) == "BIND-cs"


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
def test_lease_lapses_and_the_server_retracts_the_binding(deployment):
    env = deployment[0]
    meta, resolver = _meta_server(deployment)

    run(env, resolver.update_batch([_replace_op("box.hns", b"v=1", lease_ms=500.0)]))
    assert run(env, resolver.lookup("box.hns", RRType.UNSPEC))

    idle(env, 1_000.0)

    def scenario():
        with pytest.raises(NameNotFound):
            yield from resolver.lookup("box.hns", RRType.UNSPEC)
        return "done"

    assert run(env, scenario()) == "done"
    assert env.stats.counters()["bind.update.lease_expirations"] == 1


def test_lease_renewal_keeps_the_binding_alive_until_the_owner_dies():
    update = UpdatePolicy(invalidation="lease", lease_ms=1_000.0)
    testbed = build_testbed(seed=5, update_policy=update)
    env = testbed.env
    store = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    reader = testbed.make_metastore(testbed.client)

    run(env, store.register_context("leased", "BIND-cs"))
    idle(env, 3_500.0)  # several lease lifetimes later...
    assert run(env, reader.context_to_name_service("leased")) == "BIND-cs"
    assert env.stats.counters()["nsm.lease.renewals"] >= 3
    assert env.stats.counters().get("bind.update.lease_expirations", 0) == 0

    store.stop_lease_renewal()
    idle(env, 2_500.0)  # ...the owner dies, and the lease lapses

    def scenario():
        with pytest.raises(ContextNotFound):
            yield from reader.context_to_name_service("leased")
        return "done"

    assert run(env, scenario()) == "done"
    assert env.stats.counters()["bind.update.lease_expirations"] >= 1


# ----------------------------------------------------------------------
# NOTIFY fan-out and IXFR pulls
# ----------------------------------------------------------------------
def test_notify_push_pulls_the_delta_into_a_secondary():
    update = UpdatePolicy(invalidation="notify")
    testbed = build_testbed(seed=7, update_policy=update)
    env = testbed.env
    secondary = SecondaryBindServer(
        testbed.hns_host,
        primary=testbed.meta_endpoint,
        origins=["hns"],
        transport=testbed.udp,
        refresh_ms=600_000.0,  # polling effectively off: NOTIFY drives it
        lookup_cost_ms=testbed.calibration.meta_bind_lookup_ms,
    )
    secondary.listen()
    run(env, secondary.refresh_once())  # initial AXFR sync
    assert secondary.is_synchronized
    assert run(env, secondary.subscribe_to_primary()) == 1

    store = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    run(env, store.register_context("pushed", "BIND-cs"))
    idle(env, 100.0)

    primary_zone = testbed.meta_server.zones[0]
    replica = secondary.zone_named(DomainName("hns"))
    assert secondary.replica_serials[replica.origin] == primary_zone.serial
    pushed = replica.lookup(DomainName("pushed.ctx.hns"), RRType.UNSPEC)
    wanted = primary_zone.lookup(DomainName("pushed.ctx.hns"), RRType.UNSPEC)
    assert pushed[0].data == wanted[0].data
    counters = env.stats.counters()
    assert counters[f"bind.{secondary.name}.notify_pulls"] >= 1
    assert counters[f"bind.{secondary.name}.ixfrs"] >= 1
    assert counters["bind.update.notifies"] >= 1


def test_notify_push_updates_a_subscribed_resolver_cache():
    update = UpdatePolicy(invalidation="notify")
    testbed = build_testbed(seed=9, update_policy=update)
    env = testbed.env
    writer = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    reader = testbed.make_metastore(testbed.client)

    assert run(env, reader.context_to_name_service("BIND-cs")) == "BIND-cs"
    run(env, reader.subscribe_invalidation())
    run(env, writer.register_context("BIND-cs", "CH-hcs"))
    idle(env, 100.0)

    # The rebinding is visible from the reader's cache alone: no new
    # round trip to the meta server.
    before = env.stats.counters().get("bind.meta-bind.requests", 0)
    assert run(env, reader.context_to_name_service("BIND-cs")) == "CH-hcs"
    assert env.stats.counters().get("bind.meta-bind.requests", 0) == before


# ----------------------------------------------------------------------
# Prototype equivalence
# ----------------------------------------------------------------------
def test_disabled_update_policy_reproduces_the_prototype_bit_for_bit():
    def digest(update_policy):
        testbed = build_testbed(seed=13, update_policy=update_policy)
        env = testbed.env
        env.trace.enabled = True
        store = testbed.make_metastore(
            testbed.client,
            policies=PolicySet(
                resolution=DEFAULT_RESOLUTION_POLICY, update=update_policy
            ),
        )

        def drive():
            yield from store.register_context("proto", "BIND-cs")
            ns = yield from store.context_to_name_service("proto")
            assert ns == "BIND-cs"

        run(env, drive())
        return env.trace.digest()

    assert digest(None) == digest(UpdatePolicy.disabled())
