"""The resolver fast path: coalescing, refresh-ahead, batched queries."""

import pytest

from repro.bind import (
    BindResolver,
    NameNotFound,
    ResourceRecord,
    RRType,
    Zone,
)
from repro.bind.messages import (
    STATUS_NXDOMAIN,
    STATUS_OK,
    STATUS_SERVFAIL,
    BatchQuestion,
    meta_field,
    substitute_label,
)
from repro.bind.names import DomainName
from repro.bind import ResolverCache
from repro.resolution import FastPathPolicy, PolicySet


def make_resolver(env, client, transport, endpoint, **kwargs):
    """A resolver with a cache, as every caching client configures it."""
    kwargs.setdefault("cache", ResolverCache(env, name="test-cache"))
    return BindResolver(client, transport, endpoint, **kwargs)


def run(env, gen):
    return env.run(until=env.process(gen))


def idle(env, ms):
    def sleeper():
        yield env.timeout(ms)

    run(env, sleeper())


# ----------------------------------------------------------------------
# Policy object
# ----------------------------------------------------------------------
def test_policy_validates_fraction():
    with pytest.raises(ValueError):
        FastPathPolicy(refresh_ahead_fraction=1.5)
    with pytest.raises(ValueError):
        FastPathPolicy(refresh_ahead_fraction=-0.1)


def test_disabled_policy_turns_everything_off():
    policy = FastPathPolicy.disabled()
    assert not policy.coalesce
    assert policy.refresh_ahead_fraction == 0.0
    assert not policy.batch_meta_lookups


# ----------------------------------------------------------------------
# Single-flight coalescing
# ----------------------------------------------------------------------
def test_thundering_herd_coalesces_to_one_query(deployment):
    """K concurrent cold lookups of one name: one server query with
    coalescing, K without — the thundering-herd regression test."""
    env, net, transport, client, server, endpoint = deployment
    K = 8
    for fast_path, expected_queries in (
        (FastPathPolicy(), 1),
        (FastPathPolicy.disabled(), K),
    ):
        resolver = make_resolver(
            env, client, transport, endpoint, policies=PolicySet(fast_path=fast_path)
        )
        before = env.stats.counter(f"bind.{server.name}.queries").value
        results = []

        def one_lookup():
            records = yield from resolver.lookup("fiji.cs.washington.edu")
            results.append(records)

        for _ in range(K):
            env.process(one_lookup())
        idle(env, 5_000)
        assert len(results) == K
        assert all(r[0].address == "128.95.1.4" for r in results)
        queries = env.stats.counter(f"bind.{server.name}.queries").value - before
        assert queries == expected_queries
        if fast_path.coalesce:
            assert resolver.cache.coalesced == K - 1
            assert (
                env.stats.counter(f"cache.{resolver.cache.name}.coalesced").value
                == K - 1
            )


def test_leader_failure_propagates_to_followers(deployment):
    """A coalesced miss that fails delivers the same classified error to
    every parked follower — nobody hangs, nobody retries separately."""
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(
        client, transport, endpoint, policies=PolicySet(fast_path=FastPathPolicy())
    )
    K = 5
    outcomes = []

    def one_lookup():
        try:
            yield from resolver.lookup("nohost.cs.washington.edu")
            outcomes.append("ok")
        except NameNotFound:
            outcomes.append("not-found")

    before = env.stats.counter(f"bind.{server.name}.queries").value
    for _ in range(K):
        env.process(one_lookup())
    idle(env, 5_000)
    assert outcomes == ["not-found"] * K
    assert env.stats.counter(f"bind.{server.name}.queries").value - before == 1


# ----------------------------------------------------------------------
# Refresh-ahead
# ----------------------------------------------------------------------
@pytest.fixture
def short_ttl_deployment(deployment):
    """The shared deployment plus a record with a 1-second TTL."""
    env, net, transport, client, server, endpoint = deployment
    zone = server.zone_for(DomainName("short.cs.washington.edu"))
    zone.add(
        ResourceRecord.a_record("short.cs.washington.edu", "128.95.1.99", ttl=1_000)
    )
    return deployment


def test_refresh_ahead_renews_hot_entry(short_ttl_deployment):
    env, net, transport, client, server, endpoint = short_ttl_deployment
    resolver = make_resolver(
        env,
        client,
        transport,
        endpoint,
        policies=PolicySet(fast_path=FastPathPolicy(refresh_ahead_fraction=0.3)),
    )
    run(env, resolver.lookup("short.cs.washington.edu"))  # cold fill
    idle(env, 800)  # inside the last 30% of the 1 s TTL
    records = run(env, resolver.lookup("short.cs.washington.edu"))
    assert records[0].address == "128.95.1.99"
    assert resolver.cache.refreshes == 1
    idle(env, 600)  # deferral (<=100 ms) + fetch land; original TTL passes
    stats = env.stats
    assert stats.counter(f"bind.{resolver.name}.remote_lookups").value == 2
    # The entry was renewed in the background: still a cache hit well
    # past the original expiry.
    hits_before = resolver.cache.hits
    run(env, resolver.lookup("short.cs.washington.edu"))
    assert resolver.cache.hits == hits_before + 1


def test_refresh_failure_is_silent(short_ttl_deployment):
    env, net, transport, client, server, endpoint = short_ttl_deployment
    resolver = make_resolver(
        env,
        client,
        transport,
        endpoint,
        policies=PolicySet(fast_path=FastPathPolicy(refresh_ahead_fraction=0.3)),
    )
    run(env, resolver.lookup("short.cs.washington.edu"))
    server.host.crash()
    idle(env, 800)
    # The triggering hit is served from cache and never sees the renewal
    # failing behind it.
    records = run(env, resolver.lookup("short.cs.washington.edu"))
    assert records[0].address == "128.95.1.99"
    idle(env, 30_000)  # let the renewal time out against the dead server
    assert (
        env.stats.counter(f"bind.{resolver.name}.refresh_failures").value == 1
    )
    # The expired entry is still resident for the serve-stale ladder.
    assert resolver.cache.stale_entry(
        ("short.cs.washington.edu", RRType.A.value), window_ms=3_600_000
    ) is not None


def test_disabled_policy_never_refreshes(short_ttl_deployment):
    env, net, transport, client, server, endpoint = short_ttl_deployment
    resolver = make_resolver(
        env,
        client,
        transport,
        endpoint,
        policies=PolicySet(fast_path=FastPathPolicy.disabled()),
    )
    run(env, resolver.lookup("short.cs.washington.edu"))
    idle(env, 900)
    run(env, resolver.lookup("short.cs.washington.edu"))
    idle(env, 2_000)
    assert resolver.cache.refreshes == 0
    assert env.stats.counter(f"bind.{resolver.name}.remote_lookups").value == 1


# ----------------------------------------------------------------------
# Batched (chained) queries
# ----------------------------------------------------------------------
@pytest.fixture
def meta_style_deployment(deployment):
    """A second server carrying UNSPEC key=value records, HNS-style."""
    env, net, transport, client, server, endpoint = deployment
    zone = Zone("hns")
    zone.add(
        ResourceRecord("cs.ctx.hns", RRType.UNSPEC, 3_600_000, b"ns=BIND-cs")
    )
    zone.add(
        ResourceRecord(
            "Binding.bind-cs.q.hns", RRType.UNSPEC, 3_600_000, b"nsm=b-nsm"
        )
    )
    zone.add(
        ResourceRecord(
            "b-nsm.nsm.hns", RRType.UNSPEC, 3_600_000, b"host=fiji;port=7100"
        )
    )
    server.add_zone(zone)
    return deployment


def test_batch_chained_lookup_one_round_trip(meta_style_deployment):
    env, net, transport, client, server, endpoint = meta_style_deployment
    resolver = make_resolver(
        env, client, transport, endpoint, policies=PolicySet(fast_path=FastPathPolicy())
    )
    questions = [
        BatchQuestion("cs.ctx.hns", RRType.UNSPEC),
        BatchQuestion(
            "Binding.*.q.hns", RRType.UNSPEC, chain_from=0, chain_field="ns"
        ),
        BatchQuestion(
            "*.nsm.hns", RRType.UNSPEC, chain_from=1, chain_field="nsm"
        ),
    ]
    before_requests = env.stats.counter(f"bind.{server.name}.requests").value
    answers = run(env, resolver.lookup_batch(questions))
    assert [a.status for a in answers] == [STATUS_OK] * 3
    assert answers[2].records[0].data == b"host=fiji;port=7100"
    # One datagram exchange, three database walks.
    assert (
        env.stats.counter(f"bind.{server.name}.requests").value
        - before_requests
        == 1
    )
    assert env.stats.counter(f"bind.{server.name}.batches").value == 1
    # Every answer landed in the cache under its own canonical owner.
    for owner in ("cs.ctx.hns", "binding.bind-cs.q.hns", "b-nsm.nsm.hns"):
        entry, _ = resolver.cache.probe((owner, RRType.UNSPEC.value))
        assert entry is not None, owner


def test_batch_broken_chain_yields_servfail_slot(meta_style_deployment):
    env, net, transport, client, server, endpoint = meta_style_deployment
    resolver = BindResolver(client, transport, endpoint)
    questions = [
        BatchQuestion("nope.ctx.hns", RRType.UNSPEC),
        BatchQuestion(
            "Binding.*.q.hns", RRType.UNSPEC, chain_from=0, chain_field="ns"
        ),
    ]
    answers = run(env, resolver.lookup_batch(questions))
    assert answers[0].status == STATUS_NXDOMAIN
    assert answers[1].status == STATUS_SERVFAIL


def test_batch_bad_chain_field_yields_servfail_slot(meta_style_deployment):
    env, net, transport, client, server, endpoint = meta_style_deployment
    resolver = BindResolver(client, transport, endpoint)
    questions = [
        BatchQuestion("cs.ctx.hns", RRType.UNSPEC),
        BatchQuestion(
            "Binding.*.q.hns",
            RRType.UNSPEC,
            chain_from=0,
            chain_field="no-such-field",
        ),
    ]
    answers = run(env, resolver.lookup_batch(questions))
    assert answers[0].status == STATUS_OK
    assert answers[1].status == STATUS_SERVFAIL


def test_batch_coalesces_identical_batches(meta_style_deployment):
    env, net, transport, client, server, endpoint = meta_style_deployment
    resolver = make_resolver(
        env, client, transport, endpoint, policies=PolicySet(fast_path=FastPathPolicy())
    )
    questions = [BatchQuestion("cs.ctx.hns", RRType.UNSPEC)]
    done = []

    def one_batch():
        answers = yield from resolver.lookup_batch(list(questions))
        done.append(answers[0].status)

    for _ in range(4):
        env.process(one_batch())
    idle(env, 5_000)
    assert done == [STATUS_OK] * 4
    assert env.stats.counter(f"bind.{server.name}.batches").value == 1


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
def test_meta_field_parses_key_value_data():
    assert meta_field(b"ns=BIND-cs;x=1", "ns") == "BIND-cs"
    assert meta_field(b"ns=BIND-cs;x=1", "x") == "1"
    assert meta_field(b"ns=BIND-cs", "missing") is None


def test_substitute_label_sanitizes_value():
    assert substitute_label("qc.*.q.hns", "BIND-cs") == "qc.bind-cs.q.hns"
    assert substitute_label("*.nsm.hns", "A b:c") == "a-b-c.nsm.hns"
