"""The ResolutionPolicy degradation ladder, end to end.

Fresh cache hit -> retry with jittered backoff -> stale cache hit ->
fail fast (circuit breaker open): each rung is exercised against the
full testbed with real crashes, restarts, and wire loss.
"""

import dataclasses

import pytest

from repro.core import (
    Arrangement,
    ContextNotFound,
    HNSName,
    LocalNsmBinding,
    NsmUnavailable,
)
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import TransportTimeout
from repro.resolution import PolicySet, ResolutionPolicy
from repro.workloads import build_stack, build_testbed
from repro.workloads.scenarios import BIND_CONTEXT, BIND_NS

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def run(env, gen):
    return env.run(until=env.process(gen))


def sleep(env, ms):
    def idle():
        yield env.timeout(ms)

    run(env, idle())


# ----------------------------------------------------------------------
# Retry with backoff
# ----------------------------------------------------------------------
def test_meta_lookup_retries_through_server_restart():
    """A meta lookup survives a server outage shorter than the retry span."""
    testbed = build_testbed(seed=11)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)
    testbed.meta_host.crash()

    def medic():
        # Revive the meta server once the resolver has started retrying,
        # so the outage is mid-lookup by construction.
        while env.stats.counter("bind.meta@client.retries").value < 1:
            yield env.timeout(100.0)
        testbed.meta_host.restart()

    env.process(medic())
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    assert env.stats.counter("bind.meta@client.retries").value >= 1


def test_meta_retry_exhaustion_raises_last_transient_error():
    """A dead meta server still fails -- after exactly policy.attempts rounds."""
    testbed = build_testbed(seed=12)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)
    testbed.meta_host.crash()

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from metastore.context_to_name_service(BIND_CONTEXT)
        return "done"

    assert run(env, scenario()) == "done"
    assert metastore.policy is not None
    assert (
        env.stats.counter("bind.meta@client.retries").value
        == metastore.policy.attempts - 1
    )


def test_find_nsm_retries_host_resolution_through_crash():
    """The NSM-host crashing mid-FindNSM is retried at the HNS layer."""
    testbed = build_testbed(seed=18)
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
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
    assert env.stats.counter("hns.find_nsm.retries").value >= 1


def test_wire_drop_imports_survive_with_policy():
    """Cold imports keep succeeding on a lossy wire under the default policy."""
    testbed = build_testbed(seed=13)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    testbed.internet.segments[0].drop_probability = 0.5
    for _ in range(5):
        stack.flush_all_caches()
        binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
        assert binding.endpoint.port == 9999


# ----------------------------------------------------------------------
# Negative caching
# ----------------------------------------------------------------------
def test_negative_caching_spares_repeated_misses():
    testbed = build_testbed(seed=15)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)

    def scenario():
        for _ in range(3):
            with pytest.raises(ContextNotFound):
                yield from metastore.context_to_name_service("no-such-ctx")
        return "done"

    assert run(env, scenario()) == "done"
    # One remote NXDOMAIN; the repeats answer from the negative cache.
    assert env.stats.counter("bind.meta@client.remote_lookups").value == 1
    assert env.stats.counter("bind.meta@client.negative_hits").value == 2


# ----------------------------------------------------------------------
# Serve-stale
# ----------------------------------------------------------------------
def test_serve_stale_masks_meta_outage():
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    testbed = build_testbed(seed=14, calibration=calibration)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    testbed.meta_host.crash()
    sleep(env, 6_000)  # past the TTL but within the stale window
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    assert env.stats.counter("bind.meta@client.stale_hits").value == 1


def test_no_stale_serving_without_policy():
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    testbed = build_testbed(seed=14, calibration=calibration)
    env = testbed.env
    metastore = testbed.make_metastore(
        testbed.client,
        policies=PolicySet(resolution=ResolutionPolicy.disabled()),
    )
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    testbed.meta_host.crash()
    sleep(env, 6_000)

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from metastore.context_to_name_service(BIND_CONTEXT)
        return "done"

    assert run(env, scenario()) == "done"
    assert env.stats.counter("bind.meta@client.stale_hits").value == 0


def test_stale_window_expiry_ends_the_grace_period():
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    testbed = build_testbed(seed=14, calibration=calibration)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    testbed.meta_host.crash()
    assert metastore.policy is not None
    sleep(env, 6_000 + metastore.policy.stale_window_ms)

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from metastore.context_to_name_service(BIND_CONTEXT)
        return "done"

    assert run(env, scenario()) == "done"
    assert env.stats.counter("bind.meta@client.stale_hits").value == 0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def test_breaker_trips_fast_fails_then_recovers():
    testbed = build_testbed(seed=16)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.REMOTE_NSMS)
    run(env, stack.importer.import_binding("DesiredService", FIJI))  # warm
    testbed.nsm_host.crash()
    stack.flush_nsm_caches()

    def failing():
        with pytest.raises(NsmUnavailable):
            yield from stack.importer.import_binding("DesiredService", FIJI)
        return "done"

    # The retries exhaust into the breaker tripping.
    assert run(env, failing()) == "done"
    nsm_name = stack.binding_nsm.name
    assert stack.hns.nsm_breakers.states()[nsm_name] == "open"

    # While open: fail fast, burning no transport timeouts even though
    # the NSM host is actually back up already.
    testbed.nsm_host.restart()
    start = env.now
    assert run(env, failing()) == "done"
    assert env.now - start < 100.0
    assert env.stats.counter("hns.breaker.fast_fails").value >= 1

    # After the reset window the breaker half-opens; the next import is
    # the probe, succeeds, and closes the circuit.
    assert stack.hns.policy is not None
    sleep(env, stack.hns.policy.breaker_reset_ms + 1)
    binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
    assert binding.endpoint.port == 9999
    assert stack.hns.nsm_breakers.states()[nsm_name] == "closed"


def test_open_breaker_routes_to_linked_in_copy():
    """FindNSM routes around a dead NSM when a local copy is linked in."""
    testbed = build_testbed(seed=17)
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    local = testbed.make_bind_binding_nsm(testbed.client)
    hns.link_local_nsm(local)
    assert hns.policy is not None
    for _ in range(hns.policy.breaker_threshold):
        hns.report_nsm_outcome(local.name, ok=False)
    assert hns.nsm_breakers.states()[local.name] == "open"
    binding = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert isinstance(binding, LocalNsmBinding)
    assert binding.nsm is local
    assert env.stats.counter("hns.breaker.rerouted").value == 1
