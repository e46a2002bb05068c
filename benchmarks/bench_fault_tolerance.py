"""Availability of the resolution path under faults.

The :class:`~repro.resolution.ResolutionPolicy` layer (retry with
jittered backoff, negative caching, serve-stale, circuit breakers) is
an extension beyond the paper's prototype; these benches measure what
it buys:

1. a wire-drop sweep — FindNSM availability and p50/p99 latency as the
   segment loses 0-20% of datagrams, with the default policy vs the
   single-pass prototype behaviour (``ResolutionPolicy.disabled()``);
2. a meta-server crash — resolution availability during an outage
   shorter than the stale window, with and without serve-stale, plus
   recovery once the server restarts.

Both run the resolution path over a *raw* datagram transport
(``retries=0``, no link-layer retransmission) so the policy layer is
the only fault tolerance in play — the ablation is not masked by
transport-level retries.
"""

import dataclasses

import pytest

from repro.core.hns import HNS
from repro.core.metastore import MetaStore
from repro.core.nsms import BindHostAddressNSM
from repro.harness import DEFAULT_CALIBRATION
from repro.harness.grids import idle, percentile
from repro.net import DatagramTransport, TransportTimeout
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    PolicySet,
    ResolutionPolicy,
)
from repro.workloads import build_testbed
from repro.workloads.scenarios import BIND_NS

from conftest import FIJI, run, write_bench_results


def _ms(value):
    """A latency cell for the printed tables (``None``: no samples)."""
    return "     --" if value is None else f"{value:7.1f}"


def raw_wire_hns(testbed, policy):
    """An HNS whose whole resolution path runs over a raw datagram
    transport: no retransmission below the policy layer.

    Returns (hns, hostaddr_nsm) so callers can flush both caches.
    """
    raw = DatagramTransport(testbed.internet, name="rawudp", retries=0)
    metastore = MetaStore(
        testbed.client,
        raw,
        testbed.meta_endpoint,
        calibration=testbed.calibration,
        policies=PolicySet(resolution=policy),
    )
    hns = HNS(metastore, calibration=testbed.calibration)
    hostaddr = BindHostAddressNSM(
        testbed.client,
        BIND_NS,
        raw,
        testbed.public_endpoint,
        calibration=testbed.calibration,
    )
    hns.link_host_address_nsm(BIND_NS, hostaddr)
    return hns, hostaddr


def attempt_find(env, hns):
    """One FindNSM; returns (ok, elapsed_ms)."""

    def one():
        try:
            yield from hns.find_nsm(FIJI, "HRPCBinding")
            return True
        except TransportTimeout:
            return False

    start = env.now
    ok = run(env, one())
    return ok, env.now - start


# ----------------------------------------------------------------------
# 1. Wire-drop sweep
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="fault_tolerance")
def test_drop_probability_sweep(benchmark):
    """Cold FindNSM needs six datagram exchanges; without retries the
    chance that all six survive collapses as the wire degrades, while
    the default policy confines the damage to the latency tail."""
    TRIALS = 100
    DROPS = (0.0, 0.05, 0.10, 0.20)
    CONFIGS = (
        ("default policy", DEFAULT_RESOLUTION_POLICY),
        ("no policy", ResolutionPolicy.disabled()),
    )

    def measure():
        table = {}
        for label, policy in CONFIGS:
            for drop in DROPS:
                testbed = build_testbed(seed=141)
                env = testbed.env
                hns, hostaddr = raw_wire_hns(testbed, policy)
                testbed.internet.segments[0].drop_probability = drop
                latencies = []
                failures = 0
                for _ in range(TRIALS):
                    hns.metastore.cache.clear()
                    assert hostaddr.cache is not None
                    hostaddr.cache.clear()
                    ok, elapsed = attempt_find(env, hns)
                    if ok:
                        latencies.append(elapsed)
                    else:
                        failures += 1
                table[(label, drop)] = (
                    1.0 - failures / TRIALS,
                    percentile(latencies, 50),
                    percentile(latencies, 99),
                    env.stats.counter("bind.meta@client.retries").value
                    + env.stats.counter("hns.find_nsm.retries").value,
                )
        return table

    table = benchmark(measure)
    write_bench_results("fault_tolerance", "drop_probability_sweep", table)
    print(f"\ncold FindNSM over a lossy wire ({TRIALS} trials/cell):")
    for label, _ in CONFIGS:
        for drop in DROPS:
            avail, p50, p99, retries = table[(label, drop)]
            print(
                f"  {label:<15} drop={drop:4.2f}: availability {avail:6.1%}, "
                f"p50 {_ms(p50)} ms, p99 {_ms(p99)} ms, retries {retries}"
            )
    # Acceptance: >=99% success at 10% drop with the default policy...
    assert table[("default policy", 0.10)][0] >= 0.99
    # ...while the prototype's single-pass behaviour loses roughly one
    # cold lookup in two (1 - 0.9^6).
    assert table[("no policy", 0.10)][0] <= 0.75
    assert table[("no policy", 0.20)][0] < table[("no policy", 0.10)][0]
    # A clean wire is unaffected either way, and the policy's retry cost
    # lives in the tail: p99 at 10% drop absorbs at least one timeout.
    assert table[("default policy", 0.0)][0] == 1.0
    assert table[("no policy", 0.0)][0] == 1.0
    assert (
        table[("default policy", 0.10)][2]
        > table[("default policy", 0.0)][1] + 400
    )


# ----------------------------------------------------------------------
# 2. Meta-server crash: serve-stale
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="fault_tolerance")
def test_meta_outage_serve_stale(benchmark):
    """With the meta server down and every meta TTL expired, serve-stale
    keeps FindNSM answering (degraded, from expired entries) for the
    length of the stale window; without it every lookup fails until the
    server returns."""
    PROBES = 4
    # Short meta TTL so the outage outlives every fresh entry; trimmed
    # retry budget so each degraded lookup fails over to stale quickly.
    CALIBRATION = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    CONFIGS = (
        (
            "serve-stale",
            dataclasses.replace(
                DEFAULT_RESOLUTION_POLICY, attempts=2, call_timeout_ms=500.0
            ),
        ),
        ("no policy", ResolutionPolicy.disabled()),
    )

    def measure():
        out = {}
        for label, policy in CONFIGS:
            testbed = build_testbed(seed=142, calibration=CALIBRATION)
            env = testbed.env
            hns, _hostaddr = raw_wire_hns(testbed, policy)
            ok, _ = attempt_find(env, hns)  # warm every mapping
            assert ok
            testbed.meta_host.crash()
            idle(env, 6_000)  # past the meta TTL, inside the stale window
            successes = 0
            latencies = []
            for _ in range(PROBES):
                ok, elapsed = attempt_find(env, hns)
                if ok:
                    successes += 1
                    latencies.append(elapsed)
                idle(env, 2_000)
            stale_hits = env.stats.counter("bind.meta@client.stale_hits").value
            testbed.meta_host.restart()
            recovered, recovery_ms = attempt_find(env, hns)
            out[label] = {
                "availability": successes / PROBES,
                "stale_hits": stale_hits,
                "degraded_ms": percentile(latencies, 50),
                "recovered": recovered,
                "recovery_ms": recovery_ms,
            }
        return out

    out = benchmark(measure)
    write_bench_results("fault_tolerance", "meta_outage_serve_stale", out)
    print(f"\nmeta-server outage ({PROBES} FindNSMs while down, TTLs expired):")
    for label, r in out.items():
        degraded = (
            f"{r['degraded_ms']:7.1f} ms degraded"
            if r["availability"]
            else "       --        "
        )
        print(
            f"  {label:<12} availability {r['availability']:6.1%}, "
            f"stale hits {r['stale_hits']:3d}, {degraded}, "
            f"recovery {r['recovery_ms']:6.1f} ms"
        )
    # Acceptance: serve-stale masks an outage shorter than the stale
    # window completely; the prototype behaviour loses every lookup.
    assert out["serve-stale"]["availability"] == 1.0
    assert out["no policy"]["availability"] == 0.0
    # Each masked FindNSM re-serves its five expired meta mappings.
    assert out["serve-stale"]["stale_hits"] == 5 * PROBES
    assert out["no policy"]["stale_hits"] == 0
    # Both configurations reconverge once the server is back.
    assert out["serve-stale"]["recovered"] and out["no policy"]["recovered"]
