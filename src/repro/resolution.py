"""Fault-tolerant resolution: the :class:`ResolutionPolicy` API.

The paper leans on replicated meta-storage ("a modified BIND") and
specialized caching for availability, but says little about what a
client should *do* when a lookup fails mid-flight.  This module is that
missing layer: one declarative policy object that every stage of the
resolution path (the meta resolver, ``FindNSM``, ``Import``, the HRPC
runtime) consults to decide

- how many times to try a remote call and with what per-call timeout,
- how long to back off between attempts (exponential, with jitter drawn
  from the simulation's named RNG streams so runs stay deterministic),
- whether to cache negative (NXDOMAIN) answers and for how long,
- whether to serve *stale* cached data when the authoritative server is
  unreachable, and for how long past expiry, and
- when to trip a per-target circuit breaker and fail fast instead of
  burning timeouts against a dead server.

The degradation ladder is: fresh cache hit -> retry with backoff ->
stale cache hit -> fail fast (breaker open).  Every rung is observable
in the stats registry (``*.retries``, ``*.stale_hits``,
``*.breaker.*``).

The module sits below :mod:`repro.bind`, :mod:`repro.hrpc`, and
:mod:`repro.core` in the dependency order so all of them can share it.

Its sibling :class:`FastPathPolicy` governs the *performance* side of
the same path: single-flight coalescing of identical in-flight lookups,
refresh-ahead cache renewal, and batched meta lookups.  Both policies
follow the same pattern — a frozen dataclass whose ``.disabled()``
constructor reproduces the paper-faithful prototype behaviour, so
benchmarks can ablate each mechanism independently.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.net.errors import is_transient
from repro.sim.kernel import Environment


@dataclasses.dataclass(frozen=True)
class ResolutionPolicy:
    """Declarative fault-tolerance knobs for the whole resolution path.

    One instance is typically shared by a :class:`~repro.core.metastore.
    MetaStore`, its :class:`~repro.core.hns.HNS`, and the
    :class:`~repro.core.import_call.HrpcImporter` built on top, so the
    layers degrade coherently.
    """

    #: total tries per logical operation (1 = no retry)
    attempts: int = 4
    #: first backoff delay; doubles (by ``backoff_multiplier``) per retry
    backoff_base_ms: float = 50.0
    backoff_multiplier: float = 2.0
    #: ceiling on any single backoff delay
    backoff_max_ms: float = 2_000.0
    #: fraction of the delay randomised away (0 = deterministic ladder);
    #: jittered delays are drawn from a named ``sim.rng`` stream
    jitter: float = 0.5
    #: per-call transport timeout; None defers to the transport default
    call_timeout_ms: typing.Optional[float] = 1_000.0
    #: TTL for cached NXDOMAIN answers (0 disables negative caching)
    negative_ttl_ms: float = 30_000.0
    #: how long past expiry a cached answer may be served when the
    #: authoritative server is unreachable (0 disables serve-stale)
    stale_window_ms: float = 120_000.0
    #: consecutive failures that trip a per-target circuit breaker
    #: (0 disables circuit breaking)
    breaker_threshold: int = 3
    #: how long a tripped breaker stays open before one probe is allowed
    breaker_reset_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_base_ms < 0 or self.backoff_max_ms < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.call_timeout_ms is not None and self.call_timeout_ms <= 0:
            raise ValueError("call timeout must be positive or None")
        if self.negative_ttl_ms < 0:
            raise ValueError("negative-cache TTL must be >= 0")
        if self.stale_window_ms < 0:
            raise ValueError("stale window must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError("breaker threshold must be >= 0")
        if self.breaker_reset_ms < 0:
            raise ValueError("breaker reset delay must be >= 0")

    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "ResolutionPolicy":
        """The pre-fault-tolerance behaviour: one try, no caching of
        failures, no stale serving, no breaker.  Benchmarks use this as
        the ablation baseline."""
        return cls(
            attempts=1,
            call_timeout_ms=None,
            negative_ttl_ms=0.0,
            stale_window_ms=0.0,
            breaker_threshold=0,
        )

    def backoff_ms(self, retry_index: int, rng: random.Random) -> float:
        """Delay before retry ``retry_index`` (0 = first retry).

        Exponential in ``retry_index``, capped at ``backoff_max_ms``,
        with up to ``jitter`` of the delay replaced by a uniform draw so
        synchronised clients do not retry in lockstep.
        """
        if retry_index < 0:
            raise ValueError("retry index must be >= 0")
        delay = min(
            self.backoff_base_ms * (self.backoff_multiplier ** retry_index),
            self.backoff_max_ms,
        )
        if self.jitter and delay > 0:
            floor = delay * (1.0 - self.jitter)
            delay = floor + rng.random() * (delay - floor)
        return delay


#: The policy used throughout the stack unless a caller overrides it.
DEFAULT_RESOLUTION_POLICY = ResolutionPolicy()


@dataclasses.dataclass(frozen=True)
class FastPathPolicy:
    """Performance knobs for the hot resolution path.

    The paper's cold ``FindNSM`` is six strictly sequential data
    mappings, "each of which involves a remote call in the case of a
    cache miss", and every concurrent miss on a host fires its own
    duplicate remote call.  This policy enables the three mechanisms
    that fix that under load:

    - **single-flight coalescing** (``coalesce``): concurrent identical
      ``(owner, rtype)`` lookups on one host share one in-flight remote
      call; followers park on the leader's event and pay only the
      cache-copy cost.  A leader failure propagates the one classified
      error to every follower.
    - **refresh-ahead renewal** (``refresh_ahead_fraction``): a probe
      that hits within the last ``fraction`` of an entry's TTL spawns a
      background renewal, so hot keys never go cold and tail latency
      stays at cache-hit cost.  Renewal failures are silent — the entry
      simply ages out and the :class:`ResolutionPolicy` serve-stale
      ladder takes over.
    - **batched meta lookups** (``batch_meta_lookups``): ``FindNSM``
      fetches mappings 1–3 as one chained multi-question query and the
      NSM-host address as one more — two round trips instead of six.

    ``None`` anywhere a :class:`FastPathPolicy` is accepted means the
    same as :meth:`disabled`: the paper-faithful sequential behaviour.
    """

    #: share one remote call among concurrent identical lookups
    coalesce: bool = True
    #: a hit this close to expiry (as a fraction of the entry's TTL)
    #: triggers a background renewal; 0 disables refresh-ahead
    refresh_ahead_fraction: float = 0.2
    #: resolve FindNSM's meta mappings with chained batch queries
    batch_meta_lookups: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.refresh_ahead_fraction <= 1.0:
            raise ValueError("refresh-ahead fraction must be in [0, 1]")

    @classmethod
    def disabled(cls) -> "FastPathPolicy":
        """The paper's six-sequential-mapping behaviour: no coalescing,
        no refresh-ahead, no batching.  The ablation baseline."""
        return cls(
            coalesce=False,
            refresh_ahead_fraction=0.0,
            batch_meta_lookups=False,
        )


#: Everything on: what the fast-path benchmarks opt into.  The stack
#: default stays ``None`` (off) so the paper-reproduction numbers hold.
DEFAULT_FAST_PATH_POLICY = FastPathPolicy()


@dataclasses.dataclass(frozen=True)
class ReplicaPolicy:
    """Replica-aware meta reads: how a resolver *exploits* replication.

    The paper replicates the meta store "for the usual reasons of
    performance, availability, and scalability" but the prototype client
    walks its replicas as a static ordered failover list: the primary is
    tried first, every time, and a dead or slow replica is only
    discovered by burning a full timeout against it.  This policy gates
    the three mechanisms that make reads replica-aware:

    - **adaptive replica selection** (``adaptive``): per-endpoint EWMA
      latency and in-flight counters; the first replica tried is the
      better of two sampled at random (power-of-two-choices), the rest
      are ordered by score.  Endpoints whose per-replica circuit breaker
      is open are skipped up front (``skip_open_breakers``) instead of
      timed out in order.
    - **hedged queries** (``hedge_quantile``): once a lookup has been
      outstanding for the given quantile of the observed per-replica
      latency distribution, the same question is re-issued to the
      next-best replica; the first answer wins and the loser's result is
      discarded.  Hedging composes with single-flight coalescing (only
      the coalescing leader ever hedges) and with the
      :class:`ResolutionPolicy` retry ladder (each retry round hedges
      independently).
    - **incremental zone transfer** (``ixfr``): secondaries and
      cache preloads request only the dynamic updates past their SOA
      serial from the primary's bounded per-zone journal, falling back
      to a full AXFR when the journal has been truncated.  Steady-state
      refresh cost is then proportional to churn, not zone size.

    ``None`` anywhere a :class:`ReplicaPolicy` is accepted means the
    same as :meth:`disabled`: the prototype's static
    primary-then-secondaries failover and full-transfer refresh.
    """

    #: EWMA/in-flight scoring with power-of-two-choices selection;
    #: False preserves the static ``[primary] + secondaries`` order
    adaptive: bool = True
    #: weight of the newest latency sample in the per-endpoint EWMA
    ewma_alpha: float = 0.3
    #: score penalty per outstanding request on an endpoint, so load
    #: spreads even while latency estimates are equal
    inflight_penalty_ms: float = 25.0
    #: hedge once a lookup is outstanding past this quantile of the
    #: recent successful-latency distribution (0 disables hedging)
    hedge_quantile: float = 0.95
    #: successful samples required before hedging arms
    hedge_min_samples: int = 8
    #: clamp on the computed hedge delay
    hedge_min_delay_ms: float = 1.0
    hedge_max_delay_ms: float = 1_000.0
    #: extra replicas a single exchange may hedge onto
    max_hedges: int = 1
    #: skip endpoints whose per-replica breaker is open during selection
    skip_open_breakers: bool = True
    #: consecutive failures that trip a *per-replica* breaker (0
    #: disables the per-replica breakers entirely)
    breaker_threshold: int = 3
    #: how long a tripped replica stays skipped before one probe
    breaker_reset_ms: float = 10_000.0
    #: request serial-delta zone transfers (IXFR) for secondary refresh
    #: and cache re-preload, with automatic AXFR fallback
    ixfr: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("EWMA alpha must be in (0, 1]")
        if self.inflight_penalty_ms < 0:
            raise ValueError("in-flight penalty must be >= 0")
        if not 0.0 <= self.hedge_quantile < 1.0:
            raise ValueError("hedge quantile must be in [0, 1)")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge min samples must be >= 1")
        if self.hedge_min_delay_ms < 0 or self.hedge_max_delay_ms < 0:
            raise ValueError("hedge delays must be >= 0")
        if self.hedge_min_delay_ms > self.hedge_max_delay_ms:
            raise ValueError("hedge min delay must be <= max delay")
        if self.max_hedges < 0:
            raise ValueError("max hedges must be >= 0")
        if self.breaker_threshold < 0:
            raise ValueError("breaker threshold must be >= 0")
        if self.breaker_reset_ms < 0:
            raise ValueError("breaker reset delay must be >= 0")

    # ------------------------------------------------------------------
    @property
    def hedging(self) -> bool:
        """Whether hedged queries are enabled at all."""
        return self.hedge_quantile > 0.0 and self.max_hedges > 0

    @property
    def scheduling(self) -> bool:
        """Whether the replica scheduler is in play on the read path.

        When False (and ``ixfr`` aside), the resolver runs the exact
        static-failover code path the prototype uses.
        """
        return self.adaptive or self.hedging or self.skip_open_breakers

    @classmethod
    def disabled(cls) -> "ReplicaPolicy":
        """The prototype behaviour: static primary-then-secondaries
        failover, no hedging, no per-replica breakers, full-transfer
        refresh.  The ablation baseline."""
        return cls(
            adaptive=False,
            hedge_quantile=0.0,
            max_hedges=0,
            skip_open_breakers=False,
            breaker_threshold=0,
            ixfr=False,
        )


#: Everything on: what the replica-scheduling benchmarks opt into.  The
#: stack default stays ``None`` (off) so existing numbers hold.
DEFAULT_REPLICA_POLICY = ReplicaPolicy()


@dataclasses.dataclass(frozen=True)
class UpdatePolicy:
    """Write-path knobs: batched dynamic update and cache invalidation.

    The paper's prototype writes one record per round trip and lets
    caches find out about changes only when their TTL runs out — yet
    "evolving systems" (system merges, NSM rebinding waves, mass host
    renumbering) is the paper's core story.  This policy gates the
    production write path:

    - **batched updates** (``batch``): registrations issued within the
      ``batch_window_ms`` coalescing window on one host travel as a
      single ``UpdateBatchRequest`` datagram, with last-writer-wins
      merging of same-owner operations.  An NSM rebinding wave becomes
      one round trip instead of one per mapping.
    - **lease-based invalidation** (``invalidation="lease"``):
      registrations carry a lease the client must keep renewing; when
      the renewals stop, the primary retracts the binding on expiry and
      caps advertised TTLs to the lease remainder so caches never hold
      a binding longer than its owner is known to be alive.
    - **NOTIFY-based invalidation** (``invalidation="notify"``): the
      primary pushes SOA-serial bumps to secondaries and subscribed
      resolvers, which pull just the deltas through the IXFR journal
      and install them straight into their caches.

    ``None`` anywhere an :class:`UpdatePolicy` is accepted means the
    same as :meth:`disabled`: the prototype's one-record-at-a-time,
    TTL-only behaviour.
    """

    #: coalesce concurrent registrations into one batched round trip
    batch: bool = True
    #: operations per batch datagram (wire-format cap: 64)
    max_batch_ops: int = 64
    #: how long the first writer holds the batch open for followers
    batch_window_ms: float = 5.0
    #: how caches learn about changes: "ttl" (wait for expiry),
    #: "lease" (bindings lapse with their owner), or "notify"
    #: (primary pushes serial bumps; subscribers pull IXFR deltas)
    invalidation: str = "ttl"
    #: lease duration granted with each registration (lease mode)
    lease_ms: float = 10_000.0
    #: renew when this fraction of the lease has elapsed
    lease_renew_fraction: float = 0.5
    #: debounce before a serial bump fans out to subscribers
    notify_delay_ms: float = 1.0

    def __post_init__(self) -> None:
        if not 1 <= self.max_batch_ops <= 64:
            raise ValueError("max batch ops must be in [1, 64]")
        if self.batch_window_ms < 0:
            raise ValueError("batch window must be >= 0")
        if self.invalidation not in ("ttl", "lease", "notify"):
            raise ValueError("invalidation must be ttl, lease, or notify")
        if self.lease_ms <= 0:
            raise ValueError("lease duration must be positive")
        if not 0.0 < self.lease_renew_fraction < 1.0:
            raise ValueError("lease renew fraction must be in (0, 1)")
        if self.notify_delay_ms < 0:
            raise ValueError("notify delay must be >= 0")

    # ------------------------------------------------------------------
    @property
    def leases(self) -> bool:
        """Whether registrations carry (and must renew) leases."""
        return self.invalidation == "lease"

    @property
    def notify(self) -> bool:
        """Whether the primary pushes serial bumps to subscribers."""
        return self.invalidation == "notify"

    @property
    def active(self) -> bool:
        """Whether any part of the pipeline diverges from the prototype.

        When False, registration runs the exact one-record-at-a-time
        code path the prototype uses (bit-identical traces).
        """
        return self.batch or self.invalidation != "ttl"

    @classmethod
    def disabled(cls) -> "UpdatePolicy":
        """The prototype behaviour: one record per round trip, caches
        invalidated only by TTL expiry.  The ablation baseline."""
        return cls(batch=False, invalidation="ttl")


#: Everything on: what the update-path benchmarks opt into.  The stack
#: default stays ``None`` (off) so the paper-reproduction numbers hold.
DEFAULT_UPDATE_POLICY = UpdatePolicy()


@dataclasses.dataclass(frozen=True)
class DiscoveryPolicy:
    """Ad-hoc discovery knobs: beacons, liveness, and re-query fallback.

    The broadcast tier (:mod:`repro.broadcast`) locates a name with one
    multicast question per lookup — every query taxes every host on the
    segment.  The discovery tier (:mod:`repro.discovery`) amortizes
    that: each host periodically broadcasts a signed presence beacon
    (name set + address + incarnation), every listener folds beacons
    into a passive membership view, and lookups become local table
    probes.  This policy gates the mechanisms that make the view safe
    to trust:

    - **beaconing** (``beacon_period_ms`` / ``beacon_jitter``): the
      advertisement cadence, jittered per host so a segment of peers
      never beats in lockstep.
    - **watchdog liveness** (``watchdog_multiplier``): an entry whose
      owner has been silent for ``period x multiplier`` is evicted —
      liveness-driven eviction racing (and normally beating) plain TTL
      expiry.  0 disables the watchdog: entries die by TTL only.
    - **suspect-before-evict probing** (``probe_before_evict``): a
      lapsed entry gets one direct unicast probe before eviction, so a
      host whose beacons were merely lost is refreshed, not dropped.
    - **re-query on miss** (``requery_on_miss``): a lookup that misses
      the membership view falls back to a one-shot broadcast
      :class:`~repro.broadcast.NameQuery` before failing.

    ``None`` anywhere a :class:`DiscoveryPolicy` is accepted means the
    same as :meth:`disabled`: no beacons, no membership view — every
    lookup is the one-shot broadcast locator the paper rejects.
    """

    #: run the beacon/watchdog machinery at all; False degrades the
    #: discovery NSM to the one-shot broadcast locator
    enabled: bool = True
    #: nominal gap between presence beacons
    beacon_period_ms: float = 1_000.0
    #: fraction of the period randomised away (named RNG stream per
    #: host), so peers never beacon in lockstep
    beacon_jitter: float = 0.2
    #: TTL stamped on membership entries — the slow eviction path the
    #: watchdog races
    entry_ttl_ms: float = 30_000.0
    #: watchdog deadline = beacon period x this; 0 disables
    #: liveness-driven eviction (entries die by TTL only)
    watchdog_multiplier: float = 3.0
    #: probe a lapsed entry once (direct unicast) before evicting it
    probe_before_evict: bool = True
    #: how long the watchdog waits for a probe reply
    probe_timeout_ms: float = 250.0
    #: fall back to a one-shot broadcast NameQuery on a view miss
    requery_on_miss: bool = True
    #: reply window for the broadcast fallback
    broadcast_wait_ms: float = 60.0

    def __post_init__(self) -> None:
        if self.beacon_period_ms <= 0:
            raise ValueError("beacon period must be positive")
        if not 0.0 <= self.beacon_jitter < 1.0:
            raise ValueError("beacon jitter must be in [0, 1)")
        if self.entry_ttl_ms <= 0:
            raise ValueError("entry TTL must be positive")
        if self.watchdog_multiplier < 0:
            raise ValueError("watchdog multiplier must be >= 0")
        if self.probe_timeout_ms <= 0:
            raise ValueError("probe timeout must be positive")
        if self.broadcast_wait_ms <= 0:
            raise ValueError("broadcast wait window must be positive")

    # ------------------------------------------------------------------
    @property
    def liveness(self) -> bool:
        """Whether watchdog (liveness-driven) eviction is armed."""
        return self.enabled and self.watchdog_multiplier > 0

    def watchdog_deadline_ms(self) -> float:
        """How long after the last beacon an entry is considered live."""
        return self.beacon_period_ms * self.watchdog_multiplier

    @classmethod
    def disabled(cls) -> "DiscoveryPolicy":
        """No beacons, no membership view: every lookup is the existing
        one-shot broadcast locator.  The ablation baseline."""
        return cls(
            enabled=False,
            watchdog_multiplier=0.0,
            probe_before_evict=False,
            requery_on_miss=True,
        )


#: Everything on: what the discovery scenarios and benchmarks opt into.
DEFAULT_DISCOVERY_POLICY = DiscoveryPolicy()


@dataclasses.dataclass(frozen=True)
class PolicySet:
    """One frozen bundle of the resolution-path policies.

    Five PRs grew four independent policy objects, and every layer
    (:class:`~repro.core.metastore.MetaStore`,
    :class:`~repro.core.hns.HNS`, ``BindResolver``) took them as four
    separate keyword arguments with subtly different ``None`` fallback
    rules.  A :class:`PolicySet` is the one object callers pass instead;
    ``None`` in any slot uniformly means that mechanism's
    ``.disabled()`` prototype behaviour.  The ``discovery`` slot (PR 10)
    configures the ad-hoc beacon tier the same way.
    """

    resolution: typing.Optional[ResolutionPolicy] = None
    fast_path: typing.Optional[FastPathPolicy] = None
    replica: typing.Optional[ReplicaPolicy] = None
    update: typing.Optional[UpdatePolicy] = None
    discovery: typing.Optional[DiscoveryPolicy] = None

    @classmethod
    def default(cls) -> "PolicySet":
        """What the stack runs with when nothing is specified: fault
        tolerance on, the opt-in mechanisms (fast path, replica
        scheduling, write pipeline, discovery) off — matching the
        historical per-kwarg defaults."""
        return cls(resolution=DEFAULT_RESOLUTION_POLICY)

    @classmethod
    def paper_prototype(cls) -> "PolicySet":
        """Every mechanism at its ``.disabled()`` baseline: the paper's
        prototype, end to end.  Ablation benchmarks start here."""
        return cls(
            resolution=ResolutionPolicy.disabled(),
            fast_path=FastPathPolicy.disabled(),
            replica=ReplicaPolicy.disabled(),
            update=UpdatePolicy.disabled(),
            discovery=DiscoveryPolicy.disabled(),
        )


def retrying(
    env: Environment,
    policy: typing.Optional[ResolutionPolicy],
    attempt: typing.Callable[[int], typing.Generator],
    classify: typing.Callable[[BaseException], bool] = is_transient,
    rng_stream: str = "resolution.backoff",
    stat: str = "",
) -> typing.Generator:
    """Drive ``attempt(i)`` up to ``policy.attempts`` times.

    ``attempt`` must return a *fresh* generator per call (generators are
    single-use).  Only exceptions ``classify`` deems transient are
    retried; everything else — and the final exhausted attempt — raises
    to the caller.  Backoff delays are simulated time, jittered from the
    ``rng_stream`` named stream.  ``stat``, if given, names a counter
    incremented once per retry.
    """
    attempts = policy.attempts if policy is not None else 1
    for i in range(attempts):
        try:
            with env.obs.span("resolution.attempt", op=rng_stream, attempt=i):
                result = yield from attempt(i)
            return result
        except Exception as err:  # noqa: BLE001 - classified below
            if i == attempts - 1 or not classify(err):
                raise
            if stat:
                env.stats.counter(stat).increment()
            assert policy is not None
            delay = policy.backoff_ms(i, env.rng.stream(rng_stream))
            if delay > 0:
                yield env.timeout(delay)
    raise AssertionError("unreachable")  # pragma: no cover


class CircuitOpen(Exception):
    """A call was refused because the target's circuit breaker is open.

    Raised *before* any network traffic: failing fast is the point.
    """

    def __init__(self, target: str, retry_at_ms: float):
        super().__init__(
            f"circuit breaker for {target!r} is open (probe at "
            f"t={retry_at_ms:.0f} ms)"
        )
        self.target = target
        self.retry_at_ms = retry_at_ms


class CircuitBreaker:
    """Consecutive-failure circuit breaker over simulated time.

    Closed until ``threshold`` consecutive recorded failures, then open
    for ``reset_ms``; after that, half-open: one probe call is allowed
    through, and its outcome closes or re-opens the circuit.  A
    ``threshold`` of 0 disables the breaker entirely (always closed).
    """

    def __init__(
        self,
        env: Environment,
        target: str,
        threshold: int,
        reset_ms: float,
    ):
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.env = env
        self.target = target
        self.threshold = threshold
        self.reset_ms = reset_ms
        self.consecutive_failures = 0
        self.opened_at: typing.Optional[float] = None
        self._probe_outstanding = False

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        if self.opened_at is None:
            return "closed"
        if self.env.now >= self.opened_at + self.reset_ms:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a call proceed right now?

        In the half-open state only the first caller gets through (the
        probe); concurrent callers are refused until its outcome lands.
        """
        if self.threshold == 0:
            return True
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probe_outstanding:
            self._probe_outstanding = True
            return True
        return False

    def check(self) -> None:
        """Raise :class:`CircuitOpen` unless :meth:`allow` passes."""
        if not self.allow():
            assert self.opened_at is not None
            raise CircuitOpen(self.target, self.opened_at + self.reset_ms)

    def record_success(self) -> None:
        """A call to the target completed: close the circuit."""
        self.consecutive_failures = 0
        self.opened_at = None
        self._probe_outstanding = False

    def record_failure(self) -> None:
        """A call to the target failed: maybe trip the circuit."""
        self._probe_outstanding = False
        self.consecutive_failures += 1
        if self.threshold and self.consecutive_failures >= self.threshold:
            self.opened_at = self.env.now


class CircuitBreakerRegistry:
    """Lazily creates one :class:`CircuitBreaker` per target name."""

    def __init__(self, env: Environment, policy: ResolutionPolicy):
        self.env = env
        self.policy = policy
        self._breakers: typing.Dict[str, CircuitBreaker] = {}

    def breaker(self, target: str) -> CircuitBreaker:
        """The breaker guarding ``target``, created on first use."""
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(
                self.env,
                target,
                self.policy.breaker_threshold,
                self.policy.breaker_reset_ms,
            )
            self._breakers[target] = breaker
        return breaker

    def states(self) -> typing.Dict[str, str]:
        """target -> breaker state, for observability and tests."""
        return {name: b.state for name, b in self._breakers.items()}
