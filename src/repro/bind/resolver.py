"""The BIND client resolver.

Two client styles share this class:

- the **conventional resolver** using the standard (hand-coded) BIND
  library routines — this is what a 27 ms name-to-address lookup means;
- the **HRPC interface to BIND** the HNS built, whose request/response
  marshalling comes from the stub compiler (``marshalling="generated"``)
  and which pays an extra per-call Raw-HRPC control overhead.

Either style can run with no cache, a marshalled cache, or a
demarshalled cache — the three columns of Table 3.2 — and can preload
its cache with a zone transfer, the mechanism the paper borrowed for
HNS cache preloading.
"""

from __future__ import annotations

import typing

from repro.bind.cache import CacheEntry, CacheFormat, ResolverCache
from repro.bind.errors import BindError, NameNotFound, UpdateRefused, ZoneNotFound
from repro.bind.messages import (
    BATCH_QUERY_REQUEST_IDL,
    BATCH_QUERY_RESPONSE_IDL,
    QUERY_REQUEST_IDL,
    QUERY_RESPONSE_IDL,
    STATUS_NXDOMAIN,
    STATUS_OK,
    STATUS_REFUSED,
    BatchQueryRequest,
    BatchQueryResponse,
    BatchQuestion,
    IxfrRequest,
    IxfrResponse,
    NotifyRequest,
    NotifySubscribeRequest,
    NotifySubscribeResponse,
    QueryRequest,
    QueryResponse,
    UpdateBatchRequest,
    UpdateBatchResponse,
    UpdateMode,
    UpdateOp,
    UpdateRequest,
    UpdateResponse,
    XferRequest,
    XferResponse,
)
from repro.bind.names import DomainName
from repro.bind.replica import ReplicaScheduler, ReplicaState
from repro.bind.rr import ResourceRecord, RRType
from repro.bind.zone import ZoneDelta
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net.addresses import Endpoint
from repro.net.errors import NetworkError, is_transient
from repro.net.host import Host, Service
from repro.net.transport import Transport
from repro.obs.span import NULL_SPAN
from repro.resolution import PolicySet, retrying
from repro.serial import HandcodedMarshaller, IdlType, StubCompiler
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import SpanLike


#: sentinel payload marking a cached NXDOMAIN answer
_NEGATIVE = object()


class BindResolver:
    """Client-side lookup/update/transfer against one BIND server."""

    def __init__(
        self,
        host: Host,
        transport: Transport,
        server: Endpoint,
        marshalling: str = "handcoded",
        cache: typing.Optional[ResolverCache] = None,
        per_call_overhead_ms: float = 0.0,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: str = "resolver",
        secondaries: typing.Sequence[Endpoint] = (),
        negative_ttl_ms: float = 0.0,
        policies: typing.Optional[PolicySet] = None,
    ):
        if marshalling not in ("handcoded", "generated"):
            raise ValueError(f"unknown marshalling style {marshalling!r}")
        if negative_ttl_ms < 0:
            raise ValueError("negative-cache TTL must be >= 0")
        # ``None`` in any PolicySet slot means "that mechanism at its
        # prototype .disabled() behaviour"; no bundle means all of them.
        if policies is None:
            policies = PolicySet()
        self.policies = policies
        policy = policies.resolution
        replica_policy = policies.replica
        self.host = host
        self.env = host.env
        self.transport = transport
        self.server = server
        #: replica servers tried, in order, when the primary is
        #: unreachable (reads only; updates always go to the primary)
        self.secondaries = list(secondaries)
        self.cache = cache
        self.per_call_overhead_ms = per_call_overhead_ms
        self.calibration = calibration
        self.name = name
        self.marshalling = marshalling
        #: fault-tolerance knobs: None reproduces the prototype's
        #: single-pass behaviour (one try per replica, no serve-stale)
        self.policy = policy
        #: >0 enables caching of NXDOMAIN answers for that many ms — an
        #: extension of the TTL scheme that spares repeated misses for
        #: absent names (disabled by default, as in the prototype).  An
        #: explicit value wins over the policy's.
        if negative_ttl_ms <= 0 and policy is not None:
            negative_ttl_ms = policy.negative_ttl_ms
        self.negative_ttl_ms = negative_ttl_ms
        #: performance knobs (coalescing, refresh-ahead, batching);
        #: None keeps the paper-faithful one-call-per-miss behaviour
        self.fast_path = policies.fast_path
        #: replica-aware read knobs (adaptive selection, hedging, IXFR);
        #: None keeps the static primary-then-secondaries failover
        self.replica_policy = replica_policy
        self._scheduler: typing.Optional[ReplicaScheduler] = None
        if replica_policy is not None and replica_policy.scheduling:
            self._scheduler = ReplicaScheduler(
                self.env,
                [server] + self.secondaries,
                replica_policy,
                name=self.name,
            )
        #: origin -> serial of the last cache preload, for IXFR re-preload
        self._preload_serials: typing.Dict[str, int] = {}
        #: where the primary's NOTIFY pushes land (bound on first use)
        self._notify_endpoint: typing.Optional[Endpoint] = None
        #: origin -> the serial our cache state reflects (IXFR baseline)
        self._notify_serials: typing.Dict[str, int] = {}
        #: origins with a NOTIFY-triggered delta pull in flight
        self._notify_inflight: typing.Set[str] = set()
        #: in-flight single-flight fetches: cache key -> leader's event,
        #: carrying ``(result, record_count)`` when it resolves
        self._flights: typing.Dict[object, Event] = {}
        #: hand-coded marshallers are stateless: one per IDL type
        self._marshallers: typing.Dict[int, HandcodedMarshaller] = {}
        if marshalling == "generated":
            self._response_m = StubCompiler().marshaller(QUERY_RESPONSE_IDL)
        else:
            self._response_m = self._marshaller(QUERY_RESPONSE_IDL)
        # Batch-response marshaller, built on first batched lookup.
        self._batch_response_m: typing.Optional[object] = None

    def _marshaller(self, idl_type: IdlType) -> HandcodedMarshaller:
        key = id(idl_type)
        if key not in self._marshallers:
            self._marshallers[key] = HandcodedMarshaller(idl_type)
        return self._marshallers[key]

    # ------------------------------------------------------------------
    def lookup(
        self,
        name: typing.Union[str, DomainName],
        rtype: RRType = RRType.A,
    ) -> typing.Generator:
        """Resolve (name, rtype); returns a list of ResourceRecords.

        Raises :class:`NameNotFound` on NXDOMAIN.  This is a process
        generator: drive it with ``yield from`` inside a simulation.
        """
        name = DomainName(name)
        key = (str(name), rtype.value)
        with self.env.obs.span(
            "bind.lookup",
            resolver=self.name,
            owner=str(name),
            rtype=rtype.name,
        ) as span:
            # --- cache probe ----------------------------------------------
            if self.cache is not None:
                records = yield from self._probe_cache(key, name, rtype, span)
                if records is not None:
                    span.set(outcome="hit")
                    return records
            # --- single-flight coalescing ---------------------------------
            fast = self.fast_path
            if fast is not None and fast.coalesce:
                flight = self._flights.get(key)
                if flight is not None:
                    span.set(outcome="coalesced")
                    records = yield from self._follow(flight)
                    return records
                span.set(outcome="miss", role="leader")
                records = yield from self._lead(
                    key, self._fetch_counted(name, rtype, key)
                )
                return records
            span.set(outcome="miss")
            records = yield from self._fetch(name, rtype, key)
            return records

    def _probe_cache(
        self,
        key: object,
        name: DomainName,
        rtype: RRType,
        span: "SpanLike" = NULL_SPAN,
    ) -> typing.Generator:
        """Cache-only resolution: records on a fresh hit, else None.

        Charges the probe and hit costs, honours negative entries
        (raising :class:`NameNotFound`), and spawns a refresh-ahead
        renewal when the hit lands inside the policy's refresh window.
        """
        env = self.env
        assert self.cache is not None
        entry, probe_cost = self.cache.probe(key)
        yield from self.host.cpu.compute(probe_cost)
        if entry is None:
            return None
        if entry.payload is _NEGATIVE:
            span.set(outcome="negative")
            env.stats.counter(f"bind.{self.name}.negative_hits").increment()
            raise NameNotFound(f"{name} {rtype} (negatively cached)")
        records = yield from self._decode_hit(entry)
        env.stats.counter(f"bind.{self.name}.cache_hits").increment()
        self._maybe_refresh(key, name, rtype, entry)
        return records

    def _decode_hit(self, entry: CacheEntry) -> typing.Generator:
        """Materialise a cached entry's records, charging the hit cost
        (plus this client's demarshal cost for a marshalled cache)."""
        cache = self.cache
        assert cache is not None
        if cache.format is CacheFormat.MARSHALLED:
            value, demarshal_cost = self._response_m.decode(
                typing.cast(bytes, entry.payload)
            )
            records = QueryResponse.from_idl(value).records
            yield from self.host.cpu.compute(
                cache.hit_cost(entry, demarshal_cost)
            )
        else:
            records = list(typing.cast(list, entry.payload))
            yield from self.host.cpu.compute(cache.hit_cost(entry))
        return records

    def cached_records(
        self,
        name: typing.Union[str, DomainName],
        rtype: RRType = RRType.A,
    ) -> typing.Generator:
        """Public cache-only probe: records, or None on a miss.

        Same costs, counters, negative handling, and refresh-ahead
        side effects as the probe inside :meth:`lookup` — the batched
        FindNSM path uses this to decide which mappings it still needs.
        """
        if self.cache is None:
            return None
        name = DomainName(name)
        key = (str(name), rtype.value)
        records = yield from self._probe_cache(key, name, rtype)
        return records

    # --- single-flight machinery --------------------------------------
    def _lead(self, key: object, work: typing.Generator) -> typing.Generator:
        """Run ``work`` as the single-flight leader for ``key``.

        ``work`` must return ``(result, record_count)``.  Followers that
        joined while it ran receive the result (or, defused, the same
        exception — one classified error propagates to everyone).
        """
        event = self.env.event()
        # A failure must reach followers but never the kernel: there may
        # legitimately be nobody parked on the flight.
        event.defuse()
        self._flights[key] = event
        try:
            result, record_count = yield from work
        except BaseException as err:
            self._flights.pop(key, None)
            event.fail(err)
            raise
        self._flights.pop(key, None)
        event.succeed((result, record_count))
        return result

    def _follow(self, flight: Event) -> typing.Generator:
        """Park on a leader's in-flight fetch; pay only the copy cost."""
        if self.cache is not None:
            self.cache.record_coalesced()
        else:
            self.env.stats.counter(f"bind.{self.name}.coalesced").increment()
        result, record_count = yield flight
        yield from self.host.cpu.compute(
            self.calibration.cache_copy_base_ms
            + self.calibration.cache_copy_per_record_ms * record_count
        )
        return list(result)

    def _fetch_counted(
        self, name: DomainName, rtype: RRType, key: object
    ) -> typing.Generator:
        records = yield from self._fetch(name, rtype, key)
        return records, len(records)

    # --- refresh-ahead ------------------------------------------------
    def _maybe_refresh(
        self, key: object, name: DomainName, rtype: RRType, entry: CacheEntry
    ) -> None:
        """Spawn a background renewal if ``entry`` is near expiry."""
        fast = self.fast_path
        if fast is None or fast.refresh_ahead_fraction <= 0:
            return
        assert self.cache is not None
        if not self.cache.needs_refresh(entry, fast.refresh_ahead_fraction):
            return
        if key in self._flights:
            return  # a renewal (or a coalesced miss) is already underway
        # Register the flight synchronously so every later probe — and
        # any miss arriving before the renewal lands — sees it.
        event = self.env.event()
        event.defuse()
        self._flights[key] = event
        self.cache.record_refresh()
        # Defer the renewal by a jittered slice of the remaining TTL:
        # the triggering hit keeps its hit latency (the host CPU is a
        # FIFO device, so an immediate renewal's call overhead would
        # head-of-line-block it), and entries inserted together do not
        # renew in one synchronized burst.  At most half the remaining
        # window is spent deferring, leaving the other half for the
        # fetch itself to land before expiry.
        defer_ms = self.env.rng.stream("bind.refresh_jitter").uniform(
            0.0, max(0.0, entry.expires_at - self.env.now) / 2.0
        )
        # Causal link: the renewal runs as its own process, so the span
        # context of the triggering hit must travel explicitly.
        parent = self.env.obs.current()
        self.env.process(
            self._refresh(event, key, name, rtype, defer_ms, parent=parent)
        )

    def _refresh(
        self,
        event: Event,
        key: object,
        name: DomainName,
        rtype: RRType,
        defer_ms: float = 0.0,
        parent: typing.Optional["SpanLike"] = None,
    ) -> typing.Generator:
        """The background renewal process for one cache entry.

        Failures are deliberately silent: the requesting client already
        has a fresh answer, and the still-resident entry remains
        available to the serve-stale ladder.  Coalesced followers (cold
        misses that joined this flight) do see the failure — for them it
        is a real lookup failure.
        """
        if defer_ms > 0:
            yield self.env.timeout(defer_ms)
        with self.env.obs.span(
            "bind.refresh",
            parent=parent,
            resolver=self.name,
            owner=str(name),
        ) as span:
            try:
                records = yield from self._fetch(
                    name, rtype, key, background=True
                )
            except Exception as err:
                span.set(outcome="failed")
                self._flights.pop(key, None)
                event.fail(err)
                self.env.stats.counter(
                    f"bind.{self.name}.refresh_failures"
                ).increment()
                return
            span.set(outcome="renewed")
            self._flights.pop(key, None)
            event.succeed((records, len(records)))

    def _compute(
        self, cost_ms: float, background: bool = False
    ) -> typing.Generator:
        """Charge ``cost_ms`` of client CPU, optionally at low priority.

        Foreground work takes the host CPU FIFO as usual.  Background
        work (refresh-ahead renewals) models a low-priority thread: it
        backs off while anything else holds or waits for the CPU and
        charges its cost in small slices, so a renewal's call overhead
        never head-of-line-blocks a foreground cache hit.  Politeness is
        bounded — on a saturated CPU the renewal stops yielding after a
        while rather than starving past its entry's expiry.
        """
        if not background or cost_ms <= 0:
            if cost_ms > 0:
                yield from self.host.cpu.compute(cost_ms)
            return
        cpu = self.host.cpu
        give_up_at = self.env.now + 40.0 * max(cost_ms, 1.0)
        remaining = cost_ms
        while remaining > 0:
            while (cpu.in_use or cpu.queue_length) and self.env.now < give_up_at:
                yield self.env.timeout(1.0)
            step = min(4.0, remaining)
            yield from cpu.compute(step)
            remaining -= step

    # --- the remote call ----------------------------------------------
    def _fetch(
        self,
        name: DomainName,
        rtype: RRType,
        key: object,
        background: bool = False,
    ) -> typing.Generator:
        """The full remote-call path: request, failover, serve-stale,
        negative caching, cache insert.  Returns the record list."""
        with self.env.obs.span(
            "bind.fetch",
            resolver=self.name,
            owner=str(name),
            background=background,
        ) as span:
            records = yield from self._fetch_inner(
                name, rtype, key, background, span
            )
            return records

    def _fetch_inner(
        self,
        name: DomainName,
        rtype: RRType,
        key: object,
        background: bool,
        span: "SpanLike",
    ) -> typing.Generator:
        env = self.env
        env.stats.counter(f"bind.{self.name}.remote_lookups").increment()
        if self.per_call_overhead_ms:
            yield from self._compute(self.per_call_overhead_ms, background)
        request = QueryRequest(name, rtype)
        # Requests are fixed-shape; both client styles use the cheap path
        # (the paper's generated-marshalling pain was on responses).
        request_bytes, marshal_cost = self._marshaller(QUERY_REQUEST_IDL).encode(
            request.to_idl()
        )
        yield from self._compute(
            max(marshal_cost, self.calibration.request_marshal_ms), background
        )
        try:
            reply = yield from self._request_with_failover(
                request, len(request_bytes)
            )
        except NetworkError as err:
            # Degradation ladder, rung 3: every replica unreachable and
            # retries exhausted — serve an expired entry if one is still
            # within the stale window.
            stale = yield from self._serve_stale(key, err)
            if stale is not None:
                span.set(served_stale=True)
                return stale
            raise
        if not isinstance(reply, QueryResponse):
            raise BindError(f"unexpected reply {reply!r}")
        # Demarshal the response with this client's style.
        response_bytes, _ = self._marshaller(QUERY_RESPONSE_IDL).encode(
            reply.to_idl()
        )
        _, demarshal_cost = self._response_m.decode(response_bytes)
        yield from self._compute(demarshal_cost, background)
        if reply.status == STATUS_NXDOMAIN:
            if self.cache is not None and self.negative_ttl_ms > 0:
                insert_cost = self.cache.insert(
                    key, _NEGATIVE, 0, self.negative_ttl_ms
                )
                yield from self._compute(insert_cost, background)
            raise NameNotFound(f"{name} {rtype}")
        if reply.status != STATUS_OK:
            raise BindError(f"status {reply.status} for {name} {rtype}")
        # --- cache insert -------------------------------------------------
        if self.cache is not None and reply.records:
            ttl = min(r.ttl for r in reply.records)
            payload: object
            if self.cache.format is CacheFormat.MARSHALLED:
                payload = response_bytes
            else:
                payload = list(reply.records)
            insert_cost = self.cache.insert(key, payload, len(reply.records), ttl)
            yield from self._compute(insert_cost, background)
        return list(reply.records)

    def _serve_stale(
        self, key: object, err: Exception
    ) -> typing.Generator:
        """Return expired-but-retained records for ``key``, or None.

        Only transient failures qualify — a permanent error (no route)
        will not be cured by the authoritative server coming back, so
        masking it with stale data would hide a configuration problem.
        """
        policy = self.policy
        cache = self.cache
        if (
            cache is None
            or policy is None
            or policy.stale_window_ms <= 0
            or not is_transient(err)
        ):
            return None
        entry = cache.stale_entry(key, policy.stale_window_ms)
        if entry is None or entry.payload is _NEGATIVE:
            return None
        records = yield from self._decode_hit(entry)
        self.env.stats.counter(f"bind.{self.name}.stale_hits").increment()
        self.env.trace.emit(
            "bind",
            f"{self.name}: serving stale {key} ({err!r})",
        )
        return records

    def _request_with_failover(
        self, payload: object, size_bytes: int
    ) -> typing.Generator:
        """One read request against the replica set, in retry rounds.

        One *round* tries every replica once: with a
        :class:`~repro.resolution.ReplicaPolicy` whose scheduling is
        enabled it is one replica-aware :meth:`_hedged_exchange`
        (adaptive ordering, breaker skip, hedging), otherwise the
        prototype's static primary-then-secondaries walk.  With a
        :class:`~repro.resolution.ResolutionPolicy`, transiently failed
        rounds repeat up to ``attempts`` times with jittered exponential
        backoff between rounds.  Raises the last network error if every
        round fails.
        """
        policy = self.policy
        timeout_ms = policy.call_timeout_ms if policy is not None else None
        exchange = (
            self._hedged_exchange
            if self._scheduler is not None
            else self._ordered_exchange
        )
        reply = yield from retrying(
            self.env,
            policy,
            lambda _i: exchange(payload, size_bytes, timeout_ms),
            rng_stream=f"bind.backoff:{self.name}",
            stat=f"bind.{self.name}.retries",
        )
        return reply

    def _ordered_exchange(
        self, payload: object, size_bytes: int, timeout_ms: typing.Optional[float]
    ) -> typing.Generator:
        """One round of static failover: the primary, then each
        secondary in order.  Raises the last replica's network error
        when every replica fails."""
        last_error: typing.Optional[Exception] = None
        for endpoint in [self.server] + self.secondaries:
            with self.env.obs.span("bind.leg", endpoint=str(endpoint)) as leg:
                try:
                    reply = yield from self.transport.request(
                        self.host,
                        endpoint,
                        payload,
                        size_bytes,
                        timeout_ms=timeout_ms,
                    )
                except NetworkError as err:
                    leg.set(outcome="error", error_type=type(err).__name__)
                    last_error = err
                    self.env.stats.counter(
                        f"bind.{self.name}.failovers"
                    ).increment()
                    continue
                leg.set(outcome="won")
                return reply
        assert last_error is not None
        raise last_error

    def _hedged_exchange(
        self, payload: object, size_bytes: int, timeout_ms: typing.Optional[float]
    ) -> typing.Generator:
        """One round against the replica set, with hedging.

        The scheduler's best replica is tried first.  If no answer has
        arrived after the hedge delay (the policy quantile of recent
        latencies), the same request is re-issued to the next replica in
        the plan — first answer wins, the loser's reply is discarded
        (its latency still feeds the scheduler).  A failed leg falls
        through to the next unplanned replica immediately, exactly like
        the static failover walk; the exchange fails only when every
        planned replica has failed.
        """
        env = self.env
        scheduler = self._scheduler
        assert scheduler is not None
        replica_policy = self.replica_policy
        assert replica_policy is not None
        queue = scheduler.plan()
        # Legs run as their own processes; the caller's span context must
        # travel into them explicitly.
        obs_parent = env.obs.current()
        result = env.event()
        # The result may be failed with nobody parked on it (e.g. the
        # last leg fails while the winner already returned) — that must
        # never surface at the kernel.
        result.defuse()
        pending = {"outstanding": 0}

        def launch(state: ReplicaState, hedge: bool) -> None:
            pending["outstanding"] += 1
            scheduler.record_start(state, hedge=hedge)
            if hedge:
                env.stats.counter(f"bind.{self.name}.hedges").increment()

            def leg() -> typing.Generator:
                start = env.now
                with env.obs.span(
                    "bind.leg",
                    parent=obs_parent,
                    endpoint=state.label,
                    hedge=hedge,
                ) as lspan:
                    try:
                        reply = yield from self.transport.request(
                            self.host,
                            state.endpoint,
                            payload,
                            size_bytes,
                            timeout_ms=timeout_ms,
                        )
                    except NetworkError as err:
                        lspan.set(
                            outcome="error", error_type=type(err).__name__
                        )
                        pending["outstanding"] -= 1
                        scheduler.record_failure(state, env.now - start)
                        if result.triggered:
                            return
                        env.stats.counter(
                            f"bind.{self.name}.failovers"
                        ).increment()
                        if queue:
                            launch(queue.pop(0), hedge=False)
                        elif pending["outstanding"] == 0:
                            result.fail(err)
                        return
                    except Exception as err:
                        # Application-level failure (e.g. a RemoteCallError
                        # from the server): the replica *answered*, so it is
                        # healthy — but no other replica will answer better.
                        lspan.set(outcome="app_error")
                        pending["outstanding"] -= 1
                        scheduler.record_success(
                            state, env.now - start, won=False
                        )
                        if not result.triggered:
                            result.fail(err)
                        return
                    pending["outstanding"] -= 1
                    won = not result.triggered
                    lspan.set(outcome="won" if won else "lost")
                    scheduler.record_success(state, env.now - start, won=won)
                    if won:
                        result.succeed(reply)

            env.process(leg(), name=f"bind.{self.name}.leg:{state.label}")

        launch(queue.pop(0), hedge=False)
        hedges_left = (
            replica_policy.max_hedges if replica_policy.hedging else 0
        )
        while not result.triggered:
            delay = (
                scheduler.hedge_delay_ms()
                if hedges_left > 0 and queue
                else None
            )
            if delay is None:
                # Nothing left to hedge onto: just wait the result out
                # (raises the failure if every leg failed).
                reply = yield result
                return reply
            timer = env.timeout(delay)
            yield env.any_of([result, timer])
            if result.triggered:
                break
            hedges_left -= 1
            launch(queue.pop(0), hedge=True)
        return result.value

    # ------------------------------------------------------------------
    def lookup_batch(
        self, questions: typing.Sequence[BatchQuestion]
    ) -> typing.Generator:
        """Send several (possibly chained) questions in one round trip.

        Returns one :class:`QueryResponse` per question, in question
        order; per-question failures travel as answer statuses, never
        exceptions.  Successful answers are inserted into the cache
        under their *answer* owner name (chained questions only learn
        their owner server-side).  Identical concurrent batches coalesce
        like single lookups when the fast path enables it.
        """
        questions = list(questions)
        key = ("batch",) + tuple(
            (q.name, q.rtype.value, q.chain_from, q.chain_field)
            for q in questions
        )
        with self.env.obs.span(
            "bind.batch", resolver=self.name, questions=len(questions)
        ) as span:
            fast = self.fast_path
            if fast is not None and fast.coalesce:
                flight = self._flights.get(key)
                if flight is not None:
                    span.set(outcome="coalesced")
                    answers = yield from self._follow(flight)
                    return answers
                span.set(outcome="miss", role="leader")
                answers = yield from self._lead(
                    key, self._fetch_batch(questions)
                )
                return answers
            answers, _count = yield from self._fetch_batch(questions)
            return answers

    def _fetch_batch(
        self, questions: typing.List[BatchQuestion]
    ) -> typing.Generator:
        """One batched exchange; returns ``(answers, total_records)``."""
        env = self.env
        env.stats.counter(f"bind.{self.name}.batch_lookups").increment()
        # One per-call overhead for the whole batch: with six sequential
        # mappings this control cost is paid six times; here, once.
        if self.per_call_overhead_ms:
            yield from self.host.cpu.compute(self.per_call_overhead_ms)
        request = BatchQueryRequest(questions)
        request_bytes, marshal_cost = self._marshaller(
            BATCH_QUERY_REQUEST_IDL
        ).encode(request.to_idl())
        yield from self.host.cpu.compute(
            max(marshal_cost, self.calibration.request_marshal_ms)
        )
        reply = yield from self._request_with_failover(
            request, len(request_bytes)
        )
        if not isinstance(reply, BatchQueryResponse):
            raise BindError(f"unexpected reply {reply!r}")
        # Demarshal the whole response with this client's style.
        response_bytes, _ = self._marshaller(BATCH_QUERY_RESPONSE_IDL).encode(
            reply.to_idl()
        )
        if self._batch_response_m is None:
            if self.marshalling == "generated":
                self._batch_response_m = StubCompiler().marshaller(
                    BATCH_QUERY_RESPONSE_IDL
                )
            else:
                self._batch_response_m = self._marshaller(
                    BATCH_QUERY_RESPONSE_IDL
                )
        _, demarshal_cost = self._batch_response_m.decode(response_bytes)
        yield from self.host.cpu.compute(demarshal_cost)
        total_records = 0
        cache = self.cache
        for question, answer in zip(questions, reply.answers):
            total_records += len(answer.records)
            if cache is None:
                continue
            if answer.status == STATUS_OK and answer.records:
                owner_key = (
                    str(answer.records[0].name),
                    question.rtype.value,
                )
                ttl = min(r.ttl for r in answer.records)
                payload: object
                if cache.format is CacheFormat.MARSHALLED:
                    payload, _cost = self._marshaller(
                        QUERY_RESPONSE_IDL
                    ).encode(answer.to_idl())
                else:
                    payload = list(answer.records)
                insert_cost = cache.insert(
                    owner_key, payload, len(answer.records), ttl
                )
                yield from self.host.cpu.compute(insert_cost)
            elif (
                answer.status == STATUS_NXDOMAIN
                and question.chain_from < 0
                and self.negative_ttl_ms > 0
            ):
                # Only literal questions know their owner client-side.
                owner_key = (
                    str(DomainName(question.name)),
                    question.rtype.value,
                )
                insert_cost = cache.insert(
                    owner_key, _NEGATIVE, 0, self.negative_ttl_ms
                )
                yield from self.host.cpu.compute(insert_cost)
        return reply.answers, total_records

    def lookup_address(self, name: typing.Union[str, DomainName]) -> typing.Generator:
        """Name-to-address convenience: returns a dotted-quad string."""
        records = yield from self.lookup(name, RRType.A)
        return records[0].address

    # ------------------------------------------------------------------
    def update(
        self,
        mode: int,
        name: typing.Union[str, DomainName],
        rtype: RRType,
        records: typing.Sequence[ResourceRecord] = (),
    ) -> typing.Generator:
        """Dynamic update (requires the modified BIND); returns new serial."""
        name = DomainName(name)
        request = UpdateRequest(mode, name, rtype, list(records))
        request_bytes, marshal_cost = self._marshaller(request.idl_type).encode(
            request.to_idl()
        )
        yield from self.host.cpu.compute(marshal_cost)
        reply = yield from self.transport.request(
            self.host, self.server, request, len(request_bytes)
        )
        if not isinstance(reply, UpdateResponse):
            raise BindError(f"unexpected reply {reply!r}")
        if reply.status == STATUS_REFUSED:
            raise UpdateRefused(
                f"server at {self.server} does not accept dynamic updates"
            )
        if reply.status == STATUS_NXDOMAIN:
            raise NameNotFound(f"no zone for {name}")
        if reply.status != STATUS_OK:
            raise BindError(f"update failed with status {reply.status}")
        return reply.serial

    def add_record(self, record: ResourceRecord) -> typing.Generator:
        result = yield from self.update(
            UpdateMode.ADD, record.name, record.rtype, [record]
        )
        return result

    def remove_records(
        self, name: typing.Union[str, DomainName], rtype: RRType
    ) -> typing.Generator:
        result = yield from self.update(UpdateMode.DELETE, name, rtype)
        return result

    def replace_records(
        self,
        name: typing.Union[str, DomainName],
        rtype: RRType,
        records: typing.Sequence[ResourceRecord],
    ) -> typing.Generator:
        result = yield from self.update(UpdateMode.REPLACE, name, rtype, records)
        return result

    def update_batch(
        self, ops: typing.Sequence[UpdateOp]
    ) -> typing.Generator:
        """Send several dynamic-update operations in one datagram.

        Returns ``(serial, statuses)`` — the zone's serial after the
        batch and one status per operation.  Raises on the first failed
        operation, like the single-op :meth:`update` would have.
        """
        ops = list(ops)
        if not ops:
            raise ValueError("empty update batch")
        request = UpdateBatchRequest(ops)
        request_bytes, marshal_cost = self._marshaller(
            request.idl_type
        ).encode(request.to_idl())
        yield from self.host.cpu.compute(marshal_cost)
        self.env.stats.counter(
            f"bind.{self.name}.update_batches"
        ).increment()
        reply = yield from self.transport.request(
            self.host, self.server, request, len(request_bytes)
        )
        if not isinstance(reply, UpdateBatchResponse):
            raise BindError(f"unexpected reply {reply!r}")
        if reply.status == STATUS_REFUSED:
            raise UpdateRefused(
                f"server at {self.server} does not accept dynamic updates"
            )
        for op, status in zip(ops, reply.statuses):
            if status == STATUS_NXDOMAIN:
                raise NameNotFound(f"no zone for {op.name}")
            if status != STATUS_OK:
                raise BindError(
                    f"batched update of {op.name} failed with status {status}"
                )
        if reply.status != STATUS_OK:
            raise BindError(f"update batch failed with status {reply.status}")
        return reply.serial, list(reply.statuses)

    # ------------------------------------------------------------------
    # NOTIFY subscription: invalidation beyond TTL for this cache
    # ------------------------------------------------------------------
    def subscribe_notify(
        self, origin: typing.Union[str, DomainName]
    ) -> typing.Generator:
        """Subscribe to the primary's NOTIFY push for ``origin``.

        On each push past our serial the resolver pulls just the deltas
        through the IXFR journal and installs them into the cache
        (deletions invalidate their keys) — changed bindings stop being
        served long before their TTL would have run out.  Returns the
        zone serial the subscription starts from.
        """
        if self.cache is None:
            raise ValueError("NOTIFY subscription requires a cache")
        origin = DomainName(origin)
        if self._notify_endpoint is None:
            # Replies never route through port dispatch, so an
            # ephemeral-range port is safe to claim for the listener.
            port = self.host.ephemeral_endpoint().port
            self._notify_endpoint = self.host.bind(
                port, _NotifyListener(self)
            )
        request = NotifySubscribeRequest(
            origin,
            str(self._notify_endpoint.address),
            self._notify_endpoint.port,
        )
        request_bytes, marshal_cost = self._marshaller(
            request.idl_type
        ).encode(request.to_idl())
        yield from self.host.cpu.compute(marshal_cost)
        reply = yield from self.transport.request(
            self.host, self.server, request, len(request_bytes)
        )
        if (
            not isinstance(reply, NotifySubscribeResponse)
            or reply.status != STATUS_OK
        ):
            raise BindError(f"NOTIFY subscription for {origin} refused")
        key = str(origin)
        self._notify_serials[key] = max(
            reply.serial, self._notify_serials.get(key, 0)
        )
        return reply.serial

    def _on_notify(
        self, origin: DomainName, serial: int
    ) -> typing.Generator:
        """A push landed: pull the delta since our serial into the cache.

        Pushes at or behind our serial, or racing an in-flight pull,
        are dropped — the next real bump pushes again.
        """
        key = str(origin)
        have = self._notify_serials.get(key)
        if have is None or serial <= have or key in self._notify_inflight:
            return
        self._notify_inflight.add(key)
        try:
            self.env.stats.counter(
                f"bind.{self.name}.notify_pulls"
            ).increment()
            new_serial, full, deltas, records = (
                yield from self.incremental_zone_transfer(origin, have)
            )
            if full:
                yield from self._install_zone(records)
            else:
                yield from self._install_deltas(deltas)
            self._notify_serials[key] = new_serial
            if key in self._preload_serials:
                self._preload_serials[key] = new_serial
        except (NetworkError, BindError):
            # Missed delta: TTL expiry still bounds the staleness.
            self.env.stats.counter(
                f"bind.{self.name}.notify_pull_failures"
            ).increment()
        finally:
            self._notify_inflight.discard(key)

    # ------------------------------------------------------------------
    def zone_transfer(self, origin: typing.Union[str, DomainName]) -> typing.Generator:
        """AXFR: fetch every record of a zone; returns (serial, records)."""
        origin = DomainName(origin)
        request = XferRequest(origin)
        request_bytes, marshal_cost = self._marshaller(request.idl_type).encode(
            request.to_idl()
        )
        yield from self.host.cpu.compute(marshal_cost)
        reply = yield from self.transport.request(
            self.host, self.server, request, len(request_bytes), timeout_ms=10_000
        )
        if not isinstance(reply, XferResponse):
            raise BindError(f"unexpected reply {reply!r}")
        if reply.status != STATUS_OK:
            raise ZoneNotFound(f"zone transfer of {origin} refused/unknown")
        return reply.serial, list(reply.records)

    def incremental_zone_transfer(
        self, origin: typing.Union[str, DomainName], serial: int
    ) -> typing.Generator:
        """IXFR: fetch the zone's dynamic updates past ``serial``.

        Returns ``(serial, full, deltas, records)``; ``full`` is true
        when the primary's journal no longer covered ``serial`` and the
        reply is a whole-zone snapshot in ``records`` instead.
        """
        origin = DomainName(origin)
        request = IxfrRequest(origin, serial)
        request_bytes, marshal_cost = self._marshaller(request.idl_type).encode(
            request.to_idl()
        )
        yield from self.host.cpu.compute(marshal_cost)
        reply = yield from self.transport.request(
            self.host, self.server, request, len(request_bytes), timeout_ms=10_000
        )
        if not isinstance(reply, IxfrResponse):
            raise BindError(f"unexpected reply {reply!r}")
        if reply.status != STATUS_OK:
            raise ZoneNotFound(f"incremental transfer of {origin} refused/unknown")
        return reply.serial, bool(reply.full), list(reply.deltas), list(reply.records)

    def preload_cache(self, origin: typing.Union[str, DomainName]) -> typing.Generator:
        """Preload the cache from a zone transfer; returns records loaded.

        "The BIND zone transfer mechanism ... was employed to preload
        the caches."  Each transferred record set is installed under its
        (name, type) key with its own TTL.

        With a :class:`~repro.resolution.ReplicaPolicy` whose ``ixfr``
        is enabled, a *re*-preload asks the primary only for the updates
        past the serial of the previous preload and installs just the
        changed record sets (deletions invalidate their keys), so the
        steady-state cost is proportional to churn rather than zone
        size.  A truncated journal degrades to the full install.
        """
        if self.cache is None:
            raise ValueError("preload requires a cache")
        origin = DomainName(origin)
        have = self._preload_serials.get(str(origin))
        replica_policy = self.replica_policy
        if replica_policy is not None and replica_policy.ixfr and have is not None:
            serial, full, deltas, records = (
                yield from self.incremental_zone_transfer(origin, have)
            )
            if not full:
                loaded = yield from self._install_deltas(deltas)
                self._preload_serials[str(origin)] = serial
                self.env.stats.counter(
                    f"bind.{self.name}.incremental_preloads"
                ).increment()
                return loaded
            # Journal truncated: the reply already carries the snapshot.
            self.env.stats.counter(
                f"bind.{self.name}.preload_fallbacks"
            ).increment()
        else:
            serial, records = yield from self.zone_transfer(origin)
        yield from self._install_zone(records)
        self._preload_serials[str(origin)] = serial
        return len(records)

    def _install_zone(
        self, records: typing.List[ResourceRecord]
    ) -> typing.Generator:
        """Install a full transfer's records into the cache."""
        assert self.cache is not None
        groups: typing.Dict[typing.Tuple[str, int], typing.List[ResourceRecord]] = {}
        for record in records:
            groups.setdefault((str(record.name), record.rtype.value), []).append(record)
        # Installing each entry pays the per-record install cost (the
        # dominant term of the paper's 390 ms preload).
        install_cost = self.calibration.xfer_install_per_record_ms * len(records)
        yield from self.host.cpu.compute(install_cost)
        for key, group in groups.items():
            ttl = min(r.ttl for r in group)
            if self.cache.format is CacheFormat.MARSHALLED:
                payload_bytes, _ = self._marshaller(QUERY_RESPONSE_IDL).encode(
                    QueryResponse(STATUS_OK, group).to_idl()
                )
                self.cache.insert(key, payload_bytes, len(group), ttl)
            else:
                self.cache.insert(key, list(group), len(group), ttl)

    def _install_deltas(
        self, deltas: typing.List[ZoneDelta]
    ) -> typing.Generator:
        """Install journal deltas into the cache; returns records loaded.

        The install cost covers only the delta's records — this is what
        makes an IXFR re-preload cheap at low churn.
        """
        assert self.cache is not None
        loaded = sum(len(d.records) for d in deltas)
        install_cost = self.calibration.xfer_install_per_record_ms * loaded
        if install_cost > 0:
            yield from self.host.cpu.compute(install_cost)
        for delta in deltas:
            key = (str(delta.name), delta.rtype.value)
            if not delta.records:
                self.cache.invalidate(key)
                continue
            group = list(delta.records)
            ttl = min(r.ttl for r in group)
            if self.cache.format is CacheFormat.MARSHALLED:
                payload_bytes, _ = self._marshaller(QUERY_RESPONSE_IDL).encode(
                    QueryResponse(STATUS_OK, group).to_idl()
                )
                self.cache.insert(key, payload_bytes, len(group), ttl)
            else:
                self.cache.insert(key, group, len(group), ttl)
        return loaded


class _NotifyListener(Service):
    """Receives the primary's NOTIFY pushes for a subscribed resolver."""

    def __init__(self, resolver: BindResolver):
        self.resolver = resolver

    def handle(self, datagram, responder):
        request = datagram.payload
        if isinstance(request, NotifyRequest):
            yield from self.resolver._on_notify(
                DomainName(request.origin), request.serial
            )
