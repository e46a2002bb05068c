"""The HNS meta-naming store.

"Although all data associated with individually nameable entities is
kept in the underlying name services, the HNS maintains additional
meta-naming information needed for managing the global name space.
This information consists of the names and binding information for each
name service and each NSM, the names of all contexts, and the mappings
from contexts to name services. ... we use a version of BIND, modified
to support both dynamic updates and also data of unspecified type."

Layout of the meta zone (origin ``hns``):

====================================  =====================================
owner name                            data (``key=value;...`` in UNSPEC)
====================================  =====================================
``<context>.ctx.hns``                 ``ns=<name service name>``
``<qclass>.<ns>.q.hns``               ``nsm=<nsm name>``
``<nsm>.nsm.hns``                     ``host=..;hostctx=..;prog=..;suite=..;port=..``
``<ns>.ns.hns``                       ``type=..;host=..;port=..``
``<host>.addr.hns``  (A record)       network address of an NSM host
====================================  =====================================

Every mapping is one BIND lookup through the HNS's Raw-HRPC interface to
the meta server, cached demarshalled with TTL invalidation.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

from repro.bind import (
    BindResolver,
    CacheFormat,
    DomainName,
    NameNotFound,
    ResolverCache,
    ResourceRecord,
    RRType,
    UpdateMode,
    UpdateOp,
)
from repro.core.errors import ContextNotFound, HnsError, NsmNotFound

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.nsm import LeaseKeeper
    from repro.obs.span import SpanLike
    from repro.sim.events import Event
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.suites import suite_named
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.transport import Transport
from repro.bind.messages import STATUS_OK, BatchQuestion
from repro.resolution import PolicySet

META_ORIGIN = "hns"


def encode_fields(**fields: object) -> bytes:
    """Encode meta fields as ``key=value;...`` (the UNSPEC data)."""
    for key, value in fields.items():
        text = str(value)
        if "=" in key or ";" in key or ";" in text or "=" in text:
            raise ValueError(f"field {key}={text!r} contains reserved characters")
    return ";".join(f"{k}={v}" for k, v in sorted(fields.items())).encode("utf-8")


def decode_fields(data: bytes) -> typing.Dict[str, str]:
    """Decode ``key=value;...`` meta-record data."""
    out: typing.Dict[str, str] = {}
    text = data.decode("utf-8")
    if not text:
        return out
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed meta record field {part!r}")
        out[key] = value
    return out


@dataclasses.dataclass(frozen=True)
class NameServiceRecord:
    """Descriptor of one underlying name service."""

    name: str
    kind: str          # "bind" or "clearinghouse"
    host_name: str     # where its server runs
    port: int

    def to_fields(self) -> bytes:
        return encode_fields(type=self.kind, host=self.host_name, port=self.port)

    @classmethod
    def from_fields(cls, name: str, data: bytes) -> "NameServiceRecord":
        fields = decode_fields(data)
        return cls(name, fields["type"], fields["host"], int(fields["port"]))


@dataclasses.dataclass(frozen=True)
class NsmRecord:
    """Binding information for one NSM, as stored in the meta zone."""

    name: str
    query_class: str
    name_service: str
    host_name: str     # host the NSM process runs on
    host_context: str  # context in which that host name is resolvable
    program: str       # HRPC program name
    suite: str         # protocol suite for calling it
    port: int          # 0 if the NSM is only available linked-in

    def to_fields(self) -> bytes:
        return encode_fields(
            qc=self.query_class,
            ns=self.name_service,
            host=self.host_name,
            hostctx=self.host_context,
            prog=self.program,
            suite=self.suite,
            port=self.port,
        )

    @classmethod
    def from_fields(cls, name: str, data: bytes) -> "NsmRecord":
        fields = decode_fields(data)
        suite_named(fields["suite"])  # validate early
        return cls(
            name=name,
            query_class=fields["qc"],
            name_service=fields["ns"],
            host_name=fields["host"],
            host_context=fields["hostctx"],
            program=fields["prog"],
            suite=fields["suite"],
            port=int(fields["port"]),
        )


@dataclasses.dataclass
class DirectoryListing:
    """The parsed contents of the meta zone."""

    serial: int
    #: context (lowercased label) -> name service name
    contexts: typing.Dict[str, str] = dataclasses.field(default_factory=dict)
    #: (name service label, query class label) -> NSM name
    query_mappings: typing.Dict[typing.Tuple[str, str], str] = dataclasses.field(
        default_factory=dict
    )
    #: NSM label -> record
    nsms: typing.Dict[str, "NsmRecord"] = dataclasses.field(default_factory=dict)
    #: name service label -> record
    name_services: typing.Dict[str, "NameServiceRecord"] = dataclasses.field(
        default_factory=dict
    )
    #: NSM host name -> address
    nsm_hosts: typing.Dict[str, str] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        lines = [f"meta zone serial {self.serial}"]
        lines.append("name services:")
        for label, record in sorted(self.name_services.items()):
            lines.append(f"  {record.name} ({record.kind}) @ {record.host_name}:{record.port}")
        lines.append("contexts:")
        for context, ns in sorted(self.contexts.items()):
            lines.append(f"  {context} -> {ns}")
        lines.append("NSMs:")
        for label, record in sorted(self.nsms.items()):
            lines.append(
                f"  {record.name}: {record.query_class} on {record.name_service} "
                f"@ {record.host_name}:{record.port} ({record.suite})"
            )
        return "\n".join(lines)


@dataclasses.dataclass
class _OpenBatch:
    """A coalescing window in progress on one store.

    Ops are keyed by ``(owner, rtype)`` so a later registration of the
    same owner inside the window simply overwrites the earlier one —
    last writer wins, exactly what a rebinding wave wants.
    """

    done: "Event"
    ops: typing.Dict[typing.Tuple[str, int], UpdateOp] = dataclasses.field(
        default_factory=dict
    )


class MetaStore:
    """Client-side access to the meta zone, with the HNS cache.

    One instance per HNS instance; where the instance lives (client
    process, agent, HNS server) determines whose CPU pays and how much
    sharing the cache sees — the colocation tradeoff.
    """

    def __init__(
        self,
        host: Host,
        transport: Transport,
        meta_server: Endpoint,
        calibration: Calibration = DEFAULT_CALIBRATION,
        cache_format: CacheFormat = CacheFormat.DEMARSHALLED,
        cache: typing.Optional[ResolverCache] = None,
        secondaries: typing.Sequence[Endpoint] = (),
        policies: typing.Optional[PolicySet] = None,
    ):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        # One resolution point for the whole bundle; no bundle means
        # PolicySet.default() (fault tolerance on, the rest off).
        resolved = policies if policies is not None else PolicySet.default()
        self.policies = resolved
        #: fault-tolerance policy for every meta lookup (retry/backoff
        #: across replicas, negative caching, serve-stale); None gives
        #: the prototype's die-on-first-error behaviour
        self.policy = policy = resolved.resolution
        #: performance policy (coalescing, refresh-ahead, batching);
        #: None keeps the paper-faithful sequential behaviour
        self.fast_path = resolved.fast_path
        #: replica-aware read policy (adaptive selection, hedging,
        #: incremental transfer); None keeps static ordered failover
        self.replica_policy = resolved.replica
        #: write-path policy (batched registration, leases, NOTIFY);
        #: None keeps the one-record-per-round-trip prototype writes
        self.update_policy = resolved.update
        #: the coalescing window currently open on this store, if any
        self._open_batch: typing.Optional[_OpenBatch] = None
        #: client-side renewal agent for leased registrations
        self._lease_keeper: typing.Optional["LeaseKeeper"] = None
        self.cache = (
            cache
            if cache is not None
            else ResolverCache(
                host.env,
                name=f"hns-meta@{host.name}",
                fmt=cache_format,
                calibration=calibration,
                stale_retention_ms=(
                    policy.stale_window_ms if policy is not None else 0.0
                ),
            )
        )
        # Each meta mapping is a remote call through the Raw HRPC
        # interface to the modified BIND; the per-call control cost is
        # calibrated to match the raw suite's CPU overhead.
        self.resolver = BindResolver(
            host,
            transport,
            meta_server,
            marshalling="generated",
            cache=self.cache,
            per_call_overhead_ms=calibration.hrpc_meta_call_ms,
            calibration=calibration,
            name=f"meta@{host.name}",
            secondaries=secondaries,
            policies=resolved,
        )

    # ------------------------------------------------------------------
    # Mapping lookups (each is "one data mapping" in the paper's terms)
    # ------------------------------------------------------------------
    def _lookup_fields(self, owner: str) -> typing.Generator:
        records = yield from self.resolver.lookup(owner, RRType.UNSPEC)
        return decode_fields(records[0].data)

    def context_to_name_service(self, context: str) -> typing.Generator:
        """Mapping 1: context -> name service name."""
        with self.env.obs.span(
            "meta.context_to_ns", mapping=1, context=context
        ) as span:
            try:
                fields = yield from self._lookup_fields(
                    f"{context}.ctx.{META_ORIGIN}"
                )
            except NameNotFound as err:
                raise ContextNotFound(context) from err
            span.set(ns=fields["ns"])
            return fields["ns"]

    def nsm_name_for(self, name_service: str, query_class: str) -> typing.Generator:
        """Mapping 2: (name service, query class) -> NSM name."""
        owner = f"{query_class}.{name_service}.q.{META_ORIGIN}"
        with self.env.obs.span(
            "meta.nsm_name", mapping=2, ns=name_service, query_class=query_class
        ) as span:
            try:
                fields = yield from self._lookup_fields(owner)
            except NameNotFound as err:
                raise NsmNotFound(f"{query_class} on {name_service}") from err
            span.set(nsm=fields["nsm"])
            return fields["nsm"]

    def nsm_record(self, nsm_name: str) -> typing.Generator:
        """Mapping 3: NSM name -> NSM binding information."""
        owner = f"{nsm_name}.nsm.{META_ORIGIN}"
        with self.env.obs.span("meta.nsm_record", mapping=3, nsm=nsm_name):
            try:
                records = yield from self.resolver.lookup(owner, RRType.UNSPEC)
            except NameNotFound as err:
                raise NsmNotFound(nsm_name) from err
            return NsmRecord.from_fields(nsm_name, records[0].data)

    def find_nsm_bundle(
        self, context: str, query_class: str
    ) -> typing.Generator:
        """Mappings 1-3 in at most one (chained, batched) round trip.

        Returns ``(name_service_name, nsm_name, NsmRecord)`` — exactly
        what the sequential ``context_to_name_service`` /
        ``nsm_name_for`` / ``nsm_record`` trio produces, but the cache
        misses travel as one multi-question query whose later questions
        chain on the earlier answers server-side.  Fully cached prefixes
        are probed locally, so a warm client sends nothing at all.
        """
        with self.env.obs.span(
            "meta.bundle", context=context, query_class=query_class
        ) as span:
            result = yield from self._find_nsm_bundle(
                context, query_class, span
            )
            return result

    def _find_nsm_bundle(
        self, context: str, query_class: str, span: "SpanLike"
    ) -> typing.Generator:
        ctx_owner = f"{context}.ctx.{META_ORIGIN}"
        ns_name: typing.Optional[str] = None
        nsm_name: typing.Optional[str] = None
        try:
            records = yield from self.resolver.cached_records(
                ctx_owner, RRType.UNSPEC
            )
        except NameNotFound as err:
            raise ContextNotFound(context) from err
        if records is not None:
            ns_name = decode_fields(records[0].data)["ns"]
        if ns_name is not None:
            try:
                records = yield from self.resolver.cached_records(
                    f"{query_class}.{ns_name}.q.{META_ORIGIN}", RRType.UNSPEC
                )
            except NameNotFound as err:
                raise NsmNotFound(f"{query_class} on {ns_name}") from err
            if records is not None:
                nsm_name = decode_fields(records[0].data)["nsm"]
        if nsm_name is not None:
            try:
                records = yield from self.resolver.cached_records(
                    f"{nsm_name}.nsm.{META_ORIGIN}", RRType.UNSPEC
                )
            except NameNotFound as err:
                raise NsmNotFound(nsm_name) from err
            if records is not None:
                span.set(ns=ns_name, nsm=nsm_name, cached=True)
                return (
                    ns_name,
                    nsm_name,
                    NsmRecord.from_fields(nsm_name, records[0].data),
                )
        # Build the chained batch for whatever suffix is still missing.
        # ``stage`` tracks which mapping the first question answers so
        # NXDOMAINs map onto the same errors the sequential path raises.
        if ns_name is None:
            questions = [
                BatchQuestion(ctx_owner, RRType.UNSPEC),
                BatchQuestion(
                    f"{query_class}.*.q.{META_ORIGIN}",
                    RRType.UNSPEC,
                    chain_from=0,
                    chain_field="ns",
                ),
                BatchQuestion(
                    f"*.nsm.{META_ORIGIN}",
                    RRType.UNSPEC,
                    chain_from=1,
                    chain_field="nsm",
                ),
            ]
            stage = 0
        elif nsm_name is None:
            questions = [
                BatchQuestion(
                    f"{query_class}.{ns_name}.q.{META_ORIGIN}", RRType.UNSPEC
                ),
                BatchQuestion(
                    f"*.nsm.{META_ORIGIN}",
                    RRType.UNSPEC,
                    chain_from=0,
                    chain_field="nsm",
                ),
            ]
            stage = 1
        else:
            questions = [
                BatchQuestion(f"{nsm_name}.nsm.{META_ORIGIN}", RRType.UNSPEC)
            ]
            stage = 2
        answers = yield from self.resolver.lookup_batch(questions)
        for offset, answer in enumerate(answers):
            if answer.status == STATUS_OK and answer.records:
                continue
            failed = stage + offset
            if failed == 0:
                raise ContextNotFound(context)
            if failed == 1:
                raise NsmNotFound(f"{query_class} on {ns_name or context}")
            raise NsmNotFound(nsm_name or f"{query_class} on {ns_name}")
        if stage == 0:
            ns_name = decode_fields(answers[0].records[0].data)["ns"]
            nsm_name = decode_fields(answers[1].records[0].data)["nsm"]
        elif stage == 1:
            nsm_name = decode_fields(answers[0].records[0].data)["nsm"]
        assert ns_name is not None and nsm_name is not None
        span.set(ns=ns_name, nsm=nsm_name, cached=False)
        nsm_answer = answers[-1]
        return (
            ns_name,
            nsm_name,
            NsmRecord.from_fields(nsm_name, nsm_answer.records[0].data),
        )

    def name_service_record(self, ns_name: str) -> typing.Generator:
        """Descriptor lookup (used by admin tooling and NSM bootstrap)."""
        owner = f"{ns_name}.ns.{META_ORIGIN}"
        try:
            records = yield from self.resolver.lookup(owner, RRType.UNSPEC)
        except NameNotFound as err:
            raise HnsError(f"unknown name service {ns_name!r}") from err
        return NameServiceRecord.from_fields(ns_name, records[0].data)

    @staticmethod
    @functools.lru_cache(maxsize=1024)
    def host_label(host_name: str) -> str:
        """Sanitise a (possibly dotted or colon-ed) host name to a label.

        Pure and called on every NSM-host address lookup, so each
        distinct host name (a handful: the NSM hosts) is computed once.
        """
        return "".join(c if c.isalnum() else "-" for c in host_name.lower())

    def nsm_host_address(self, host_name: str) -> typing.Generator:
        """NSM-host address from the meta zone (preloaded with the rest).

        The meta zone carries address records for NSM hosts so that a
        preload can "guarantee HNS cache hits"; this lookup backstops
        the statically-linked host-address NSM path.
        """
        owner = f"{self.host_label(host_name)}.addr.{META_ORIGIN}"
        with self.env.obs.span("meta.host_address", host=host_name):
            fields = yield from self._lookup_fields(owner)
            return fields["addr"]

    # ------------------------------------------------------------------
    # Registration (dynamic updates to the modified BIND)
    # ------------------------------------------------------------------
    def _put(self, owner: str, data: bytes, rtype: RRType = RRType.UNSPEC) -> typing.Generator:
        record = ResourceRecord(
            owner, rtype, self.calibration.meta_ttl_ms, data  # type: ignore[arg-type]
        )
        with self.env.obs.span(
            "meta.register", store=f"meta@{self.host.name}", owner=owner
        ) as span:
            policy = self.update_policy
            if policy is None or not policy.active:
                # The prototype write path: one record, one round trip.
                serial = yield from self.resolver.replace_records(
                    owner, rtype, [record]
                )
                # Registration supersedes whatever the cache held for this
                # owner (cache keys are canonical lowercase domain names).
                self.cache.invalidate((str(DomainName(owner)), rtype.value))
                return serial
            op = UpdateOp(
                UpdateMode.REPLACE,
                DomainName(owner),
                rtype,
                (record,),
                lease_ms=policy.lease_ms if policy.leases else 0.0,
            )
            serial = yield from self._submit_op(op)
            span.set(batched=policy.batch, serial=serial)
            if policy.leases:
                self._leases().track((str(op.name), rtype.value), op)
            return serial

    # --- the batched write pipeline -----------------------------------
    def _submit_op(self, op: UpdateOp) -> typing.Generator:
        """Route one write through the update pipeline.

        With batching on, the first concurrent writer opens a
        coalescing window, sleeps it out, and flushes everything that
        accumulated as one (or a few, if over the wire cap) batched
        round trips; writers that arrive while the window is open merge
        their op in and park on the leader's event.
        """
        policy = self.update_policy
        assert policy is not None
        if not policy.batch:
            # No coalescing, but leases/NOTIFY still need the batch
            # message (it is the one that carries the lease field).
            serial, _ = yield from self.resolver.update_batch([op])
            self._invalidate_for(op)
            return serial
        key = (str(op.name), op.rtype.value)
        batch = self._open_batch
        if batch is not None:
            # Follower: merge (last writer wins on the same owner) and
            # wait for the leader's flush.
            batch.ops[key] = op
            self.env.stats.counter("hns.meta.coalesced_writes").increment()
            serial = yield batch.done
            return serial
        event = self.env.event()
        # The flush may fail with nobody parked on the batch.
        event.defuse()
        batch = _OpenBatch(done=event)
        batch.ops[key] = op
        self._open_batch = batch
        if policy.batch_window_ms > 0:
            yield self.env.timeout(policy.batch_window_ms)
        self._open_batch = None
        ops = list(batch.ops.values())
        try:
            serial = 0
            for start in range(0, len(ops), policy.max_batch_ops):
                chunk = ops[start:start + policy.max_batch_ops]
                serial, _ = yield from self.resolver.update_batch(chunk)
        except BaseException as err:
            batch.done.fail(err)
            raise
        for queued in ops:
            self._invalidate_for(queued)
        self.env.trace.emit(
            "hns",
            f"meta@{self.host.name}: flushed {len(ops)} coalesced "
            f"writes (serial {serial})",
        )
        batch.done.succeed(serial)
        return serial

    def _invalidate_for(self, op: UpdateOp) -> None:
        self.cache.invalidate((str(op.name), op.rtype.value))

    # --- leases -------------------------------------------------------
    def _leases(self) -> "LeaseKeeper":
        """The renewal agent, created on first leased registration."""
        if self._lease_keeper is None:
            from repro.core.nsm import LeaseKeeper

            policy = self.update_policy
            assert policy is not None
            self._lease_keeper = LeaseKeeper(
                self.env,
                self._renew_ops,
                lease_ms=policy.lease_ms,
                renew_fraction=policy.lease_renew_fraction,
                name=f"meta@{self.host.name}",
            )
        return self._lease_keeper

    def _renew_ops(self, ops: typing.List[UpdateOp]) -> typing.Generator:
        """Re-assert every tracked lease in one batched round trip."""
        policy = self.update_policy
        assert policy is not None
        for start in range(0, len(ops), policy.max_batch_ops):
            yield from self.resolver.update_batch(
                ops[start:start + policy.max_batch_ops]
            )

    def stop_lease_renewal(self) -> None:
        """Stop renewing (models this registrar dying): the primary
        retracts every binding we held when its lease runs out."""
        if self._lease_keeper is not None:
            self._lease_keeper.stop()

    # --- NOTIFY -------------------------------------------------------
    def subscribe_invalidation(self) -> typing.Generator:
        """Subscribe this store's cache to the primary's NOTIFY push.

        Pushed serial bumps pull IXFR deltas straight into the cache,
        so re-registrations elsewhere stop being served here long
        before their TTL would have expired.  Returns the zone serial
        the subscription starts from.
        """
        serial = yield from self.resolver.subscribe_notify(META_ORIGIN)
        return serial

    def register_context(self, context: str, name_service: str) -> typing.Generator:
        yield from self._put(
            f"{context}.ctx.{META_ORIGIN}", encode_fields(ns=name_service)
        )

    def register_query_mapping(
        self, name_service: str, query_class: str, nsm_name: str
    ) -> typing.Generator:
        yield from self._put(
            f"{query_class}.{name_service}.q.{META_ORIGIN}",
            encode_fields(nsm=nsm_name),
        )

    def register_nsm(self, record: NsmRecord) -> typing.Generator:
        yield from self._put(f"{record.name}.nsm.{META_ORIGIN}", record.to_fields())

    def register_name_service(self, record: NameServiceRecord) -> typing.Generator:
        yield from self._put(f"{record.name}.ns.{META_ORIGIN}", record.to_fields())

    def register_nsm_host_address(self, host_name: str, address: str) -> typing.Generator:
        owner = f"{self.host_label(host_name)}.addr.{META_ORIGIN}"
        yield from self._put(owner, encode_fields(host=host_name, addr=address))

    def unregister(self, owner: str, rtype: RRType = RRType.UNSPEC) -> typing.Generator:
        policy = self.update_policy
        if policy is not None and policy.active:
            op = UpdateOp(UpdateMode.DELETE, DomainName(owner), rtype)
            yield from self._submit_op(op)
            if self._lease_keeper is not None:
                self._lease_keeper.release((str(op.name), rtype.value))
            return
        yield from self.resolver.remove_records(owner, rtype)
        self.cache.invalidate((str(DomainName(owner)), rtype.value))

    # ------------------------------------------------------------------
    def directory(self) -> typing.Generator:
        """Browse the whole federation: one zone transfer, parsed.

        Returns a :class:`DirectoryListing` of every registered context,
        name service, query mapping, and NSM — the administrator's view
        of the global name space.
        """
        serial, records = yield from self.resolver.zone_transfer(META_ORIGIN)
        listing = DirectoryListing(serial=serial)
        suffixes = {
            "ctx": 2,  # <context>.ctx.hns
            "q": 3,    # <qclass>.<ns>.q.hns
            "nsm": 2,  # <nsm>.nsm.hns
            "ns": 2,   # <ns>.ns.hns
            "addr": 2, # <hostlabel>.addr.hns
        }
        for record in records:
            labels = record.name.labels
            if len(labels) < 3 or labels[-1] != META_ORIGIN:
                continue
            kind = labels[-2]
            if kind not in suffixes or len(labels) != suffixes[kind] + 1:
                continue
            fields = decode_fields(record.data)
            if kind == "ctx":
                listing.contexts[labels[0]] = fields["ns"]
            elif kind == "q":
                listing.query_mappings[(labels[1], labels[0])] = fields["nsm"]
            elif kind == "nsm":
                listing.nsms[labels[0]] = NsmRecord.from_fields(labels[0], record.data)
            elif kind == "ns":
                listing.name_services[labels[0]] = NameServiceRecord.from_fields(
                    labels[0], record.data
                )
            elif kind == "addr":
                listing.nsm_hosts[fields["host"]] = fields["addr"]
        return listing

    def preload(self) -> typing.Generator:
        """Zone-transfer the whole meta zone into the cache.

        Returns the number of records loaded (~2 KB in the prototype,
        costing ~390 ms).
        """
        count = yield from self.resolver.preload_cache(META_ORIGIN)
        return count
