"""The benchmark's four open-loop workloads.

Each workload builds its testbed from the public ``repro`` API, warms
its caches, and then offers a fixed Poisson stream of operations in
simulated time.  Inputs come from ``random.Random(seed)``; the program
only ever sees the generated names, arrival times and schedules.

``build(name, seed)`` returns a :class:`Workload` whose ``setup()``
stands everything up (timed as set-up) and whose ``run()`` offers the
timed stream.  After ``run()`` the workload's ``ops`` hold one
:class:`~common.Op` per offered operation.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
import typing

from common import Op, OpenLoop, poisson_arrivals, zipf_cumulative

# The repro package is importable once run.py has put ``src`` on the path.
from repro.bind import ResourceRecord
from repro.bind.secondary import SecondaryBindServer
from repro.clearinghouse import CHName
from repro.core.import_call import HrpcImporter, serve_agent
from repro.core.metastore import NsmRecord
from repro.core.names import HNSName
from repro.core.nsm import NsmStub
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.hrpc import CourierBinder, HRPCBinding, HrpcRuntime, HrpcServer, Portmapper
from repro.net.addresses import Endpoint
from repro.resolution import FastPathPolicy, PolicySet, ReplicaPolicy, UpdatePolicy
from repro.workloads import scenarios
from repro.workloads.scenarios import build_million_client_zipf, build_testbed

#: Latency limits, anchored to the paper's Table 3.1 cache-miss costs.
#: An Import through the agent slower than the table's cold Import
#: through an agent (row 2, column A: 517 ms) missed its limit; a meta
#: read or write slower than a whole cold all-local Import (row 1,
#: column A: 460 ms) missed its.  The million-client model's limit is
#: its own lookup maximum.
IMPORT_LIMIT_MS = 517.0
META_LIMIT_MS = 460.0
MCLIENT_LIMIT_MS = 40.0


def _run(env, gen):
    return env.run(until=env.process(gen))


class Workload:
    """Common shape: set up, then run the timed stream."""

    name = ""
    #: whether the workload injects faults (failures are then outcomes)
    faults = False
    #: seconds one set-up plus run takes on the host the benchmark was
    #: tuned on (a shared 2-vCPU x86-64 VM, in its slower spells); sizes
    #: the repetition count
    rep_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops: typing.List[Op] = []
        self.loop: typing.Optional[OpenLoop] = None
        self.env = None

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Import traffic through one shared agent
# ----------------------------------------------------------------------
class ImportZipf(Workload):
    """HRPC Imports from several client hosts through one agent.

    The population is (service, server host) pairs on both sides of
    the HCS: Sun hosts named in the public BIND and bound with the
    portmapper, and Xerox hosts named in the Clearinghouse and bound
    with the Courier binder.
    """

    name = "import_zipf"
    rep_s = 4.2
    limit_ms = IMPORT_LIMIT_MS
    sun_hosts = 12
    xde_hosts = 6
    services_per_host = 4
    client_hosts = 6
    #: keeps the agent's CPU near 40% busy: open loop, below saturation
    rate_per_s = 12.0
    warm_ops = 400
    #: enough that p99 has 60 samples beyond it (steady across seeds)
    timed_ops = 6000
    zipf_s = 1.1
    #: A-record TTL of the added Sun hosts, and the meta/Clearinghouse
    #: TTL: short enough that the NSM caches turn over during the run
    host_ttl_ms = 15_000.0
    meta_ttl_ms = 30_000.0

    def setup(self) -> None:
        cal = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=self.meta_ttl_ms)
        tb = self.testbed = build_testbed(seed=self.seed, calibration=cal)
        env = self.env = tb.env
        segment = tb.internet.segments[0]
        (zone,) = tb.public_server.zones
        # --- the server population ---------------------------------
        self.expected: typing.Dict[typing.Tuple[str, str], Endpoint] = {}
        sun_items, xde_items = [], []
        for i in range(self.sun_hosts):
            host = tb.internet.add_host(f"sun{i}", segment, system_type="sun")
            fqdn = f"sun{i}.cs.washington.edu"
            zone.add(ResourceRecord.a_record(fqdn, str(host.address), ttl=self.host_ttl_ms))
            pm = Portmapper(host, calibration=cal)
            pm.listen()
            for j in range(self.services_per_host):
                service, port = f"svc{j}", 7000 + 10 * i + j
                pm.register_local(service, port)
                name = HNSName(scenarios.BIND_CONTEXT, fqdn)
                self.expected[(service, str(name))] = Endpoint(host.address, port)
                sun_items.append((service, name))
        for i in range(self.xde_hosts):
            host = tb.internet.add_host(f"xde{i}", segment, system_type="xde")
            chname = f"xde{i}:hcs:uw"
            tb.ch_server.database.register(
                CHName.parse(chname), {"address": bytes(host.address.octets)}
            )
            binder = CourierBinder(host, calibration=cal)
            binder.listen()
            for j in range(self.services_per_host):
                service, port = f"crs{j}", 6100 + 10 * i + j
                binder.advertise_local(service, port)
                name = HNSName(scenarios.CH_CONTEXT, chname)
                self.expected[(service, str(name))] = Endpoint(host.address, port)
                xde_items.append((service, name))
        # Popularity ranks interleave the two sides evenly, so every seed
        # offers the same BIND/Clearinghouse mix; the seed draws the stream.
        population = []
        xde, total = len(xde_items), len(sun_items) + len(xde_items)
        for rank in range(total):
            take_xde = (rank + 1) * xde // total > rank * xde // total
            population.append((xde_items if take_xde else sun_items).pop(0))
        self.population = population
        self.cums = zipf_cumulative(len(population), self.zipf_s)
        # --- two meta secondaries -----------------------------------
        secondaries = []
        self.meta_replicas = []
        for i in range(2):
            host = tb.internet.add_host(f"metans{i + 1}", segment)
            sec = SecondaryBindServer(
                host, tb.meta_endpoint, origins=["hns"], transport=tb.udp,
                lookup_cost_ms=cal.meta_bind_lookup_ms, calibration=cal,
                replica_policy=ReplicaPolicy(), name=f"meta-bind{i + 1}",
            )
            secondaries.append(sec.listen())
            _run(env, sec.refresh_once())
            self.meta_replicas.append(host)
        # --- the agent: HNS + both binding NSMs linked in -------------
        policies = dataclasses.replace(
            PolicySet.default(), fast_path=FastPathPolicy(), replica=ReplicaPolicy()
        )
        agent_host = tb.agent_host
        hns = tb.make_hns(agent_host, policies=policies, secondaries=secondaries)
        stub = NsmStub(agent_host, calibration=cal)
        for nsm in (tb.make_bind_binding_nsm(agent_host), tb.make_ch_binding_nsm(agent_host)):
            nsm.fast_path = policies.fast_path
            hns.link_local_nsm(nsm)
            stub.link_local(nsm)
        server = HrpcServer(agent_host, name="agent")
        serve_agent(hns, server, stub)
        server.listen(scenarios.AGENT_PORT)
        binding = HRPCBinding(
            Endpoint(agent_host.address, scenarios.AGENT_PORT), "hnsagent", suite="sunrpc"
        )
        self.importers = []
        for i in range(self.client_hosts):
            host = tb.client if i == 0 else tb.internet.add_host(f"client{i}", segment)
            runtime = HrpcRuntime(host, tb.internet)
            self.importers.append(
                HrpcImporter.via_agent(
                    host, binding, runtime, calibration=cal, policy=policies.resolution
                )
            )
        self.loop = OpenLoop(env, self.check, watched={
            "client": tb.client,
            "agent": agent_host,
            "meta": tb.meta_host,
            "public_bind": tb.public_host,
            "clearinghouse": tb.ch_host,
        })
        self.before_warm()
        # --- warm-up: the same stream shape, untimed ------------------
        warm = self.make_ops(self.warm_ops, env.now)
        _run(env, self.loop.drive(warm, self.start))
        bad = [op for op in warm if op.outcome == "wrong"]
        if bad:
            raise AssertionError(f"warm-up Import returned a wrong binding: {bad[0]}")
        self.loop.reset()
        self.ops = self.make_ops(self.timed_ops, env.now)

    def before_warm(self) -> None:
        """Hook for variants (fault schedules)."""

    def make_ops(self, count: int, start_ms: float) -> typing.List[Op]:
        times = poisson_arrivals(self.rng, self.rate_per_s, count, start_ms)
        ops = []
        for index, at in enumerate(times):
            service, name = self.population[bisect.bisect_left(self.cums, self.rng.random())]
            client = self.rng.randrange(len(self.importers))
            ops.append(Op(index, "read", at, f"{client}|{service}|{name}"))
        return ops

    def start(self, op: Op):
        client, service, name = op.key.split("|", 2)
        return self.importers[int(client)].import_binding(service, HNSName.parse(name))

    def check(self, op: Op, binding) -> bool:
        _, service, name = op.key.split("|", 2)
        return binding.endpoint == self.expected[(service, name)]

    def run(self) -> None:
        _run(self.env, self.loop.drive(self.ops, self.start))


# ----------------------------------------------------------------------
# Import traffic through outages
# ----------------------------------------------------------------------
class OutageReads(ImportZipf):
    """The Import stream on a smaller population, with datagram loss
    throughout and crash windows on the meta-BIND replicas and, apart
    from them, on the public BIND.

    The schedule repeats ``cycles`` times in each half of the timed
    phase, so the health check compares two halves that saw the same
    outages, and the failure counts average over several windows.
    """

    name = "outage_reads"
    rep_s = 2.7
    faults = True
    sun_hosts = 6
    xde_hosts = 3
    services_per_host = 3
    rate_per_s = 12.0
    warm_ops = 200
    timed_ops = 4000
    host_ttl_ms = 10_000.0
    meta_ttl_ms = 15_000.0
    loss = 0.02
    #: outage cycles per half of the timed phase
    cycles = 6
    #: (offset, length) of each crash window, as shares of one cycle
    #: (about 28 s of simulated time): meta-BIND replicas down 4 s,
    #: public BIND down 0.28 s.  Longer windows tip the system over a
    #: cliff: past 7 s of meta outage FindNSM stalls longer than the
    #: client's call timeout, client breakers open and up to two thirds
    #: of all Imports fail; a public-BIND window longer than one
    #: transport resend interval (500 ms) fails the odd Import whose
    #: NSM lookup started inside it and lost a later resend.  These
    #: windows keep every Import succeeding, through hedged meta reads
    #: and transport resends.
    meta_window = (0.1, 0.15)
    public_window = (0.55, 0.01)

    def before_warm(self) -> None:
        self.testbed.internet.segments[0].drop_probability = self.loss

    def run(self) -> None:
        env = self.env
        cycle = (self.ops[-1].arrival_ms - env.now) / (2 * self.cycles)
        meta_hosts = [self.testbed.meta_host] + self.meta_replicas
        public_hosts = [self.testbed.public_host]

        def outage(hosts, at_ms, length_ms):
            yield env.timeout(at_ms)
            for host in hosts:
                host.crash()
            yield env.timeout(length_ms)
            for host in hosts:
                host.restart()

        for index in range(2 * self.cycles):
            base = index * cycle
            for hosts, (offset, length) in (
                (meta_hosts, self.meta_window),
                (public_hosts, self.public_window),
            ):
                env.process(outage(hosts, base + offset * cycle, length * cycle))
        super().run()


# ----------------------------------------------------------------------
# Rebinding churn beside NOTIFY-subscribed readers
# ----------------------------------------------------------------------
class RebindChurn(Workload):
    """An administrator rebinds NSMs and renumbers NSM hosts through
    the batched update path while subscribed readers resolve them."""

    name = "rebind_churn"
    rep_s = 5.0
    limit_ms = META_LIMIT_MS
    #: the reader fleet of the repo's update_path grid
    #: (``repro.harness.grids.run_update_path``): eight warm MetaStores
    #: on the client host, each polling every 250 ms
    readers = 8
    poll_ms = 250.0
    read_rate_per_s = readers * 1000.0 / poll_ms
    #: the moving names: as many as that grid's registration storm (32),
    #: half NSM rebinds and half NSM-host renumberings
    nsm_keys = 16
    addr_keys = 16
    #: keeps the meta-BIND host's CPU about 38% busy (the client's about
    #: 18%), near the load import_zipf puts on its agent: open loop,
    #: below saturation.  Measured by arrival sampling at seed 11:
    #: 1, 2 and 4 writes/s put the meta CPU at 21%, 38% and 61%.
    write_rate_per_s = 2.0
    #: enough writes (and so visibility lags) for a p99 with ten beyond
    timed_writes = 1200
    warm_reads = 200
    #: meta-record TTL of that grid's readers.  NOTIFY keeps the caches
    #: fresh; a push that races an in-flight pull is dropped by design,
    #: and TTL expiry then bounds how long a reader stays stale
    meta_ttl_ms = 60_000.0
    #: quiet time after the stream before the convergence check: one
    #: TTL and then some, so the check covers readers that missed a push
    settle_ms = meta_ttl_ms + 5_000.0

    def setup(self) -> None:
        update = UpdatePolicy(invalidation="notify")
        cal = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=self.meta_ttl_ms)
        tb = self.testbed = build_testbed(
            seed=self.seed, calibration=cal, update_policy=update
        )
        env = self.env = tb.env
        self.writer = tb.make_metastore(
            tb.agent_host,
            policies=dataclasses.replace(PolicySet.default(), update=update),
        )
        self.nsm_hosts = [tb.nsm_host, tb.june, tb.hns_host]
        keys = [f"nsm:churn{i}" for i in range(self.nsm_keys)]
        keys += [f"addr:mv{i}.cs.washington.edu" for i in range(self.addr_keys)]
        self.keys = keys
        # Initial values, written through the same batched path.
        self.allowed: typing.Dict[str, typing.Set[str]] = {k: set() for k in keys}
        initial = [self._write_gen(key, -1 - n) for n, key in enumerate(keys)]
        for n, key in enumerate(keys):
            self.allowed[key].add(self._value(key, -1 - n))
        _run(env, self._all(initial))
        self.stores = [tb.make_metastore(tb.client) for _ in range(self.readers)]
        for store in self.stores:
            _run(env, self._all([self._read_gen(store, key) for key in keys]))
            _run(env, store.subscribe_invalidation())
        self.loop = OpenLoop(env, self.check, watched={
            "client": tb.client,
            "agent": tb.agent_host,
            "meta": tb.meta_host,
        })
        warm = self._make_reads(self.warm_reads, env.now)
        _run(env, self.loop.drive(warm, self.start))
        self.loop.reset()
        self.ops = self._make_ops(env.now)

    def _all(self, gens):
        env = self.env
        procs = [env.process(gen) for gen in gens]
        yield env.all_of(procs)

    def _value(self, key: str, n: int) -> str:
        if key.startswith("nsm:"):
            host = self.nsm_hosts[n % len(self.nsm_hosts)]
            return f"{host.name}.cs.washington.edu:{20_000 + n % 40_000}"
        n += 1_000
        return f"10.{9 + n // 62_500}.{n // 250 % 250}.{n % 250 + 1}"

    def _write_gen(self, key: str, n: int):
        kind, name = key.split(":", 1)
        value = self._value(key, n)
        if kind == "addr":
            return self.writer.register_nsm_host_address(name, value)
        host_name, port = value.rsplit(":", 1)
        record = NsmRecord(
            name=name, query_class="HRPCBinding", name_service=scenarios.BIND_NS,
            host_name=host_name, host_context=scenarios.SRV_CONTEXT,
            program=f"nsm.{name}", suite="sunrpc", port=int(port),
        )
        return self.writer.register_nsm(record)

    def _read_gen(self, store, key: str):
        kind, name = key.split(":", 1)
        if kind == "addr":
            value = yield from store.nsm_host_address(name)
            return value
        record = yield from store.nsm_record(name)
        return f"{record.host_name}:{record.port}"

    def _make_reads(self, count: int, start_ms: float) -> typing.List[Op]:
        times = poisson_arrivals(self.rng, self.read_rate_per_s, count, start_ms)
        ops = []
        for n, at in enumerate(times):
            key = self.keys[self.rng.randrange(len(self.keys))]
            reader = self.rng.randrange(len(self.stores))
            ops.append(Op(n, "read", at, f"{reader}|{key}"))
        return ops

    def _make_ops(self, start_ms: float) -> typing.List[Op]:
        writes = poisson_arrivals(self.rng, self.write_rate_per_s, self.timed_writes, start_ms)
        order = list(self.keys)
        self.rng.shuffle(order)
        ops = []
        for n, at in enumerate(writes):
            key = order[n % len(order)]
            self.allowed[key].add(self._value(key, n))
            ops.append(Op(0, "write", at, f"{n}|{key}"))
        reads = self.timed_writes * self.read_rate_per_s / self.write_rate_per_s
        ops += self._make_reads(int(reads), start_ms)
        ops.sort(key=lambda op: op.arrival_ms)
        for index, op in enumerate(ops):
            op.index = index
        return ops

    def start(self, op: Op):
        head, key = op.key.split("|", 1)
        if op.kind == "write":
            return self._write_gen(key, int(head))
        return self._read_gen(self.stores[int(head)], key)

    def check(self, op: Op, value) -> bool:
        if op.kind == "write":
            return True
        return value in self.allowed[op.key.split("|", 1)[1]]

    def run(self) -> None:
        env = self.env
        _run(env, self.loop.drive(self.ops, self.start))
        env.run(until=env.now + self.settle_ms)
        # Convergence: every reader now sees each key's last acked write.
        last: typing.Dict[str, typing.Tuple[float, str]] = {}
        for op in self.ops:
            if op.kind == "write" and op.ok:
                head, key = op.key.split("|", 1)
                acked = op.arrival_ms + op.latency_ms
                if key not in last or acked >= last[key][0]:
                    last[key] = (acked, self._value(key, int(head)))
        self.diverged = []
        for reader, store in enumerate(self.stores):
            for key, (_, want) in sorted(last.items()):
                got = _run(env, self._read_gen(store, key))
                if got != want:
                    self.diverged.append((reader, key, got, want))

    def staleness_inputs(self):
        """(writes, reads) in the shape :func:`common.staleness` takes."""
        writes, reads = [], []
        for op in self.ops:
            if not op.ok:
                continue
            head, key = op.key.split("|", 1)
            done = op.arrival_ms + op.latency_ms
            if op.kind == "write":
                writes.append((key, done, self._value(key, int(head))))
            else:
                reads.append((key, done, op.value))
        return writes, reads


# ----------------------------------------------------------------------
# The million-client kernel model
# ----------------------------------------------------------------------
class MclientZipf(Workload):
    """``build_million_client_zipf`` at a few hundred thousand clients.

    The model runs as one call, so the benchmark sees its aggregate
    statistics rather than one record per client.  Set-up is a
    fiftieth-size run of the same model, which pays the interpreter's
    first-run costs before the timed run; it is kept that small because
    every run sets up sixteen times.
    """

    name = "mclient_zipf"
    rep_s = 5.6
    limit_ms = MCLIENT_LIMIT_MS
    clients = 200_000
    contexts = 20_000
    mean_interarrival_ms = 0.05
    #: short enough that a fifth of lookups miss, so the tail is a lookup
    ttl_ms = 1_000.0
    sweep_interval_ms = 2_000.0

    def _model(self, clients: int):
        return build_million_client_zipf(
            seed=self.seed,
            clients=clients,
            contexts=self.contexts,
            mean_interarrival_ms=self.mean_interarrival_ms,
            ttl_ms=self.ttl_ms,
            sweep_interval_ms=self.sweep_interval_ms,
        )

    def setup(self) -> None:
        self._model(self.clients // 50)

    def run(self) -> None:
        self.env = self._model(self.clients)


WORKLOADS = {
    cls.name: cls for cls in (ImportZipf, RebindChurn, OutageReads, MclientZipf)
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
