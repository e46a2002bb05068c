"""The per-layer ledger: spans and counts recorded from outside.

:class:`Ledger` wraps the public entry points of each layer of the
``repro`` stack (class attributes, patched for the traced run only and
restored afterwards).  Every wrapped call becomes a span holding its
name, layer, simulated start and end, host self time, the enclosing
span in the same simulator process, and the id of the benchmark
operation whose process ran it (when it ran in that process).

Generator entry points are timed per resume: the wrapper drives the
wrapped generator itself, so each ``send``/``throw`` is one timed
slice.  Resumes nest exactly like the Python call stack, so a single
stack of open slices gives every slice's children, and a layer's self
time is its slices' time minus the time of the wrapped calls nested in
them.  Host time the wrappers do not cover is the simulation kernel's.

Slices are timed on the process CPU clock, the clock the run's total
is taken on, so the layers' self times and the kernel's remainder add
up to the traced run's CPU time.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import sys
import time
import typing

# Span fields, by position.
NAME, LAYER, SIM_START, SIM_END, SELF_S, PARENT, REQUEST, OK = range(8)


class Ledger:
    """Spans, self time per layer and boundary counts for one run."""

    def __init__(self, clock: typing.Callable[[], float] = time.process_time):
        self.clock = clock
        #: one [child seconds] cell per slice currently executing
        self._slices: typing.List[typing.List[float]] = []
        #: span index per executing slice (parallel to ``_slices``)
        self._open: typing.List[int] = []
        self.spans: typing.List[list] = []
        self.self_s: typing.Counter[str] = collections.Counter()
        self.calls: typing.Counter[str] = collections.Counter()
        self.counts: typing.Counter[str] = collections.Counter()
        #: datagrams sent from each benchmark operation's own process
        self.datagrams_by_request: typing.Counter[int] = collections.Counter()
        self.sim_ms: typing.Dict[str, typing.List[float]] = collections.defaultdict(list)
        #: resource name -> simulated waits for a grant
        self.waits: typing.Dict[str, typing.List[float]] = collections.defaultdict(list)
        self.env = None
        self.request_of: typing.Mapping[object, int] = {}
        self._patches: typing.List[typing.Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _start(self, name: str, layer: str) -> int:
        env = self.env
        now = env.now if env is not None else 0.0
        proc = env.active_process if env is not None else None
        parent = self._open[-1] if self._open else -1
        self.calls[name] += 1
        self.spans.append(
            [name, layer, now, now, 0.0, parent, self.request_of.get(proc, -1), True]
        )
        return len(self.spans) - 1

    def _finish(self, span: int, ok: bool) -> None:
        record = self.spans[span]
        record[SIM_END] = self.env.now if self.env is not None else 0.0
        record[OK] = ok
        self.sim_ms[record[NAME]].append(record[SIM_END] - record[SIM_START])

    def _enter(self, span: int) -> float:
        self._slices.append([0.0])
        self._open.append(span)
        return self.clock()

    def _leave(self, span: int, started: float) -> None:
        elapsed = self.clock() - started
        children = self._slices.pop()[0]
        self._open.pop()
        own = elapsed - children
        record = self.spans[span]
        record[SELF_S] += own
        self.self_s[record[LAYER]] += own
        if self._slices:
            self._slices[-1][0] += elapsed

    def drive(self, gen, name: str, layer: str, on_result=None):
        """Run generator ``gen`` as span ``name``, timing each resume."""
        span = self._start(name, layer)
        send: object = None
        error: typing.Optional[BaseException] = None
        while True:
            started = self._enter(span)
            try:
                if error is not None:
                    target = gen.throw(error)
                else:
                    target = gen.send(send)
            except StopIteration as stop:
                self._leave(span, started)
                self._finish(span, True)
                if on_result is not None:
                    on_result(stop.value)
                return stop.value
            except BaseException:
                self._leave(span, started)
                self._finish(span, False)
                raise
            self._leave(span, started)
            try:
                send, error = (yield target), None
            except GeneratorExit:
                gen.close()
                self._finish(span, False)
                raise
            except BaseException as err:  # noqa: BLE001 - forwarded into gen
                send, error = None, err

    def call(self, fn, args, kwargs, name: str, layer: str, on_result=None):
        """Run plain function ``fn`` as span ``name``."""
        span = self._start(name, layer)
        started = self._enter(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._leave(span, started)
            self._finish(span, False)
            raise
        self._leave(span, started)
        self._finish(span, True)
        if on_result is not None:
            on_result(result, *args)
        return result

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, generator=True, on_result=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper, spans named
        ``Owner.attr``, until :meth:`remove`."""
        original = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        ledger = self
        if generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if on_result is None:
                    done = None
                else:
                    def done(value):
                        on_result(value, *args)
                return ledger.drive(original(*args, **kwargs), name, layer, done)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return ledger.call(original, args, kwargs, name, layer, on_result)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_function(self, module_prefix: str, func, make) -> None:
        """Replace every module-level reference to ``func`` under
        ``module_prefix`` with ``make(func)``."""
        replacement = make(func)
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith(module_prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def remove(self) -> None:
        """Restore everything :meth:`wrap` and :meth:`wrap_function` patched."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def layer_self_s(self, total_s: float) -> typing.Dict[str, float]:
        """Self seconds per layer; ``sim`` also takes the time no
        wrapper covered, so the values add up to ``total_s``."""
        layers = {layer: s for layer, s in self.self_s.items() if layer != "sim"}
        layers["sim"] = total_s - sum(layers.values())
        return layers

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        fields = ("name", "layer", "sim_start", "sim_end", "self_s", "parent",
                  "request", "ok")
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, record in enumerate(self.spans):
                row = dict(zip(fields, record))
                row["id"] = index
                out.write(json.dumps(row, allow_nan=False) + "\n")


def instrument(ledger: Ledger) -> None:
    """Wrap each layer's public entry points (see ``layers.json``)."""
    from repro import resolution
    from repro.bind.resolver import BindResolver
    from repro.bind.server import BindServer
    from repro.clearinghouse.client import ClearinghouseClient
    from repro.clearinghouse.server import ClearinghouseServer
    from repro.core.hns import HNS
    from repro.core.import_call import HrpcImporter
    from repro.core.metastore import MetaStore
    from repro.core.nsm import NamingSemanticsManager, NsmStub
    from repro.hrpc.courier_binder import CourierBinderClient
    from repro.hrpc.portmapper import PortmapperClient
    from repro.hrpc.runtime import HrpcRuntime
    from repro.hrpc.server import HrpcServer
    from repro.net.transport import DatagramTransport, StreamTransport
    from repro.serial.courier import CourierRepresentation
    from repro.serial.generated import GeneratedMarshaller
    from repro.serial.handcoded import HandcodedMarshaller
    from repro.serial.xdr import XdrRepresentation
    from repro.sim.resources import CPU, Resource

    counts = ledger.counts
    wrap = ledger.wrap

    # sim: grant waits on every contended resource, and the CPU charges
    def on_request(req, resource):
        env = resource.env
        if req.triggered:
            ledger.waits[resource.name].append(0.0)
            return
        asked = env.now
        req._add_callback(lambda _ev: ledger.waits[resource.name].append(env.now - asked))

    wrap(Resource, "request", "sim", generator=False, on_result=on_request)
    wrap(CPU, "compute", "sim")

    # net
    def on_send(_value, transport, *_args, **_kwargs):
        counts["net.datagrams"] += 1
        proc = transport.env.active_process
        ledger.datagrams_by_request[ledger.request_of.get(proc, -1)] += 1

    wrap(DatagramTransport, "request", "net")
    wrap(DatagramTransport, "send", "net", on_result=on_send)
    wrap(StreamTransport, "request", "net")
    wrap(StreamTransport, "send", "net")

    # serial
    def on_encode(result, *_args):
        counts["serial.encodes"] += 1
        counts["serial.bytes"] += len(result[0])

    for marshaller in (HandcodedMarshaller, GeneratedMarshaller):
        wrap(marshaller, "encode", "serial", generator=False, on_result=on_encode)
        wrap(marshaller, "decode", "serial", generator=False)
    for representation in (XdrRepresentation, CourierRepresentation):
        wrap(representation, "encode", "serial", generator=False)
        wrap(representation, "decode", "serial", generator=False)

    # hrpc
    wrap(HrpcRuntime, "call", "hrpc")
    wrap(HrpcServer, "handle", "hrpc")
    wrap(PortmapperClient, "get_port", "hrpc")
    wrap(CourierBinderClient, "locate", "hrpc")

    # bind
    def on_lookup(_value, resolver, *_args, **_kwargs):
        if resolver.name.startswith("meta@"):
            counts["bind.meta_lookups"] += 1

    def on_ixfr(value, *_args, **_kwargs):
        counts["bind.ixfr_records"] += len(value[2]) + len(value[3])

    wrap(BindResolver, "lookup", "bind", on_result=on_lookup)
    wrap(BindResolver, "lookup_batch", "bind", on_result=on_lookup)
    wrap(BindResolver, "update", "bind")
    wrap(BindResolver, "update_batch", "bind")
    wrap(BindResolver, "incremental_zone_transfer", "bind", on_result=on_ixfr)
    wrap(BindServer, "handle", "bind")

    # clearinghouse
    wrap(ClearinghouseClient, "retrieve", "clearinghouse")
    wrap(ClearinghouseServer, "handle", "clearinghouse")

    # core
    def on_nsm_result(result, *_args, **_kwargs):
        counts["core.nsm.results"] += 1
        counts["core.nsm.from_cache"] += bool(result.from_cache)

    wrap(HrpcImporter, "import_binding", "core.import_call")
    wrap(HNS, "find_nsm", "core.hns")
    for attr in ("context_to_name_service", "nsm_name_for", "nsm_record",
                 "find_nsm_bundle", "name_service_record", "nsm_host_address",
                 "register_nsm", "register_nsm_host_address", "register_context",
                 "register_name_service", "register_query_mapping", "unregister"):
        wrap(MetaStore, attr, "core.metastore")
    wrap(NamingSemanticsManager, "query", "core.nsm", on_result=on_nsm_result)
    wrap(NsmStub, "call", "core.nsm")

    # resolution: the retry loop and the circuit breakers
    def on_allow(allowed, *_args):
        counts["resolution.breaker_fast_fails"] += not allowed

    wrap(resolution.CircuitBreaker, "allow", "resolution", generator=False,
         on_result=on_allow)

    def make_retrying(original):
        @functools.wraps(original)
        def retrying(env, policy, attempt, *args, **kwargs):
            def counted(index):
                counts["resolution.attempts"] += 1
                return attempt(index)

            return ledger.drive(
                original(env, policy, counted, *args, **kwargs),
                "resolution.retrying", "resolution",
            )
        return retrying

    ledger.wrap_function("repro", resolution.retrying, make_retrying)
