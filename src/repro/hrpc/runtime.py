"""Client-side HRPC: executing calls against a binding.

"In homogeneous systems, the choice of RPC components is fixed at
implementation time ... With HRPC, these components have been separated
from each other and made dynamically selectable."  The runtime looks at
the binding's suite name at call time and picks the matching transport,
data representation, and control costs.
"""

from __future__ import annotations

import typing

from repro.hrpc.binding import HRPCBinding
from repro.hrpc.errors import HrpcError
from repro.hrpc.server import RpcReply, RpcRequest
from repro.hrpc.suites import suite_named
from repro.net.errors import is_transient
from repro.net.host import Host
from repro.net.internet import Internetwork
from repro.net.transport import (
    DatagramTransport,
    RemoteCallError,
    StreamTransport,
    Transport,
)
from repro.resolution import ResolutionPolicy, retrying


def classify_error(exc: BaseException) -> str:
    """``"transient"`` or ``"permanent"``, for retry decisions.

    Transient: the transport could not complete the exchange (timeout,
    crashed host, refused connection) — trying again may succeed and is
    safe because the request never reached application code, or at
    worst re-executes an idempotent lookup.

    Permanent: everything else.  In particular a
    :class:`~repro.net.transport.RemoteCallError` means the remote
    *service* raised — the call was delivered and answered, so retrying
    it would just re-raise the same application error (or worse, repeat
    a non-idempotent operation).  ``RemoteCallError`` is therefore never
    retried anywhere in the stack.
    """
    if isinstance(exc, RemoteCallError):
        return "permanent"
    return "transient" if is_transient(exc) else "permanent"


class HrpcRuntime:
    """Per-host HRPC client machinery."""

    def __init__(self, host: Host, internet: Internetwork):
        self.host = host
        self.env = host.env
        self.internet = internet
        self._transports: typing.Dict[str, Transport] = {
            "udp": DatagramTransport(internet),
            "tcp": StreamTransport(internet),
        }

    def transport_named(self, name: str) -> Transport:
        transport = self._transports.get(name)
        if transport is None:
            raise HrpcError(f"unknown transport {name!r}")
        return transport

    def call(
        self,
        binding: HRPCBinding,
        procedure: str,
        *args: object,
        arg_size_bytes: int = 128,
        timeout_ms: typing.Optional[float] = None,
        policy: typing.Optional[ResolutionPolicy] = None,
    ) -> typing.Generator:
        """Invoke ``procedure`` on the program the binding points at.

        Component selection happens here, at call time, from the
        binding: transport, data representation (reflected in the
        control cost), and control protocol all come from the suite.
        Remote exceptions re-raise in the caller.

        With a :class:`ResolutionPolicy`, transport-level failures that
        :func:`classify_error` deems transient are retried with
        jittered exponential backoff; a :class:`RemoteCallError` — the
        remote service itself raising — is permanent and never retried.
        """
        suite = suite_named(binding.suite)
        transport = self.transport_named(suite.transport)
        with self.env.obs.span(
            "hrpc.call",
            program=binding.program,
            procedure=procedure,
            suite=binding.suite,
        ):
            # Client-side control protocol + argument marshalling.
            yield from self.host.cpu.compute(suite.client_control_ms)
            request = RpcRequest(
                program=binding.program,
                procedure=procedure,
                args=args,
                suite=binding.suite,
                arg_size_bytes=arg_size_bytes,
            )
            if timeout_ms is None and policy is not None:
                timeout_ms = policy.call_timeout_ms
            self.env.stats.counter(f"hrpc.calls.{binding.suite}").increment()
            try:
                reply = yield from retrying(
                    self.env,
                    policy,
                    lambda _i: transport.request(
                        self.host,
                        binding.endpoint,
                        request,
                        arg_size_bytes,
                        timeout_ms=timeout_ms,
                    ),
                    classify=lambda err: classify_error(err) == "transient",
                    rng_stream="hrpc.backoff",
                    stat="hrpc.retries",
                )
            except RemoteCallError as err:
                # Surface the remote exception as if raised locally,
                # which is what an RPC control protocol's error path
                # does.  Never retried: the call reached the service.
                raise err.remote_exception from err
            if not isinstance(reply, RpcReply):
                raise HrpcError(f"malformed reply {reply!r}")
            return reply.result
