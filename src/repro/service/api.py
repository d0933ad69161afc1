"""The one public client surface of the verification service.

Callers used to juggle :class:`~repro.service.client.ServiceClient`,
raw ``(host, port)`` tuples, and retry helpers by hand — and the choice
of construction leaked into every call site.  This module collapses all
of it into a single entry point::

    verifier = await connect(endpoint)

where ``endpoint`` may be a ``"host:port"`` string, a ``(host, port)``
tuple, a started :class:`~repro.service.server.ServiceThread`, a
:class:`~repro.service.cluster.ClusterGateway`, or anything else with a
bound ``.address`` — the in-process handle, the single verifier node,
and the cluster gateway all satisfy the same :class:`Verifier` protocol
because every tier speaks the same wire protocol.  Code written against
``Verifier`` (the loadgen, the speed gates, the examples) does not
know or care how many processes answer it.

``connect`` also performs the hello negotiation: the server's ``ping``
response advertises its ``wire/<major>`` version, and a mismatched
major raises the typed
:class:`~repro.exceptions.WireVersionMismatch` at connect time instead
of a decode failure halfway through the first real request.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Tuple, \
    runtime_checkable

from repro.exceptions import ConfigurationError
from repro.service.client import ServiceClient
from repro.service.retry import RetryPolicy
from repro.service.wire import MAX_FRAME_BYTES, check_wire_version

__all__ = ["Verifier", "connect", "resolve_endpoint"]


@runtime_checkable
class Verifier(Protocol):
    """What every verification endpoint looks like to a caller.

    Satisfied structurally — by the pooled TCP client, by an in-process
    service handle, and by the cluster gateway client — so application
    code is written once against this protocol.
    """

    async def verify(self, signer: str, message: bytes,
                     signature: Any) -> Dict[str, Any]:
        """Verify one signature; returns the full ok-response."""
        ...

    async def verify_batch(
        self, items: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Verify many items in one frame; one result per item."""
        ...

    async def check_session(self, prev_session: Dict[str, Any],
                            observed_state: Dict[str, Any],
                            checked_host: Optional[str],
                            checking_host: str) -> Dict[str, Any]:
        """Run a protocol-v3 session check; returns the verdict."""
        ...

    async def stats(self) -> Dict[str, Any]:
        """The endpoint's aggregate metrics snapshot."""
        ...

    async def ping(self) -> bool:
        """Liveness check."""
        ...

    async def close(self) -> None:
        """Release every underlying connection."""
        ...


def resolve_endpoint(endpoint: Any) -> Tuple[str, int]:
    """Normalise any accepted endpoint shape to ``(host, port)``.

    Accepted shapes, in order of preference:

    * an object with a bound ``.address`` tuple (a started
      :class:`~repro.service.server.ServiceThread`, a
      :class:`~repro.service.server.VerificationService`, a
      :class:`~repro.service.cluster.ClusterGateway` or
      :class:`~repro.service.cluster.LocalCluster`);
    * a ``(host, port)`` tuple or list;
    * a ``"host:port"`` string (bare ``"host"`` is rejected — there is
      no default port to guess).
    """
    address = getattr(endpoint, "address", None)
    if address is not None and not isinstance(endpoint, (str, tuple, list)):
        endpoint = address() if callable(address) else address
    if isinstance(endpoint, (tuple, list)):
        if len(endpoint) != 2:
            raise ConfigurationError(
                "an endpoint tuple must be (host, port), got %r"
                % (endpoint,)
            )
        host, port = endpoint
        return str(host), int(port)
    if isinstance(endpoint, str):
        host, sep, port = endpoint.rpartition(":")
        if sep and host and port.isdigit():
            return host, int(port)
        raise ConfigurationError(
            "an endpoint string must be 'host:port', got %r" % (endpoint,)
        )
    raise ConfigurationError(
        "unsupported endpoint %r — pass 'host:port', (host, port), or an "
        "object with a bound .address" % (endpoint,)
    )


async def connect(
    endpoint: Any,
    *,
    connections: int = 1,
    retry_timeout: float = 10.0,
    retry: Optional[RetryPolicy] = None,
    negotiate: bool = True,
    max_frame: int = MAX_FRAME_BYTES,
) -> ServiceClient:
    """Open a :class:`Verifier` to ``endpoint`` — the one way to connect.

    Dialing is governed by a typed
    :class:`~repro.service.retry.RetryPolicy` — jittered exponential
    backoff under a deadline (a just-spawned server may still be
    binding; a thousand clients must not stampede it in lockstep).
    Pass ``retry`` to control the policy; the plain ``retry_timeout``
    shorthand builds one with that deadline.  The policy stays attached
    to the returned client, which transparently re-dials a pooled
    connection that has since died before using it — so a verifier
    restart costs callers one failed request at worst, not a dead
    client.

    After dialing comes the hello exchange: the server's advertised
    wire version must match this client's major or the typed
    :class:`~repro.exceptions.WireVersionMismatch` is raised and the
    connection is closed.  Pass ``negotiate=False`` only to talk to a
    pre-``wire/2`` server that cannot advertise.

    The returned object satisfies :class:`Verifier` regardless of what
    answers: a single verifier, a cluster gateway, or an in-process
    service thread.
    """
    host, port = resolve_endpoint(endpoint)
    policy = retry if retry is not None else RetryPolicy(
        deadline=retry_timeout
    )
    client = await policy.call(
        lambda: ServiceClient.connect(
            host, port, connections=connections, max_frame=max_frame,
            retry=policy,
        ),
        describe="connect to %s:%d" % (host, port),
    )
    if negotiate:
        try:
            hello = await client.hello()
            check_wire_version(hello.get("wire"))
        except BaseException:
            await client.close()
            raise
    return client
