"""The asyncio frame server and the reference-state verifier.

Hohl's framework places verification at trusted parties that many
migrating agents contact — the shape of a network service.
:class:`FrameServer` is the one asyncio TCP server of the service tier:
it accepts length-prefixed canonical-encoded requests
(:mod:`repro.service.wire`), maps frame errors to typed answers, and
serves ``ping`` and ``stats``.  Two roles subclass it — the verifier
below and the cluster gateway (:mod:`repro.service.cluster`) — and
:class:`EndpointThread` hosts either on a background event loop.

The verifier, :class:`VerificationService`, answers two kinds of
verification, each at most once per distinct request:

* ``verify`` — a raw DSA verification (signer name, message bytes,
  recoverable signature), settled inline with
  :meth:`~repro.crypto.dsa.DSAPublicKey.verify_recoverable`.  The
  verifier does not batch: the traffic it serves carries forged
  signatures, and a batch equation pays only when nearly every item is
  valid (Bellare, Garay and Rabin, Eurocrypt '98).
* ``check-session`` — a full ReferenceStateProtocol v3 session payload
  (``prev_session``: the session's metadata, initial state and input,
  with the checked host's and its sender's signed manifests).  The
  server verifies both manifests and re-executes the session via
  :func:`repro.core.protocol.check_session_payload`, returning the
  exact verdict the in-process protocol would produce.  A payload
  field of the wrong type is answered with an attack verdict, since it
  is the checked host's evidence that is bad.

Both are pure functions of their request, so one LRU
:class:`~repro.service.cache.VerdictCache` remembers both: a verify
verdict under its digest+signature key, a session verdict under the
hash of its exact span bytes and both host names, as its canonical
bytes (at most :data:`MAX_CACHED_VERDICT_BYTES`), which a hit splices
into the response without decoding or re-executing anything.

Every endpoint decodes a request frame's top level only: the two bulky
fields of a session check (:data:`SPAN_FIELDS`) arrive as canonical
spans.  The gateway forwards them as they came; the verifier decodes
them strictly in its session handler, and one that does not decode is
answered with a ``malformed-frame`` error carrying the request id.

Every response carries structured per-request metrics (cache hit,
batch size, queue wait) and the ``stats`` op exposes the aggregate
counters.

The PKI follows the library's deterministic model: principals' key
pairs derive from their names alone, so
:func:`build_service_keystore` reconstructs the public keys of any
fleet-shaped host population without key distribution.
"""

from __future__ import annotations

import asyncio
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

# Importing the workloads registers the fleet agent code with the
# process-wide registry, so session re-execution can resolve the code
# names arriving in check-session payloads.
import repro.workloads.shopping  # noqa: F401
import repro.workloads.survey  # noqa: F401
from repro.agents.state import AgentState
from repro.core.protocol import check_session_payload
from repro.crypto.canonical import (
    CanonicalDecoder,
    CanonicalSpan,
    canonical_decode,
    canonical_encode,
)
from repro.crypto.backend import get_backend, set_backend
from repro.crypto.dsa import RecoverableSignature
from repro.crypto.keys import Identity, KeyStore
from repro.exceptions import (
    AgentStateError,
    FrameTooLarge,
    MalformedFrame,
    SerializationError,
    TruncatedFrame,
)
from repro.obs import STATS_SCHEMA, new_registry
from repro.service.cache import VerdictCache
from repro.service.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_body,
    encode_frame,
    read_frame,
)
from repro.sim.fleet import FleetConfig, fleet_host_names

__all__ = [
    "EndpointThread",
    "FrameServer",
    "MAX_CACHED_VERDICT_BYTES",
    "SPAN_FIELDS",
    "ServiceConfig",
    "VerificationService",
    "ServiceThread",
    "build_service_keystore",
]


#: The largest session verdict, in canonical bytes, the verdict cache
#: keeps; a larger one is re-executed whenever it is asked again.  The
#: largest of the 240 session checks in a 60-journey fleet capture was
#: 940 B (seed 1) and 1087 B (seed 7), with a median of 347 B.
MAX_CACHED_VERDICT_BYTES = 2048


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one verification-server instance.

    Attributes
    ----------
    host / port:
        Listen address; port ``0`` asks the kernel for a free port
        (the bound port is reported by :meth:`VerificationService.start`).
    cache_entries:
        LRU verdict-cache capacity, shared by verify and session
        verdicts; ``0`` disables both.  A session verdict is kept as
        at most :data:`MAX_CACHED_VERDICT_BYTES` of canonical bytes, so
        the cache holds at most ``cache_entries`` × 2 KiB of verdict
        bytes — 128 MiB at the default — plus a few hundred bytes of
        key and bookkeeping per entry.
    max_frame:
        Largest accepted frame body; larger frames are rejected from
        the header alone, before any decode.
    fleet_hosts:
        Size of the fleet-shaped host population whose deterministic
        public keys the server registers at startup (``home`` plus
        ``host-001`` … ``host-NNN``).
    extra_principals:
        Additional principal names to register beyond the fleet shape.
    backend:
        Crypto backend to pin for this server process (``"python"``,
        ``"gmpy2"``, or ``"auto"``); ``None`` keeps whatever the
        process already resolved.  Pinning happens at construction so
        every verification this instance performs — and every number
        its ``stats`` op reports — is attributable to one engine.
    """

    host: str = "127.0.0.1"
    port: int = 0
    cache_entries: int = 65536
    max_frame: int = MAX_FRAME_BYTES
    fleet_hosts: int = 40
    extra_principals: Tuple[str, ...] = ()
    backend: Optional[str] = None


def build_service_keystore(num_hosts: int,
                           extra_principals: Tuple[str, ...] = ()) -> KeyStore:
    """Deterministic PKI for a fleet-shaped host population.

    Key pairs derive from principal names alone
    (:meth:`repro.crypto.keys.Identity.generate`), so a server and the
    fleets whose traffic it verifies agree on every public key without
    exchanging one byte of key material.
    """
    keystore = KeyStore()
    names = fleet_host_names(FleetConfig(num_hosts=max(1, int(num_hosts))))
    for name in list(names) + list(extra_principals):
        keystore.register_identity(Identity.generate(name))
    return keystore


#: The ops every endpoint answers; per-op latency histograms exist for
#: these names only.
_OPS = ("verify", "verify-batch", "check-session", "stats", "ping")

#: Request fields every endpoint keeps as undecoded canonical spans.
SPAN_FIELDS = frozenset(("prev_session", "observed_state"))
#: The nesting bound left for a span: it sat one level into the frame.
_SPAN_DEPTH = CanonicalDecoder.max_depth - 1


def _open_span(value: Any) -> Any:
    """Strictly decode a span cut from a request; other values pass."""
    if type(value) is CanonicalSpan:
        return canonical_decode(value.data, max_depth=_SPAN_DEPTH)
    return value


@dataclass
class FrameCounters:
    """Request accounting kept by the accept loop and the dispatcher."""

    connections: int = 0
    requests: int = 0
    verify_requests: int = 0
    batch_requests: int = 0
    session_requests: int = 0
    cache_hits: int = 0
    busy: int = 0
    errors: int = 0
    frames_rejected_oversize: int = 0
    frames_rejected_malformed: int = 0
    frames_truncated: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Counters(FrameCounters):
    """The verifier's accounting: the shared counters plus verdicts."""

    verdicts_true: int = 0
    verdicts_false: int = 0


class FrameServer:
    """One asyncio listener speaking the :mod:`repro.service.wire` protocol.

    The verifier (:class:`VerificationService`) and the cluster gateway
    (:class:`repro.service.cluster.ClusterGateway`) are two roles of
    this one server.  The base owns the listener, the frame loop with
    its error mapping, response writing, per-op latency telemetry, op
    dispatch, the ``verify-batch`` fan-out and the shared ``stats()``
    envelope.  A role supplies how one verify item settles
    (:meth:`_verify_item`), how a session check is answered
    (:meth:`_handle_session`), its counters and its own ``stats()``
    sections (:meth:`_role_stats`).

    ``config`` must carry ``host``, ``port`` and ``max_frame``.
    """

    #: ``ping``/``stats`` role name; also names the thread host.
    role = ""
    #: Prefix of the per-op latency histograms (``<prefix>.op.<op>.seconds``).
    metric_prefix = ""

    def __init__(self, config: Any, counters: FrameCounters) -> None:
        self.config = config
        self.counters = counters
        # A fresh random id per *process instance*: a restarted backend
        # announces a different id in its ping, which is how the cluster
        # gateway detects the restart and invalidates that backend's
        # cached verdicts.
        self.instance_id = secrets.token_hex(8)
        # Side-band telemetry (repro.obs): latency distributions that
        # the exact request counters in ``self.counters`` cannot give.
        # Histograms exist only for the known ops — request bodies carry
        # attacker-chosen op strings, which must never mint new metric
        # names.
        self.metrics = new_registry()
        self._op_latency = {
            op: self.metrics.histogram(
                "%s.op.%s.seconds" % (self.metric_prefix, op)
            )
            for op in _OPS
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Tuple[str, int]] = None
        self._client_writers: set = set()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; only valid after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("the %s has not been started" % self.role)
        return self._address

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        return self._address

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener and every client connection.

        Roles extend this: work they still hold is settled before, and
        outbound resources are released after.
        """
        if self._server is not None:
            self._server.close()
        # Closing the server-side transports EOFs every connection
        # handler, so they wind down on their own instead of being
        # cancelled mid-read.  It must come before ``wait_closed``,
        # which from Python 3.12.1 waits for every connection to drop.
        for writer in list(self._client_writers):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        await asyncio.sleep(0)

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.counters.connections += 1
        self._client_writers.add(writer)
        tasks: List["asyncio.Future[None]"] = []
        try:
            while True:
                try:
                    body = await read_frame(reader, self.config.max_frame)
                except (ConnectionError, OSError):
                    break
                except FrameTooLarge as exc:
                    # Rejected before decode; the stream position is
                    # unrecoverable past a refused body, so answer and
                    # close.
                    self.counters.frames_rejected_oversize += 1
                    self._write(writer, self._error_response(
                        None, "frame-too-large", str(exc)
                    ))
                    break
                except TruncatedFrame:
                    self.counters.frames_truncated += 1
                    break
                if body is None:
                    break
                try:
                    request = decode_body(body, SPAN_FIELDS)
                except MalformedFrame as exc:
                    # Framing intact: answer with a typed error and keep
                    # serving the connection.
                    self.counters.frames_rejected_malformed += 1
                    self._write(writer, self._error_response(
                        None, "malformed-frame", str(exc)
                    ))
                    continue
                # Dispatch as a task so slow settlements never stop this
                # connection (or its pipeline) from being read.
                task = asyncio.ensure_future(
                    self._process(request, writer)
                )
                tasks.append(task)
                tasks = [t for t in tasks if not t.done()]
        finally:
            for task in tasks:
                if not task.done():
                    try:
                        await asyncio.wait_for(task, timeout=None)
                    except Exception:  # noqa: BLE001 - teardown must finish
                        pass
            self._client_writers.discard(writer)
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    def _write(self, writer: asyncio.StreamWriter, response: Dict[str, Any]) -> None:
        """Write one response frame (single ``write`` call: atomic order).

        A response that cannot be framed (e.g. a session verdict whose
        state-difference details blow past ``max_frame``) degrades to a
        typed error response — the client must always receive *an*
        answer for the request id, never silence.
        """
        try:
            frame = encode_frame(response, self.config.max_frame)
        except FrameTooLarge:
            self.counters.errors += 1
            frame = encode_frame(self._error_response(
                response.get("id"), "response-too-large",
                "the response exceeded the %d-byte frame limit"
                % self.config.max_frame,
            ))
        try:
            writer.write(frame)
        except (ConnectionError, OSError):
            pass

    # -- request processing ------------------------------------------------------

    async def _process(self, request: Any,
                       writer: asyncio.StreamWriter) -> None:
        response = await self._respond(request)
        self._write(writer, response)
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _respond(self, request: Any) -> Dict[str, Any]:
        if not isinstance(request, dict):
            self.counters.errors += 1
            return self._error_response(
                None, "malformed-request", "request must be a mapping"
            )
        op = request.get("op")
        histogram = self._op_latency.get(op) if isinstance(op, str) else None
        if histogram is None:
            return await self._dispatch(request)
        started = time.perf_counter()
        try:
            return await self._dispatch(request)
        finally:
            histogram.observe(time.perf_counter() - started)

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        self.counters.requests += 1
        try:
            if op == "verify":
                return await self._handle_verify(request_id, request)
            if op == "verify-batch":
                return await self._handle_verify_batch(request_id, request)
            if op == "check-session":
                return await self._handle_session(request_id, request)
            if op == "stats":
                return {"id": request_id, "status": "ok",
                        "stats": self.stats()}
            if op == "ping":
                # The hello exchange: the server's version and identity
                # statement.  ``wire`` drives client-side negotiation;
                # ``instance`` changes on restart (restart detection).
                return {"id": request_id, "status": "ok",
                        "wire": WIRE_VERSION,
                        "instance": self.instance_id,
                        "role": self.role}
            self.counters.errors += 1
            return self._error_response(
                request_id, "unknown-op", "unsupported op %r" % (op,)
            )
        except Exception as exc:  # noqa: BLE001 - a request must never kill the server
            self.counters.errors += 1
            return self._error_response(
                request_id, "internal-error",
                "%s: %s" % (type(exc).__name__, exc),
            )

    async def _handle_verify(self, request_id: Any,
                             request: Dict[str, Any]) -> Dict[str, Any]:
        response = await self._verify_item(request)
        response["id"] = request_id
        return response

    async def _handle_verify_batch(self, request_id: Any,
                                   request: Dict[str, Any]) -> Dict[str, Any]:
        """The inter-tier aggregation op (``wire/2``).

        The cluster gateway ships one frame carrying many verify items
        to a verifier; each settles through the same path as a
        standalone ``verify``, and the response carries one result per
        item, in order.  Per-item failures (busy, malformed) stay
        per-item — one bad item never poisons its neighbours.
        """
        self.counters.batch_requests += 1
        items = request.get("items")
        if not isinstance(items, list):
            self.counters.errors += 1
            return self._error_response(
                request_id, "malformed-request",
                "verify-batch needs items:list",
            )
        results: List[Dict[str, Any]] = await asyncio.gather(*(
            self._verify_item(item if isinstance(item, dict) else {})
            for item in items
        ))
        return {"id": request_id, "status": "ok", "results": results}

    async def _verify_item(self, item: Dict[str, Any]) -> Dict[str, Any]:
        """Settle one verify item; the response carries no ``id`` yet."""
        raise NotImplementedError

    async def _handle_session(self, request_id: Any,
                              request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one ``check-session`` request."""
        raise NotImplementedError

    def _parse_verify(
        self, item: Dict[str, Any]
    ) -> Union[Dict[str, Any], Tuple[str, bytes, RecoverableSignature]]:
        """A verify item's ``(signer, message, signature)``, or the
        per-item error response (counted) when it does not decode."""
        signer = item.get("signer")
        message = item.get("message")
        signature_data = item.get("signature")
        if (not isinstance(signer, str) or not isinstance(message, bytes)
                or not isinstance(signature_data, dict)):
            self.counters.errors += 1
            return self._item_error(
                "malformed-request",
                "verify needs signer:str, message:bytes, signature:dict",
            )
        try:
            signature = RecoverableSignature.from_canonical(signature_data)
        except Exception:
            self.counters.errors += 1
            return self._item_error(
                "malformed-request", "undecodable signature"
            )
        return signer, message, signature

    # -- response shapes ---------------------------------------------------------

    @staticmethod
    def _item_error(error: str, detail: str) -> Dict[str, Any]:
        return {"status": "error", "error": error, "detail": detail}

    @staticmethod
    def _error_response(request_id: Any, error: str,
                        detail: str) -> Dict[str, Any]:
        return {
            "id": request_id,
            "status": "error",
            "error": error,
            "detail": detail,
        }

    def stats(self) -> Dict[str, Any]:
        """The ``repro-stats/1`` envelope plus the role's own sections.

        ``schema``/``role``/``instance``/``wire``/``counters``/
        ``telemetry``/``config`` are present for every role — the parity
        test in ``tests/service/test_api.py`` pins the shape.
        """
        # The role refreshes its gauges before telemetry is snapshotted.
        sections = self._role_stats()
        return {
            "schema": STATS_SCHEMA,
            "role": self.role,
            "instance": self.instance_id,
            "wire": WIRE_VERSION,
            "counters": self.counters.snapshot(),
            "telemetry": self.metrics.snapshot(),
            **sections,
        }

    def _role_stats(self) -> Dict[str, Any]:
        """Role-specific ``stats()`` sections, ``config`` included."""
        raise NotImplementedError


class VerificationService(FrameServer):
    """The verifier role: inline settling, verdict cache, session checks.

    Parameters
    ----------
    config:
        The server tunables.
    keystore:
        Public-key directory; defaults to the deterministic
        fleet-shaped PKI of :func:`build_service_keystore`.
    code_registry:
        Agent-code registry for session re-execution; defaults to the
        process-wide registry (the workload agents register on import).
    """

    role = "verifier"
    metric_prefix = "service"

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        keystore: Optional[KeyStore] = None,
        code_registry: Optional[Any] = None,
    ) -> None:
        super().__init__(config or ServiceConfig(), _Counters())
        if self.config.backend is not None:
            set_backend(self.config.backend)
        # Resolve (and thereby pin) the engine before any key material
        # is built, so the whole lifetime of this instance runs on it.
        self.backend = get_backend()
        self.keystore = keystore if keystore is not None else (
            build_service_keystore(
                self.config.fleet_hosts, self.config.extra_principals
            )
        )
        self.code_registry = code_registry
        self.cache: Optional[VerdictCache] = (
            VerdictCache(self.config.cache_entries)
            if self.config.cache_entries > 0 else None
        )
        #: Signature verifications settled, one ``verify_recoverable``
        #: each.
        self.settled = 0

    # -- request processing ------------------------------------------------------

    async def _verify_item(self, item: Dict[str, Any]) -> Dict[str, Any]:
        self.counters.verify_requests += 1
        parsed = self._parse_verify(item)
        if isinstance(parsed, dict):
            return parsed
        signer, message, signature = parsed

        key = VerdictCache.key(signer, message, signature)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.counters.cache_hits += 1
                return self._verdict_response(
                    cached, cache_hit=True, batch_size=0
                )

        public_key = self.keystore.maybe_get(signer)
        if public_key is None:
            # Unknown principals fail closed — and the refusal is itself
            # cacheable content (same key, same answer, forever).
            if self.cache is not None:
                self.cache.put(key, False)
            return self._verdict_response(
                False, cache_hit=False, batch_size=0,
                reason="unknown-signer",
            )

        verdict = public_key.verify_recoverable(message, signature)
        self.settled += 1
        if self.cache is not None:
            self.cache.put(key, verdict)
        return self._verdict_response(verdict, cache_hit=False, batch_size=1)

    async def _handle_session(self, request_id: Any,
                              request: Dict[str, Any]) -> Dict[str, Any]:
        self.counters.session_requests += 1
        prev_span = request.get("prev_session")
        observed_span = request.get("observed_state")
        checked_host = request.get("checked_host")
        if not isinstance(checked_host, str):
            checked_host = None
        checking_host = request.get("checking_host")
        key = None
        if (self.cache is not None and type(prev_span) is CanonicalSpan
                and type(observed_span) is CanonicalSpan
                and isinstance(checking_host, str)):
            key = VerdictCache.session_key(
                checking_host, checked_host,
                prev_span.data, observed_span.data,
            )
            cached = self.cache.get(key)
            if cached is not None:
                self.counters.cache_hits += 1
                return self._session_response(request_id, *cached)
        try:
            prev_session = _open_span(prev_span)
            observed_state = _open_span(observed_span)
        except SerializationError as exc:
            # The frame's top level decoded, so its id is known: answer
            # it, or a relaying gateway would wait on the id forever.
            self.counters.frames_rejected_malformed += 1
            return self._error_response(
                request_id, "malformed-frame",
                "frame body is not a canonical value: %s" % exc,
            )
        if (not isinstance(prev_session, dict)
                or not isinstance(observed_state, dict)
                or not isinstance(checking_host, str)):
            self.counters.errors += 1
            return self._error_response(
                request_id, "malformed-request",
                "check-session needs prev_session:dict, "
                "observed_state:dict, checking_host:str",
            )
        try:
            observed_state = AgentState.from_canonical(observed_state)
        except AgentStateError as exc:
            self.counters.errors += 1
            return self._error_response(
                request_id, "malformed-request",
                "observed_state is not an agent state: %s" % exc,
            )
        canonical = check_session_payload(
            prev_session,
            observed_state,
            checked_host,
            checking_host=checking_host,
            keystore=self.keystore,
            code_registry=self.code_registry,
        ).to_canonical()
        verdict = CanonicalSpan(canonical_encode(canonical))
        attack = canonical.get("status") == "attack-detected"
        if key is not None and len(verdict.data) <= MAX_CACHED_VERDICT_BYTES:
            self.cache.put(key, (verdict, attack))
        return self._session_response(request_id, verdict, attack)

    # -- response shapes ---------------------------------------------------------

    def _session_response(self, request_id: Any, verdict: CanonicalSpan,
                          attack: bool) -> Dict[str, Any]:
        if attack:
            self.counters.verdicts_false += 1
        else:
            self.counters.verdicts_true += 1
        return {"id": request_id, "status": "ok", "verdict": verdict}

    def _verdict_response(self, verdict: bool, *, cache_hit: bool,
                          batch_size: int,
                          reason: Optional[str] = None) -> Dict[str, Any]:
        if verdict:
            self.counters.verdicts_true += 1
        else:
            self.counters.verdicts_false += 1
        # Every settled item is its own window and never waits in a
        # queue; ``batch_size`` and ``queue_wait_us`` keep the wire
        # shape the clients read.
        response: Dict[str, Any] = {
            "status": "ok",
            "verdict": verdict,
            "cache_hit": cache_hit,
            "batch_size": batch_size,
            "queue_wait_us": 0,
        }
        if reason is not None:
            response["reason"] = reason
        return response

    def _role_stats(self) -> Dict[str, Any]:
        """Cache, settling, crypto engine and config."""
        if self.metrics.enabled and self.cache is not None:
            self.metrics.gauge("service.cache.hit_rate").set(
                self.cache.stats().get("hit_rate") or 0.0
            )
        return {
            "cache": self.cache.stats() if self.cache is not None else None,
            # Kept for readers that sum this section (the benchmark's
            # server process): each settled signature is a window of
            # one with no wait.
            "batching": {
                "items": self.settled,
                "batches": self.settled,
                "queue_wait_total": 0.0,
            },
            "crypto": {"backend": self.backend.name},
            "config": {
                "max_frame": self.config.max_frame,
                "cache_entries": self.config.cache_entries,
                "fleet_hosts": self.config.fleet_hosts,
                "backend": self.config.backend,
            },
        }


class EndpointThread:
    """Hosts a :class:`FrameServer` on a background event loop.

    The local cluster launcher and the test-suite need a live endpoint
    inside the current process without surrendering the main thread to
    an event loop; this helper owns a daemon thread running the loop and
    exposes ``start()``/``stop()`` with plain blocking semantics.
    """

    #: Default seconds :meth:`start` waits for the endpoint to bind.
    start_timeout = 10.0

    def __init__(self, endpoint: FrameServer) -> None:
        self.endpoint = endpoint
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — makes a started thread a valid
        endpoint for :func:`repro.service.connect`."""
        return self.endpoint.address

    def start(self, timeout: Optional[float] = None) -> Tuple[str, int]:
        """Start the loop thread and the endpoint; returns the address."""
        if self._thread is not None:
            return self.endpoint.address
        role = self.endpoint.role
        self._thread = threading.Thread(
            target=self._run, name="repro-%s" % role, daemon=True
        )
        self._thread.start()
        if not self._started.wait(
            self.start_timeout if timeout is None else timeout
        ):
            raise RuntimeError("%s thread failed to start in time" % role)
        if self._startup_error is not None:
            raise RuntimeError(
                "%s failed to start: %r" % (role, self._startup_error)
            )
        return self.endpoint.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.endpoint.start())
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.endpoint.stop())
            # Connection handlers may still be parked on reads; cancel
            # and drain them so closing the loop is silent.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the endpoint and join the loop thread."""
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._thread = None
        self._loop = None

    def stats(self) -> Dict[str, Any]:
        """The hosted endpoint's unified stats envelope."""
        return self.endpoint.stats()

    def __enter__(self) -> "EndpointThread":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class ServiceThread(EndpointThread):
    """An :class:`EndpointThread` hosting a :class:`VerificationService`."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 keystore: Optional[KeyStore] = None,
                 code_registry: Optional[Any] = None) -> None:
        self.service = VerificationService(
            config=config, keystore=keystore, code_registry=code_registry
        )
        super().__init__(self.service)
