"""The verification cluster: gateway, routing, failover, local launcher.

One verifier process caps the fleet a deployment can protect at
whatever a single CPU verifies.  This module scales the trusted party
*out*: a :class:`ClusterGateway` is the gateway role of the one
:class:`~repro.service.server.FrameServer`, so it accepts the exact wire
protocol of a single verifier (same framing, same ops — clients cannot
tell a gateway from a verifier) and fans requests over N backend
verifier processes.

Design points, in the order a request meets them:

* **content routing** — every verify is routed by its verdict content
  key (:meth:`repro.service.cache.VerdictCache.key`: signer, digest,
  signature) over a consistent-hash ring
  (:class:`repro.service.ring.HashRing`), so one reference state always
  lands on the same backend and that backend's verdict cache stays
  hot.  Membership changes move only ~1/N keys.
* **gateway verdict cache** — a second :class:`VerdictCache` tier in
  the gateway, each entry *tagged* with the backend that produced it.
  When the health monitor detects a backend restart (its announced
  ``instance`` id changed), every verdict attributed to the old process
  is explicitly invalidated in one sweep.
* **aggregation** — one :class:`~repro.service.batching.MicroBatcher`
  per backend coalesces the singles that become ready in one event-loop
  tick into one window (no timer holds it open); the gateway's settle
  step ships it as one ``verify-batch`` frame, so the gateway⇄verifier
  hop costs one round trip per window.  The window amortizes the wire,
  not the arithmetic: the backend settles each item on its own.  A
  failed shipment fails every item of the window, and the routing loop
  re-issues each one.
* **idempotent failover** — verification is a pure function of the
  content key, so when a backend dies mid-batch every in-flight item is
  simply re-routed to the next live ring owner and re-issued.  An
  in-flight table keyed by content key deduplicates concurrent
  requests for the same verification, so re-issue can never produce a
  duplicated (or lost) verdict: one key, one future, one answer.
* **backend health** — one :class:`repro.service.health.HealthMonitor`
  decides where requests may go.  It pings every backend: K consecutive
  probe failures (or one request-path connection failure) mark it down,
  and a succeeding probe marks it back up — rejoin is rebalancing.  A
  *flapping* verifier (alive for probes, dead for requests) keeps
  passing probes, so K consecutive request-path failures hold it out of
  routing for a hold that doubles while the flapping continues: flaps
  cost idle time instead of failover round trips on live traffic.

:func:`spawn_verifier` / :class:`LocalCluster` launch real verifier
subprocesses plus an in-process gateway — the cluster tests and speed
gate, the CI ``cluster-smoke`` job, and ``python -m repro.service
spawn-cluster`` all go through them.
"""

from __future__ import annotations

import asyncio
import functools
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.crypto.canonical import CanonicalSpan, canonical_encode
from repro.exceptions import (
    ConfigurationError,
    NoBackendAvailable,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.batching import MicroBatcher
from repro.service.cache import VerdictCache
from repro.service.client import ServiceClient
from repro.service.health import BackendState, HealthMonitor
from repro.service.ring import DEFAULT_REPLICAS, HashRing
from repro.service.server import (
    EndpointThread,
    FrameCounters,
    FrameServer,
    ServiceConfig,
)
from repro.service.wire import MAX_FRAME_BYTES, check_wire_version

__all__ = [
    "ClusterConfig",
    "ClusterGateway",
    "ClusterThread",
    "LocalCluster",
    "SpawnedVerifier",
    "spawn_verifier",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one gateway, layered over per-verifier tunables.

    The layering is deliberate: ``service`` is a plain
    :class:`~repro.service.server.ServiceConfig` describing each
    *verifier* (cache size, fleet PKI, crypto backend) —
    the launcher passes it to every spawned backend — while the fields
    here describe the *gateway tier* (listen address, backend
    addresses, routing, aggregation, health, failover).
    """

    #: Backend verifier addresses.  Empty only for launcher-built
    #: configs where :class:`LocalCluster` fills them in after spawning.
    backends: Tuple[Tuple[str, int], ...] = ()
    host: str = "127.0.0.1"
    port: int = 0
    #: Per-verifier tunables (consumed by the launcher / CLI).
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Gateway-tier verdict-cache capacity; ``0`` disables the tier.
    cache_entries: int = 65536
    #: Gateway→backend aggregation window size bound; a smaller
    #: window ships at the end of the event-loop tick it opened in.
    gather_batch: int = 64
    connections_per_backend: int = 1
    health_interval: float = 0.25
    #: Consecutive probe failures before a backend is marked down, and
    #: consecutive request-path failures before it is held out of
    #: routing (:mod:`repro.service.health`).
    failure_threshold: int = 3
    #: Routing attempts per request before giving up (each failed
    #: attempt marks its backend down, so attempts never repeat a peer).
    max_attempts: int = 4
    ring_replicas: int = DEFAULT_REPLICAS
    max_frame: int = MAX_FRAME_BYTES


@dataclass
class _GatewayCounters(FrameCounters):
    """The gateway's accounting: the shared counters plus routing."""

    dedup_hits: int = 0
    failovers: int = 0
    reissues: int = 0
    holds: int = 0
    held_shed: int = 0
    no_backend: int = 0
    restarts_detected: int = 0
    invalidated_verdicts: int = 0


def _backend_name(address: Tuple[str, int]) -> str:
    return "%s:%d" % (str(address[0]), int(address[1]))


class ClusterGateway(FrameServer):
    """The gateway role: wire-compatible front door over N verifiers."""

    role = "gateway"
    metric_prefix = "gateway"

    def __init__(self, config: ClusterConfig) -> None:
        if not config.backends:
            raise ConfigurationError(
                "a cluster gateway needs at least one backend address"
            )
        super().__init__(config, _GatewayCounters())
        self._addresses: Dict[str, Tuple[str, int]] = {
            _backend_name(address): (str(address[0]), int(address[1]))
            for address in config.backends
        }
        self.ring = HashRing(self._addresses, replicas=config.ring_replicas)
        self.cache: Optional[VerdictCache] = (
            VerdictCache(config.cache_entries)
            if config.cache_entries > 0 else None
        )
        self.monitor = HealthMonitor(
            self._probe,
            interval=config.health_interval,
            failure_threshold=config.failure_threshold,
            on_down=self._on_backend_down,
            on_restart=self._on_backend_restart,
        )
        for name in self._addresses:
            self.monitor.add(name)
        self._backend_metrics = {
            name: {
                "routed": self.metrics.counter(
                    "gateway.backend.%s.routed" % name),
                "failovers": self.metrics.counter(
                    "gateway.backend.%s.failovers" % name),
                "reissues": self.metrics.counter(
                    "gateway.backend.%s.reissues" % name),
            }
            for name in self._addresses
        }
        self._clients: Dict[str, ServiceClient] = {}
        self._client_locks: Dict[str, asyncio.Lock] = {}
        self._batchers: Dict[str, MicroBatcher] = {
            name: MicroBatcher(
                functools.partial(self._ship, name), config.gather_batch,
            )
            for name in self._addresses
        }
        #: In-flight dedup: content key → the one future answering it.
        self._pending: Dict[Any, "asyncio.Future[Dict[str, Any]]"] = {}

    # -- backend connections -----------------------------------------------------

    async def _client(self, name: str) -> ServiceClient:
        """The pooled (negotiated) client to backend ``name``."""
        client = self._clients.get(name)
        if client is not None:
            return client
        lock = self._client_locks.setdefault(name, asyncio.Lock())
        async with lock:
            client = self._clients.get(name)
            if client is not None:
                return client
            host, port = self._addresses[name]
            client = await ServiceClient.connect(
                host, port,
                connections=self.config.connections_per_backend,
                max_frame=self.config.max_frame,
            )
            try:
                hello = await client.hello()
                check_wire_version(hello.get("wire"))
            except BaseException:
                await client.close()
                raise
            # A fresh connection's hello is liveness + identity
            # evidence: feed it to the monitor so restart detection
            # does not wait for the next probe round.
            self.monitor.record_success(name, hello)
            self._clients[name] = client
            return client

    async def _ship(self, name: str,
                    items: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Settle step of ``name``'s window: one ``verify-batch`` frame."""
        client = await self._client(name)
        return await client.verify_batch(items)

    async def _drop_client(self, name: str) -> None:
        client = self._clients.pop(name, None)
        if client is not None:
            try:
                await client.close()
            except Exception:  # noqa: BLE001 - already failing
                pass

    async def _probe(self, name: str) -> Dict[str, Any]:
        client = await self._client(name)
        try:
            hello = await client.hello()
        except BaseException:
            await self._drop_client(name)
            raise
        if hello.get("status") != "ok":
            raise ServiceError("backend %s failed its ping: %r"
                               % (name, hello))
        return hello

    # -- health transitions ------------------------------------------------------

    def _on_backend_down(self, state: BackendState) -> None:
        # Cached verdicts from a *down* backend stay valid (verdicts
        # are pure); only a *restart* invalidates.  Dropping the dead
        # client just forces a clean reconnect on rejoin.
        asyncio.ensure_future(self._drop_client(state.name))

    def _on_backend_restart(self, state: BackendState,
                            old_instance: str) -> None:
        self.counters.restarts_detected += 1
        if self.cache is not None:
            dropped = self.cache.invalidate(state.name)
            self.counters.invalidated_verdicts += dropped

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Probe every backend once, start the monitor, bind the listener."""
        await self.monitor.probe_once()
        self.monitor.start()
        return await super().start()

    async def stop(self) -> None:
        """Stop probing, ship open windows, close, drop backend clients."""
        await self.monitor.stop()
        for batcher in self._batchers.values():
            batcher.flush()
        await super().stop()
        for name in list(self._clients):
            await self._drop_client(name)

    # -- request handling --------------------------------------------------------

    async def _verify_item(self, item: Dict[str, Any]) -> Dict[str, Any]:
        self.counters.verify_requests += 1
        try:
            return await self._settle_verify(item)
        except NoBackendAvailable as exc:
            self.counters.no_backend += 1
            return self._item_error("no-backend", str(exc))
        except ServiceUnavailable as exc:
            self.counters.busy += 1
            return {"status": "busy", "reason": str(exc)}
        except Exception as exc:  # noqa: BLE001 - per-item isolation
            self.counters.errors += 1
            return self._item_error(
                "gateway-error", "%s: %s" % (type(exc).__name__, exc)
            )

    async def _settle_verify(self, item: Dict[str, Any]) -> Dict[str, Any]:
        parsed = self._parse_verify(item)
        if isinstance(parsed, dict):
            return parsed
        signer, message, signature = parsed

        key = VerdictCache.key(signer, message, signature)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.counters.cache_hits += 1
                return {"status": "ok", "verdict": cached,
                        "cache_hit": True, "batch_size": 0,
                        "queue_wait_us": 0, "tier": "gateway-cache"}

        # One content key, one in-flight settlement: a concurrent
        # duplicate awaits the original's future, so failover re-issue
        # can never yield two verdicts for one verification.
        pending = self._pending.get(key)
        if pending is not None:
            self.counters.dedup_hits += 1
            return dict(await asyncio.shield(pending))

        loop = asyncio.get_event_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._pending[key] = future
        try:
            wire_item = {"signer": signer, "message": message,
                         "signature": signature.to_canonical()}

            async def send(backend: str) -> Dict[str, Any]:
                return (await self._batchers[backend].submit(wire_item)).value

            result, backend = await self._route(key, send)
            result = dict(result)
            result.setdefault("backend", backend)
            if (self.cache is not None and result.get("status") == "ok"
                    and "verdict" in result):
                self.cache.put(key, result["verdict"], tag=backend)
            future.set_result(result)
            return result
        except BaseException as exc:
            if not future.done():
                future.set_exception(exc)
                # Mark retrieved: the duplicates that await this future
                # re-raise it, but when there are none asyncio would
                # otherwise log a never-retrieved exception.
                future.exception()
            raise
        finally:
            self._pending.pop(key, None)

    async def _handle_session(self, request_id: Any,
                              request: Dict[str, Any]) -> Dict[str, Any]:
        self.counters.session_requests += 1
        # The two large fields arrive as the client's canonical spans,
        # never decoded here; the ring key and the forwarded frame (and
        # any re-issue) splice those bytes.
        payload = {
            "prev_session": CanonicalSpan.of(request.get("prev_session")),
            "observed_state": CanonicalSpan.of(request.get("observed_state")),
            "checked_host": request.get("checked_host"),
            "checking_host": request.get("checking_host"),
            "op": "check-session",
        }

        async def send(backend: str) -> Dict[str, Any]:
            client = await self._client(backend)
            return await client.request(payload)

        # Session checks route by their canonical content, through the
        # same failover loop as verifies — re-execution is pure too.
        try:
            response, backend = await self._route(
                canonical_encode(payload), send
            )
        except NoBackendAvailable as exc:
            self.counters.no_backend += 1
            return self._error_response(request_id, "no-backend", str(exc))
        response = dict(response)
        response["id"] = request_id
        response.setdefault("backend", backend)
        return response

    async def _route(
        self, key: Any,
        send: Callable[[str], Awaitable[Dict[str, Any]]],
    ) -> Tuple[Dict[str, Any], str]:
        """``send`` to ``key``'s live backend, re-issuing across failures.

        Raises :class:`NoBackendAvailable` when every backend is down,
        or the last transport error once ``max_attempts`` are spent.
        """
        attempts = max(1, self.config.max_attempts)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            avoid, shed = self.monitor.avoid()
            self.counters.held_shed += shed
            backend = self.ring.route_avoiding(key, avoid)
            if backend is None:
                raise NoBackendAvailable(
                    "all %d verifier backends are down" % len(self.ring)
                )
            try:
                result = await send(backend)
            except (ServiceError, ConnectionError, OSError,
                    asyncio.IncompleteReadError) as exc:
                # The backend died under a real request: the monitor
                # marks it down on the spot (and may hold it), and the
                # request re-routes.  Verification and session
                # re-execution are pure, so the re-issue is idempotent
                # by construction.
                last_error = exc
                self.counters.failovers += 1
                self._backend_metrics[backend]["failovers"].inc()
                if attempt + 1 < attempts:
                    self.counters.reissues += 1
                    self._backend_metrics[backend]["reissues"].inc()
                if self.monitor.record_request_failure(backend):
                    self.counters.holds += 1
                await self._drop_client(backend)
                continue
            self.monitor.record_request_success(backend)
            self._backend_metrics[backend]["routed"].inc()
            return result, backend
        assert last_error is not None
        raise last_error

    def _role_stats(self) -> Dict[str, Any]:
        """Cache, health, ring, aggregation and config."""
        if self.metrics.enabled:
            self.metrics.gauge("gateway.backends.up").set(
                len(tuple(self.monitor.up_backends()))
            )
            if self.cache is not None:
                self.metrics.gauge("gateway.cache.hit_rate").set(
                    self.cache.stats().get("hit_rate") or 0.0
                )
        return {
            "cache": self.cache.stats() if self.cache is not None else None,
            "health": self.monitor.stats(),
            "ring": {
                "nodes": list(self.ring.nodes),
                "replicas": self.ring.replicas,
                "up": list(self.monitor.up_backends()),
            },
            "aggregation": {
                name: batcher.stats()
                for name, batcher in self._batchers.items()
            },
            "config": {
                "backends": [list(address)
                             for address in self.config.backends],
                "gather_batch": self.config.gather_batch,
                "cache_entries": self.config.cache_entries,
                "health_interval": self.config.health_interval,
                "failure_threshold": self.config.failure_threshold,
                "max_attempts": self.config.max_attempts,
            },
        }


class ClusterThread(EndpointThread):
    """An :class:`EndpointThread` hosting a :class:`ClusterGateway`."""

    start_timeout = 30.0

    def __init__(self, config: ClusterConfig) -> None:
        self.gateway = ClusterGateway(config)
        super().__init__(self.gateway)


# -- local multi-process launcher ------------------------------------------------


@dataclass
class SpawnedVerifier:
    """One verifier subprocess and where it listens."""

    process: subprocess.Popen
    address: Tuple[str, int]

    @property
    def name(self) -> str:
        return _backend_name(self.address)

    def alive(self) -> bool:
        return self.process.poll() is None

    # Leaving ``with self.process`` closes its stdout pipe and reaps it.
    def kill(self) -> None:
        """SIGKILL — the failover drill's mid-batch death."""
        with self.process:
            if self.alive():
                self.process.kill()

    def terminate(self, timeout: float = 5.0) -> None:
        with self.process:
            if self.alive():
                self.process.terminate()
                try:
                    self.process.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.process.kill()


def _subprocess_env() -> Dict[str, str]:
    """The child's env: ensure ``repro`` is importable as installed here."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing
        else src_dir + os.pathsep + existing
    )
    return env


def spawn_verifier(
    config: Optional[ServiceConfig] = None,
    *,
    startup_timeout: float = 60.0,
) -> SpawnedVerifier:
    """Launch one ``python -m repro.service serve`` verifier subprocess.

    Blocks until the child announces ``listening on host:port`` on its
    stdout (the same line the CI smoke jobs grep for) and returns the
    running process plus the bound address.  A child that fails to
    start is killed and reaped, and its stdout pipe closed, before the
    :class:`ServiceError` is raised.
    """
    config = config or ServiceConfig()
    command = [
        sys.executable, "-m", "repro.service", "serve",
        "--host", config.host,
        "--port", str(config.port),
        "--cache-entries", str(config.cache_entries),
        "--fleet-hosts", str(config.fleet_hosts),
    ]
    if config.backend is not None:
        command += ["--backend", config.backend]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_subprocess_env(),
        text=True,
    )
    deadline = time.monotonic() + startup_timeout
    assert process.stdout is not None
    while True:
        if time.monotonic() >= deadline:
            # Leaving ``with process`` closes its stdout pipe and reaps it.
            with process:
                process.kill()
            raise ServiceError(
                "verifier subprocess did not announce its address within "
                "%.0fs" % startup_timeout
            )
        line = process.stdout.readline()
        if not line:
            with process:
                code = process.wait()
            raise ServiceError(
                "verifier subprocess exited with code %r before binding"
                % code
            )
        line = line.strip()
        if line.startswith("listening on "):
            target = line[len("listening on "):]
            host, _, port = target.rpartition(":")
            if not host or not port.isdigit():
                with process:
                    process.kill()
                raise ServiceError(
                    "unparseable verifier announcement %r" % line
                )
            return SpawnedVerifier(
                process=process, address=(host, int(port))
            )


class LocalCluster:
    """N verifier subprocesses fronted by one in-thread gateway.

    The deployment-in-a-box used by the cluster speed gate, the CI
    ``cluster-smoke`` job, and ``python -m repro.service
    spawn-cluster``: real processes (real parallelism — the whole point
    of the cluster) behind a :class:`ClusterThread` gateway.
    """

    def __init__(self, verifiers: int = 3,
                 config: Optional[ClusterConfig] = None) -> None:
        if verifiers < 1:
            raise ConfigurationError("a cluster needs at least one verifier")
        self.num_verifiers = int(verifiers)
        self._template = config or ClusterConfig()
        self.verifiers: List[SpawnedVerifier] = []
        self.config: Optional[ClusterConfig] = None
        self.gateway_thread: Optional[ClusterThread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The gateway's bound address — a valid ``connect`` endpoint."""
        if self.gateway_thread is None:
            raise RuntimeError("the cluster has not been started")
        return self.gateway_thread.address

    @property
    def gateway(self) -> ClusterGateway:
        if self.gateway_thread is None:
            raise RuntimeError("the cluster has not been started")
        return self.gateway_thread.gateway

    def start(self) -> Tuple[str, int]:
        """Spawn the verifiers, then the gateway; returns its address."""
        try:
            for _ in range(self.num_verifiers):
                self.verifiers.append(spawn_verifier(self._template.service))
            self.config = replace(
                self._template,
                backends=tuple(v.address for v in self.verifiers),
            )
            self.gateway_thread = ClusterThread(self.config)
            return self.gateway_thread.start()
        except BaseException:
            self.stop()
            raise

    def kill_verifier(self, index: int = 0) -> SpawnedVerifier:
        """SIGKILL one verifier (the failover drill); returns it."""
        victim = self.verifiers[index]
        victim.kill()
        return victim

    def stop(self) -> None:
        if self.gateway_thread is not None:
            self.gateway_thread.stop()
            self.gateway_thread = None
        for verifier in self.verifiers:
            verifier.terminate()
        self.verifiers = []

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
