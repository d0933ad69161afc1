"""Load generation: replay journey request streams against a server.

The loadgen replays the deterministic request streams of
:mod:`repro.sim.requests` — optionally with an adversarial fraction of
corrupted signatures — against a live verification server, from one or
several **processes**, each driving a pool of pipelined connections at
a target request rate (``rps=0`` means as fast as the pipeline allows).

Every response is checked against the stream's in-process ground truth:
a ``verify`` verdict must equal the expected boolean, a
``check-session`` verdict must equal the expected canonical verdict
dictionary bit for bit.  The merged :class:`LoadgenReport` carries the
counts the CI smoke job asserts on (zero drops, zero mismatches) and
the latency distribution the benchmark section reports (p50/p99).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.exceptions import ServiceError
from repro.service.api import connect, resolve_endpoint
from repro.service.retry import RetryPolicy
from repro.sim.fleet import FleetConfig
from repro.sim.requests import (
    VerificationRequest,
    corrupt_requests,
    journey_request_stream,
)

__all__ = [
    "LoadgenReport",
    "build_loadgen_stream",
    "fetch_server_stats",
    "replay_requests",
    "run_loadgen",
    "percentile",
]

#: What a replay may safely retry: every service request is a pure
#: function of its payload, so transport transients — resets, torn
#: reads, a dead pooled connection surfacing as a
#: :class:`~repro.exceptions.ServiceError` — are retried; a typed
#: error *response* is an answer and is never retried.
LOADGEN_RETRYABLE = (OSError, EOFError, ServiceError)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of ``samples``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[index]


@dataclass
class LoadgenReport:
    """Merged outcome of one loadgen run."""

    sent: int = 0
    completed: int = 0
    busy: int = 0
    errors: int = 0
    retried: int = 0
    recovered: int = 0
    mismatches: int = 0
    corrupted: int = 0
    verify_requests: int = 0
    session_requests: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    mismatch_samples: List[Dict[str, Any]] = field(default_factory=list)
    processes: int = 1

    @property
    def dropped(self) -> int:
        """Requests that never produced an ok-response."""
        return self.sent - self.completed

    @property
    def achieved_rps(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def merge(self, other: "LoadgenReport") -> None:
        self.sent += other.sent
        self.completed += other.completed
        self.busy += other.busy
        self.errors += other.errors
        self.retried += other.retried
        self.recovered += other.recovered
        self.mismatches += other.mismatches
        self.corrupted += other.corrupted
        self.verify_requests += other.verify_requests
        self.session_requests += other.session_requests
        self.cache_hits += other.cache_hits
        self.wall_seconds = max(self.wall_seconds, other.wall_seconds)
        self.latencies.extend(other.latencies)
        self.mismatch_samples.extend(other.mismatch_samples[:4])

    def summary(self) -> Dict[str, Any]:
        """JSON-ready summary (latencies reduced to the distribution)."""
        return {
            "sent": self.sent,
            "completed": self.completed,
            "dropped": self.dropped,
            "busy": self.busy,
            "errors": self.errors,
            "retried": self.retried,
            "recovered": self.recovered,
            "mismatches": self.mismatches,
            "corrupted": self.corrupted,
            "verify_requests": self.verify_requests,
            "session_requests": self.session_requests,
            "cache_hits": self.cache_hits,
            "processes": self.processes,
            "wall_seconds": round(self.wall_seconds, 4),
            "achieved_rps": round(self.achieved_rps, 2),
            "latency_ms": {
                "p50": round(1e3 * percentile(self.latencies, 0.50), 3),
                "p99": round(1e3 * percentile(self.latencies, 0.99), 3),
                "max": round(1e3 * max(self.latencies), 3)
                if self.latencies else 0.0,
                "mean": round(
                    1e3 * sum(self.latencies) / len(self.latencies), 3
                ) if self.latencies else 0.0,
            },
            "mismatch_samples": self.mismatch_samples[:4],
        }


async def _fetch_stats(endpoint: Any, timeout: float) -> Dict[str, Any]:
    client = await connect(endpoint, connections=1, retry_timeout=timeout)
    try:
        response = await client.request({"op": "stats"})
    finally:
        await client.close()
    if response.get("status") != "ok":
        raise ValueError("stats op answered %r" % response.get("status"))
    return response.get("stats") or {}


def fetch_server_stats(endpoint: Any,
                       timeout: float = 10.0) -> Dict[str, Any]:
    """One ``stats`` round-trip against a live endpoint, or ``{}``.

    Loadgen artifacts embed the answer so every recorded number names
    the crypto backend (and cache state) that produced it; a server
    that cannot answer degrades the artifact, never the run — hence
    the broad swallow.
    """
    try:
        return asyncio.run(_fetch_stats(endpoint, timeout))
    except Exception:  # noqa: BLE001 - diagnostics are best-effort
        return {}


def build_loadgen_stream(
    config: FleetConfig,
    requests: int,
    adversarial_fraction: float = 0.0,
    include_sessions: bool = True,
    seed: int = 0,
) -> Tuple[List[VerificationRequest], int]:
    """Build a replayable stream of ``requests`` items from a fleet shape.

    The journey stream is repeated (in order) until the target count is
    reached — repeats are realistic service traffic and exercise the
    verdict cache — then the adversarial fraction is applied.  Returns
    ``(stream, corrupted_count)``.
    """
    captured = journey_request_stream(config)
    base = captured.requests if include_sessions else captured.verify_requests
    if not base:
        raise ValueError("the fleet configuration produced no requests")
    stream: List[VerificationRequest] = []
    while len(stream) < requests:
        stream.extend(base[:requests - len(stream)])
    return corrupt_requests(stream, adversarial_fraction, seed=seed)


async def replay_requests(
    endpoint: Any,
    requests: Sequence[VerificationRequest],
    rps: float = 0.0,
    connections: int = 2,
    max_inflight: int = 128,
    connect_timeout: float = 10.0,
    retry_deadline: float = 0.0,
) -> LoadgenReport:
    """Drive one async replay of ``requests`` against ``endpoint``.

    ``endpoint`` is anything :func:`repro.service.connect` accepts — a
    single server, a cluster gateway, or an in-process service thread;
    the replay is written once against the ``Verifier`` surface.
    ``rps`` schedules request starts on a fixed grid (0 = unthrottled);
    ``max_inflight`` bounds client-side concurrency so an unthrottled
    replay exerts backpressure-shaped load rather than a single burst.

    ``retry_deadline`` > 0 retries transport transients per request
    under a :class:`~repro.service.retry.RetryPolicy` with that
    deadline before counting an error — every replayed request is
    idempotent, so a backend restart mid-run costs latency, not drops.
    Requests that needed a retry are counted in ``retried`` and, when
    they ultimately succeeded, in ``recovered``.
    """
    report = LoadgenReport()
    client = await connect(
        endpoint, connections=connections, retry_timeout=connect_timeout
    )
    policy = (
        RetryPolicy(deadline=retry_deadline, retryable=LOADGEN_RETRYABLE)
        if retry_deadline > 0 else None
    )
    loop = asyncio.get_event_loop()
    gate = asyncio.Semaphore(max(1, int(max_inflight)))
    started = loop.time()

    async def one(index: int, request: VerificationRequest) -> None:
        if rps > 0:
            delay = started + index / rps - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
        async with gate:
            begin = loop.time()
            attempts = 0

            async def send() -> Dict[str, Any]:
                nonlocal attempts
                attempts += 1
                return await client.request(dict(request.payload))

            try:
                if policy is not None:
                    response = await policy.call(
                        send, describe="%s request %d" % (request.op, index)
                    )
                else:
                    response = await send()
            except Exception:
                report.errors += 1
                if attempts > 1:
                    report.retried += 1
                return
            if attempts > 1:
                report.retried += 1
                report.recovered += 1
            report.latencies.append(loop.time() - begin)
            status = response.get("status")
            if status == "busy":
                report.busy += 1
                return
            if status != "ok":
                report.errors += 1
                return
            report.completed += 1
            if response.get("cache_hit"):
                report.cache_hits += 1
            observed = response.get("verdict")
            if observed != request.expected:
                report.mismatches += 1
                if len(report.mismatch_samples) < 8:
                    report.mismatch_samples.append({
                        "op": request.op,
                        "journey": request.journey,
                        "expected": request.expected,
                        "observed": observed,
                    })

    report.sent = len(requests)
    for request in requests:
        if request.op == "verify":
            report.verify_requests += 1
        else:
            report.session_requests += 1
    try:
        await asyncio.gather(*(
            one(index, request) for index, request in enumerate(requests)
        ))
    finally:
        await client.close()
    report.wall_seconds = loop.time() - started
    return report


def _loadgen_worker(args: Tuple[Any, ...]) -> Dict[str, Any]:
    """Top-level worker (spawn-picklable): replay a slice of the stream."""
    (endpoint, requests, rps, connections, max_inflight,
     retry_deadline) = args
    report = asyncio.run(replay_requests(
        endpoint, requests, rps=rps, connections=connections,
        max_inflight=max_inflight, retry_deadline=retry_deadline,
    ))
    state = dict(report.__dict__)
    return state


def run_loadgen(
    endpoint: Any,
    requests: Sequence[VerificationRequest],
    processes: int = 1,
    rps: float = 0.0,
    connections: int = 2,
    max_inflight: int = 128,
    retry_deadline: float = 0.0,
) -> LoadgenReport:
    """Replay ``requests`` from ``processes`` worker processes.

    The stream is split round-robin so every process sees the same op
    mix; the target rate is divided evenly.  With ``processes=1`` the
    replay runs in this process (no multiprocessing machinery), which
    keeps single-process measurements clean.
    """
    # Workers are spawned: the endpoint crosses a pickle boundary, so
    # normalise any live-object shape down to its (host, port) now.
    endpoint = resolve_endpoint(endpoint)
    processes = max(1, int(processes))
    if processes == 1:
        report = asyncio.run(replay_requests(
            endpoint, list(requests), rps=rps, connections=connections,
            max_inflight=max_inflight, retry_deadline=retry_deadline,
        ))
        report.processes = 1
        return report

    slices: List[List[VerificationRequest]] = [[] for _ in range(processes)]
    for index, request in enumerate(requests):
        slices[index % processes].append(request)
    worker_args = [
        (endpoint, chunk, rps / processes if rps > 0 else 0.0,
         connections, max_inflight, retry_deadline)
        for chunk in slices if chunk
    ]
    context = multiprocessing.get_context("spawn")
    started = time.perf_counter()
    with context.Pool(processes=len(worker_args)) as pool:
        results = pool.map(_loadgen_worker, worker_args)
    wall = time.perf_counter() - started
    merged = LoadgenReport(processes=len(worker_args))
    for state in results:
        partial = LoadgenReport()
        partial.__dict__.update(state)
        merged.merge(partial)
    # Cross-process wall clock: the pool's envelope, which includes
    # worker spawn; individual worker walls are kept via merge(max).
    merged.wall_seconds = max(merged.wall_seconds, 0.0) or wall
    return merged
