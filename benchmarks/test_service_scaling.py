"""Service and cluster speed gates, measured on one fleet request stream.

Two claims are gated here, both on the verify traffic of one
150-journey protected fleet (:mod:`repro.sim.requests`) replayed over
loopback TCP:

1. the service, settling each signature inline, reaches at least half
   the signature-verification rate of the same fleet run in process,
   single worker, per CPU second (cache-less, the median of rounds);
2. a gateway over 3 verifier subprocesses beats the same gateway over
   one verifier by at least 1.6x.

Two legs measure the verifier's real path on the mix it sees, with no
speed gate:

* a report: one-by-one ``verify_recoverable``, the verifier's settle
  step, against the batch equation
  (:func:`~repro.crypto.batch.verify_window`) on windows of 12, with
  none and with 10% of the signatures forged — the mix the
  ``gateway-mixed`` benchmark sends;
* a count: replaying a stream's session checks twice re-executes each
  distinct session exactly once, at a verifier and through a gateway
  over one verifier, whose cache answers every repeat.

Every timed replay must also match the in-process verdicts with zero
drops.  Verdict parity, the SIGKILL failover drill and the session
checks have their own tests in ``tests/service``.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from random import Random

import pytest

import repro.service.server as server_module
from benchmarks.reportutil import write_report
from repro.crypto.batch import verify_window
from repro.crypto.canonical import canonical_encode
from repro.crypto.dsa import RecoverableSignature
from repro.service.cluster import ClusterConfig, ClusterGateway, LocalCluster
from repro.service.loadgen import replay_requests
from repro.service.server import (
    ServiceConfig,
    VerificationService,
    build_service_keystore,
)
from repro.sim import FleetConfig
from repro.sim.requests import corrupt_requests, journey_request_stream
from repro.sim.shard import run_fleet

#: Service throughput over the in-process fleet's
#: signature-verification rate, per CPU second: the service rate is
#: the median over :data:`SERVICE_ROUNDS` rounds, each replaying the
#: stream for at least :data:`MIN_ROUND_CPU_SECONDS`.
MIN_SERVICE_FLEET_RATIO = 0.5
SERVICE_ROUNDS = 3
MIN_ROUND_CPU_SECONDS = 0.5

#: 3-verifier cluster throughput over 1-verifier cluster throughput.
CLUSTER_GATE_VERIFIERS = 3
MIN_CLUSTER_SCALING = 1.6

CLUSTER_BATCH = 64
CONNECTIONS = 2
MAX_INFLIGHT = 256

CONFIG = FleetConfig(
    num_agents=150,
    num_hosts=20,
    hops_per_journey=3,
    malicious_host_fraction=0.2,
    seed=2026,
    protected=True,
)


@pytest.fixture(scope="module")
def verify_requests():
    return journey_request_stream(CONFIG, max_session_checks=0).verify_requests


async def _replay(endpoint, requests):
    report = await replay_requests(
        endpoint, requests,
        connections=CONNECTIONS, max_inflight=MAX_INFLIGHT,
    )
    assert report.mismatches == 0 and report.dropped == 0, (
        "verdicts diverged from the in-process ground truth "
        "(mismatches=%d, dropped=%d): %r"
        % (report.mismatches, report.dropped, report.mismatch_samples[:2])
    )
    return report


def _service_cpu_rate(requests) -> float:
    """Requests per CPU second of one cache-less round on a fresh
    in-process server: the stream is replayed until the round has
    spent :data:`MIN_ROUND_CPU_SECONDS`.

    Server and client share one event loop: both ends are CPU-bound
    Python, so a second thread would only add GIL noise, and the
    process's CPU time covers both ends and nothing else.
    """
    async def one_round() -> float:
        service = VerificationService(ServiceConfig(
            fleet_hosts=CONFIG.num_hosts, cache_entries=0,
        ))
        await service.start()
        try:
            replayed = 0
            started = time.process_time()
            while True:
                await _replay(service.address, requests)
                replayed += len(requests)
                spent = time.process_time() - started
                if spent >= MIN_ROUND_CPU_SECONDS:
                    return replayed / spent
        finally:
            await service.stop()

    return asyncio.run(one_round())


def test_service_fleet_ratio(verify_requests):
    # In-process reference first: it also warms this process's keys and
    # fixed-base tables, so no service round pays for them.
    started = time.process_time()
    fleet = run_fleet(CONFIG, workers=1)
    fleet_rate = (fleet.verifier_stats["verified"]
                  / (time.process_time() - started))

    rates = sorted(_service_cpu_rate(verify_requests)
                   for _ in range(SERVICE_ROUNDS))
    service_rps = statistics.median(rates)
    fleet_ratio = service_rps / fleet_rate

    write_report("service_scaling.md", "\n".join([
        "# Verification service throughput",
        "",
        "%d verify requests from a %d-journey fleet" % (
            len(verify_requests), CONFIG.num_agents,
        ),
        "",
        "per CPU second; the service leg is the median of %d cache-less "
        "rounds of at least %.1f s" % (
            SERVICE_ROUNDS, MIN_ROUND_CPU_SECONDS,
        ),
        "",
        "| leg | per CPU second |",
        "|---|---|",
        "| service, settled one by one | %.1f (%.1f-%.1f) |" % (
            service_rps, rates[0], rates[-1],
        ),
        "| in-process fleet verifications | %.1f |" % fleet_rate,
        "",
        "service / fleet: %.2fx (gate %.1fx)" % (
            fleet_ratio, MIN_SERVICE_FLEET_RATIO,
        ),
        "",
    ]))
    assert fleet_ratio >= MIN_SERVICE_FLEET_RATIO, (
        "service reaches %.2fx of the fleet verification rate, below %.1fx"
        % (fleet_ratio, MIN_SERVICE_FLEET_RATIO)
    )


def test_cluster_scales_across_verifiers(verify_requests):
    cpus = os.cpu_count() or 1
    if cpus < CLUSTER_GATE_VERIFIERS + 1:
        pytest.skip(
            "cluster scaling needs %d CPUs (verifiers + gateway), this "
            "machine has %d" % (CLUSTER_GATE_VERIFIERS + 1, cpus)
        )
    # Verdict caches off on both tiers: the legs measure routing and
    # verification, not replay memoization.
    template = ClusterConfig(
        service=ServiceConfig(
            fleet_hosts=CONFIG.num_hosts, cache_entries=0,
        ),
        cache_entries=0,
        gather_batch=CLUSTER_BATCH,
    )

    def cluster_rps(verifiers: int) -> float:
        with LocalCluster(verifiers=verifiers, config=template) as cluster:
            report = asyncio.run(_replay(cluster.address, verify_requests))
        return report.achieved_rps

    single_rps = cluster_rps(1)
    scaled_rps = cluster_rps(CLUSTER_GATE_VERIFIERS)
    scaling = scaled_rps / single_rps

    write_report("cluster_scaling.md", "\n".join([
        "# Verification cluster scaling",
        "",
        "%d verify requests, %d CPUs" % (len(verify_requests), cpus),
        "",
        "| verifiers | per second |",
        "|---|---|",
        "| 1 | %.1f |" % single_rps,
        "| %d | %.1f |" % (CLUSTER_GATE_VERIFIERS, scaled_rps),
        "",
        "scaling: %.2fx (gate %.1fx)" % (scaling, MIN_CLUSTER_SCALING),
        "",
    ]))
    assert scaling >= MIN_CLUSTER_SCALING, (
        "%d-verifier cluster only %.2fx the single verifier"
        % (CLUSTER_GATE_VERIFIERS, scaling)
    )


#: Settle-step report: window size, forged fractions, timed rounds.
SETTLE_WINDOW = 12
SETTLE_FORGED = (0.0, 0.1)
SETTLE_ROUNDS = 5


def _settle_windows(requests, fraction):
    """The stream as windows of ``(key, message, signature)`` items,
    with each item's expected verdict."""
    keystore = build_service_keystore(CONFIG.num_hosts)
    mixed, _ = corrupt_requests(requests, fraction, seed=11)
    items = [
        (keystore.get(request.payload["signer"]),
         request.payload["message"],
         RecoverableSignature.from_canonical(request.payload["signature"]))
        for request in mixed
    ]
    expected = [request.expected for request in mixed]
    return [
        (items[start:start + SETTLE_WINDOW],
         expected[start:start + SETTLE_WINDOW])
        for start in range(0, len(items), SETTLE_WINDOW)
    ]


def test_verifier_settle_step_report(verify_requests):
    """Report only, no gate: the verifier's one-by-one settling against
    the batch equation it no longer runs."""

    def batch_equation(window):
        return verify_window(window, rng=Random(1))

    def one_by_one(window):
        return [key.verify_recoverable(message, signature)
                for key, message, signature in window]

    legs = (("verify_window", batch_equation),
            ("one-by-one", one_by_one))
    rows = []
    for fraction in SETTLE_FORGED:
        windows = _settle_windows(verify_requests, fraction)
        forged = sum(verdict is False
                     for _, expected in windows for verdict in expected)
        seconds = {name: [] for name, _ in legs}
        # Alternate the legs round by round so drift hits both alike.
        for _ in range(SETTLE_ROUNDS):
            for name, settle in legs:
                started = time.process_time()
                verdicts = [settle(window) for window, _ in windows]
                seconds[name].append(time.process_time() - started)
                assert verdicts == [expected for _, expected in windows], (
                    "%s settled a verdict wrongly" % name
                )
        batch = statistics.median(seconds["verify_window"])
        single = statistics.median(seconds["one-by-one"])
        rows.append("| %d%% (%d of %d) | %.3f | %.3f | %.2fx |" % (
            round(100 * fraction), forged,
            sum(len(window) for window, _ in windows),
            batch, single, single / batch,
        ))

    write_report("settle_step.md", "\n".join([
        "# Verifier settle step: one-by-one against the batch equation",
        "",
        "windows of %d, CPU seconds, median of %d alternating rounds; "
        "report only, no gate" % (SETTLE_WINDOW, SETTLE_ROUNDS),
        "",
        "| forged | verify_window s | one-by-one s | window speed-up |",
        "|---|---|---|---|",
    ] + rows + [""]))


#: Journeys whose session checks the replay-count leg captures.
SESSION_REPLAY_JOURNEYS = 40


@pytest.mark.parametrize("tier", ["verifier", "gateway"])
def test_replayed_sessions_re_execute_once(monkeypatch, tier):
    """Count, not time: two passes of a session stream over TCP
    re-execute each distinct session once, and answer every check with
    its in-process verdict.  Through a gateway over one verifier, the
    repeats never reach the verifier: the gateway answers them."""
    stream = journey_request_stream(FleetConfig(
        num_agents=SESSION_REPLAY_JOURNEYS, seed=CONFIG.seed,
    )).session_requests
    distinct = {canonical_encode(request.payload) for request in stream}
    executions = []
    original = server_module.check_session_payload

    def counting(*args, **kwargs):
        executions.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(server_module, "check_session_payload", counting)

    async def replay_twice():
        service = VerificationService(ServiceConfig())
        endpoint = service
        await service.start()
        if tier == "gateway":
            endpoint = ClusterGateway(ClusterConfig(
                backends=(service.address,), health_interval=30.0,
            ))
            await endpoint.start()
        try:
            for _ in range(2):
                await _replay(endpoint.address, stream)
            return endpoint.counters, service.counters
        finally:
            if endpoint is not service:
                await endpoint.stop()
            await service.stop()

    counters, verifier_counters = asyncio.run(replay_twice())
    assert len(executions) == len(distinct)
    assert counters.cache_hits == 2 * len(stream) - len(distinct)
    if tier == "gateway":
        assert verifier_counters.session_requests == len(distinct)
        assert verifier_counters.cache_hits == 0
