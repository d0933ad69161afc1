"""Service and cluster speed gates, measured on one fleet request stream.

Three claims are measured here, all on the verify traffic of one
150-journey protected fleet (:mod:`repro.sim.requests`) replayed over
loopback TCP:

1. micro-batching beats batch-size-1 by at least 1.3x on the same
   stream (cache-less, so the ratio measures batching alone), in CPU
   time, as the median of alternating rounds;
2. the batched service reaches at least half the signature-verification
   rate of the same fleet run in process, single worker, per CPU
   second;
3. a gateway over 3 verifier subprocesses beats the same gateway over
   one verifier by at least 1.6x.

A fourth leg is a report with no gate: the verifier's settle step
(:func:`~repro.crypto.batch.verify_window`) against one-by-one
``verify_recoverable`` on windows of 12, with none and with 10% of the
signatures forged — the mix the ``gateway-mixed`` benchmark sends.

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

from benchmarks.reportutil import write_report
from repro.crypto.batch import verify_window
from repro.crypto.dsa import RecoverableSignature
from repro.service.cluster import ClusterConfig, LocalCluster
from repro.service.loadgen import replay_requests
from repro.service.server import (
    ServiceConfig,
    VerificationService,
    build_service_keystore,
)
from repro.sim import FleetConfig
from repro.sim.requests import corrupt_requests, journey_request_stream
from repro.sim.shard import run_fleet

#: Batched service throughput over batch-size-1 throughput, per CPU
#: second: the median over :data:`BATCHING_ROUNDS` alternating rounds
#: per leg, each replaying the stream for at least
#: :data:`MIN_ROUND_CPU_SECONDS`.
MIN_BATCHING_GAIN = 1.3
BATCHING_ROUNDS = 9
MIN_ROUND_CPU_SECONDS = 0.5

#: Batched service throughput over the in-process fleet's
#: signature-verification rate.
MIN_SERVICE_FLEET_RATIO = 0.5

#: 3-verifier cluster throughput over 1-verifier cluster throughput.
CLUSTER_GATE_VERIFIERS = 3
MIN_CLUSTER_SCALING = 1.6

SERVICE_BATCH = 256
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


def _service_cpu_rate(requests, max_batch: int) -> float:
    """Requests per CPU second of one cache-less round on a fresh
    in-process server: the stream is replayed until the round has
    spent :data:`MIN_ROUND_CPU_SECONDS`.

    Server and client share one event loop: both ends are CPU-bound
    Python, so a second thread would only add GIL noise, and the
    process's CPU time covers both ends and nothing else.
    """
    async def one_round() -> float:
        service = VerificationService(ServiceConfig(
            fleet_hosts=CONFIG.num_hosts, max_batch=max_batch,
            cache_entries=0,
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


def test_service_batching_and_fleet_ratio(verify_requests):
    # In-process reference first: it also warms this process's keys and
    # fixed-base tables, so no service leg pays for them.
    started = time.process_time()
    fleet = run_fleet(CONFIG, workers=1)
    fleet_rate = (fleet.verifier_stats["verified"]
                  / (time.process_time() - started))

    # Alternate the legs round by round so drift hits both alike, and
    # gate on the median of the per-round gains.
    rates = {SERVICE_BATCH: [], 1: []}
    for _ in range(BATCHING_ROUNDS):
        for max_batch, leg in rates.items():
            leg.append(_service_cpu_rate(verify_requests, max_batch))
    gains = sorted(batched / unbatched for batched, unbatched
                   in zip(rates[SERVICE_BATCH], rates[1]))
    batching_gain = statistics.median(gains)
    batched_rps = statistics.median(rates[SERVICE_BATCH])
    unbatched_rps = statistics.median(rates[1])
    fleet_ratio = batched_rps / fleet_rate

    write_report("service_scaling.md", "\n".join([
        "# Verification service throughput",
        "",
        "%d verify requests from a %d-journey fleet" % (
            len(verify_requests), CONFIG.num_agents,
        ),
        "",
        "per CPU second; service legs are the median of %d alternating "
        "rounds of at least %.1f s" % (
            BATCHING_ROUNDS, MIN_ROUND_CPU_SECONDS,
        ),
        "",
        "| leg | per CPU second |",
        "|---|---|",
        "| batched (window %d) | %.1f |" % (SERVICE_BATCH, batched_rps),
        "| batch size 1 | %.1f |" % unbatched_rps,
        "| in-process fleet verifications | %.1f |" % fleet_rate,
        "",
        "batching gain: %.2fx median, %.2f-%.2fx over rounds (gate %.1fx)"
        % (batching_gain, gains[0], gains[-1], MIN_BATCHING_GAIN),
        "service / fleet: %.2fx (gate %.1fx)" % (
            fleet_ratio, MIN_SERVICE_FLEET_RATIO,
        ),
        "",
    ]))
    assert batching_gain >= MIN_BATCHING_GAIN, (
        "batching gain %.2fx below %.1fx"
        % (batching_gain, MIN_BATCHING_GAIN)
    )
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
            fleet_hosts=CONFIG.num_hosts, max_batch=CLUSTER_BATCH,
            cache_entries=0,
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
    """Report only, no gate: batch equation against one-by-one."""

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
        "# Verifier settle step: batch equation against one-by-one",
        "",
        "windows of %d, CPU seconds, median of %d alternating rounds; "
        "report only, no gate" % (SETTLE_WINDOW, SETTLE_ROUNDS),
        "",
        "| forged | verify_window s | one-by-one s | window speed-up |",
        "|---|---|---|---|",
    ] + rows + [""]))
