"""Loadgen: parity against live servers, pacing, concurrency, processes."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.loadgen import (
    LoadgenReport,
    build_loadgen_stream,
    percentile,
    replay_requests,
    run_loadgen,
)
from repro.service.server import ServiceConfig, VerificationService
from repro.sim.fleet import FleetConfig
from tests.helpers import hold_settle

_CONFIG = FleetConfig(
    num_agents=10, num_hosts=6, hops_per_journey=2, seed=23,
    protected=True,
)


def _replay(requests, service_config=None, **kwargs):
    async def run():
        service = VerificationService(
            service_config or ServiceConfig(fleet_hosts=_CONFIG.num_hosts,
                                            max_batch=16)
        )
        host, port = await service.start()
        try:
            return await replay_requests((host, port), requests, **kwargs)
        finally:
            await service.stop()

    return asyncio.run(run())


class TestStreamBuilding:
    def test_stream_is_repeated_to_the_requested_length(self):
        stream, corrupted = build_loadgen_stream(
            _CONFIG, requests=100, adversarial_fraction=0.0
        )
        assert len(stream) == 100
        assert corrupted == 0

    def test_adversarial_fraction_corrupts_verifies_only(self):
        stream, corrupted = build_loadgen_stream(
            _CONFIG, requests=80, adversarial_fraction=0.5, seed=3
        )
        assert corrupted > 0
        assert all(r.expected is False for r in stream
                   if r.op == "verify" and r.expected is False)
        assert all(r.op == "verify" for r in stream
                   if r.expected is False)


class TestReplayParity:
    def test_mixed_stream_matches_ground_truth_with_zero_drops(self):
        stream, corrupted = build_loadgen_stream(
            _CONFIG, requests=60, adversarial_fraction=0.25, seed=5
        )
        report = _replay(stream, connections=2, max_inflight=32)
        assert report.sent == 60
        assert report.completed == 60
        assert report.dropped == 0
        assert report.mismatches == 0
        assert report.verify_requests + report.session_requests == 60
        assert report.latencies and min(report.latencies) > 0

    def test_concurrent_clients_settle_to_in_process_determinism(self):
        # Two pipelined clients interleave arbitrarily; batching windows
        # form differently on every run — but every single verdict must
        # still equal the in-process ground truth.
        stream, _ = build_loadgen_stream(
            _CONFIG, requests=80, adversarial_fraction=0.3, seed=11
        )

        async def run():
            service = VerificationService(ServiceConfig(
                fleet_hosts=_CONFIG.num_hosts, max_batch=8,
            ))
            host, port = await service.start()
            try:
                half = len(stream) // 2
                reports = await asyncio.gather(
                    replay_requests((host, port), stream[:half],
                                    connections=2, max_inflight=16),
                    replay_requests((host, port), stream[half:],
                                    connections=2, max_inflight=16),
                )
            finally:
                await service.stop()
            return reports

        for report in asyncio.run(run()):
            assert report.mismatches == 0
            assert report.dropped == 0

    def test_rps_pacing_spreads_the_replay(self):
        stream, _ = build_loadgen_stream(
            _CONFIG, requests=20, include_sessions=False
        )
        report = _replay(stream, rps=100.0, connections=1, max_inflight=4)
        assert report.completed == 20
        # 20 requests at 100 rps occupy at least ~190 ms of schedule.
        assert report.wall_seconds >= 0.15

    def test_session_only_replay_checks_bit_for_bit(self):
        stream, _ = build_loadgen_stream(
            _CONFIG, requests=200, include_sessions=True
        )
        sessions = [r for r in stream if r.op == "check-session"][:10]
        assert sessions
        report = _replay(sessions, connections=1, max_inflight=4)
        assert report.completed == len(sessions)
        assert report.mismatches == 0


class TestMultiProcess:
    def test_two_worker_processes_merge_cleanly(self):
        stream, _ = build_loadgen_stream(
            _CONFIG, requests=24, include_sessions=False,
            adversarial_fraction=0.25, seed=2,
        )

        # The server must live in its own thread here: run_loadgen's
        # workers are separate processes connecting over real TCP.
        from repro.service.server import ServiceThread

        with ServiceThread(ServiceConfig(
            fleet_hosts=_CONFIG.num_hosts, max_batch=8,
        )) as thread:
            # A started thread is itself a connect() endpoint.
            report = run_loadgen(
                thread, stream, processes=2, connections=1,
                max_inflight=8,
            )
        assert report.processes == 2
        assert report.sent == 24
        assert report.completed == 24
        assert report.mismatches == 0
        assert report.dropped == 0


class TestReporting:
    def test_percentile_nearest_rank(self):
        samples = [0.01 * i for i in range(1, 101)]
        assert percentile(samples, 0.50) == pytest.approx(0.51)
        assert percentile(samples, 0.99) == pytest.approx(1.00)
        assert percentile([], 0.5) == 0.0

    def test_summary_is_json_shaped(self):
        import json

        report = LoadgenReport(sent=2, completed=2, wall_seconds=1.0,
                               latencies=[0.1, 0.2])
        summary = report.summary()
        assert json.loads(json.dumps(summary)) == summary
        assert summary["achieved_rps"] == 2.0
        assert summary["latency_ms"]["p99"] == 200.0

    def test_merge_accumulates_counts(self):
        merged = LoadgenReport()
        merged.merge(LoadgenReport(sent=3, completed=2, busy=1,
                                   wall_seconds=2.0, latencies=[0.1]))
        merged.merge(LoadgenReport(sent=2, completed=2,
                                   wall_seconds=1.0, latencies=[0.2]))
        assert merged.sent == 5
        assert merged.completed == 4
        assert merged.busy == 1
        assert merged.wall_seconds == 2.0
        assert merged.dropped == 1


class TestTransientRetry:
    def test_backend_restart_mid_replay_costs_latency_not_drops(self):
        """Satellite: with ``retry_deadline`` set, a parity replay that
        straddles a backend restart retries its idempotent requests
        instead of reporting them dropped — zero errors, zero
        mismatches, and the retries are accounted."""
        stream, _ = build_loadgen_stream(
            _CONFIG, requests=60, adversarial_fraction=0.25, seed=7
        )

        async def run():
            config = ServiceConfig(fleet_hosts=_CONFIG.num_hosts,
                                   max_batch=16)
            service = VerificationService(config)
            host, port = await service.start()
            entered, release = hold_settle(service)

            async def restart_soon():
                # The listener dies while a window is held in flight.
                await entered.wait()
                await service.stop()
                release.set()
                reborn = VerificationService(
                    ServiceConfig(fleet_hosts=_CONFIG.num_hosts,
                                  max_batch=16,
                                  host=host, port=port)
                )
                await reborn.start()
                return reborn

            restarter = asyncio.ensure_future(restart_soon())
            try:
                # rps pacing stretches the replay across the restart,
                # so requests also arrive while the listener is down.
                report = await replay_requests(
                    (host, port), stream, rps=300.0, connections=1,
                    max_inflight=4, retry_deadline=10.0,
                )
            finally:
                reborn = await restarter
                await reborn.stop()
            return report

        report = asyncio.run(run())
        assert report.completed == 60
        assert report.errors == 0
        assert report.dropped == 0
        assert report.mismatches == 0
        assert report.retried > 0
        assert report.recovered == report.retried
        summary = report.summary()
        assert summary["retried"] == report.retried
        assert summary["recovered"] == report.recovered

    def test_without_retry_the_same_restart_drops_requests(self):
        """The control: retry_deadline=0 keeps the legacy behaviour —
        transport errors during the restart surface as drops."""
        stream, _ = build_loadgen_stream(
            _CONFIG, requests=60, adversarial_fraction=0.0, seed=7
        )

        async def run():
            config = ServiceConfig(fleet_hosts=_CONFIG.num_hosts,
                                   max_batch=16)
            service = VerificationService(config)
            host, port = await service.start()
            entered, release = hold_settle(service)

            async def restart_soon():
                # The listener dies while a window is held in flight.
                await entered.wait()
                await service.stop()
                release.set()
                reborn = VerificationService(
                    ServiceConfig(fleet_hosts=_CONFIG.num_hosts,
                                  max_batch=16,
                                  host=host, port=port)
                )
                await reborn.start()
                return reborn

            restarter = asyncio.ensure_future(restart_soon())
            try:
                report = await replay_requests(
                    (host, port), stream, rps=300.0, connections=1,
                    max_inflight=4, retry_deadline=0.0,
                )
            finally:
                reborn = await restarter
                await reborn.stop()
            return report

        report = asyncio.run(run())
        assert report.errors > 0
        assert report.dropped > 0
        assert report.retried == 0
