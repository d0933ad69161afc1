#!/usr/bin/env python3
"""Verification service: reference-state checking as infrastructure.

Runs the full serving stack inside one process:

1. capture a deterministic fleet's verification traffic — every
   whole-transfer signature and every ReferenceStateProtocol v3
   session check, each paired with its in-process ground-truth verdict
   (:mod:`repro.sim.requests`),
2. start the asyncio verification server (micro-batching, LRU verdict
   cache, bounded-queue backpressure) on a loopback port,
3. replay the stream — optionally with an adversarial fraction of
   corrupted signatures — through the pooled, pipelined client,
4. print throughput, latency percentiles, the batch-size histogram,
   and the parity line: every service verdict must equal the
   in-process verdict (corrupted signatures must come back invalid).

Invocation — run from the repository root with ``PYTHONPATH=src``::

    PYTHONPATH=src python examples/verification_service.py
    PYTHONPATH=src python examples/verification_service.py \\
        --agents 100 --adversarial-fraction 0.3 --batch 128

A standalone server / loadgen pair (separate processes, real
deployments) is available as ``python -m repro.service serve`` and
``python -m repro.service loadgen``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.loadgen import build_loadgen_stream, replay_requests
from repro.service.server import ServiceConfig, VerificationService
from repro.sim.fleet import FleetConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, default=50,
                        help="journeys of the generating fleet (default: 50)")
    parser.add_argument("--hosts", type=int, default=10,
                        help="service hosts besides home (default: 10)")
    parser.add_argument("--hops", type=int, default=3,
                        help="hops per journey (default: 3)")
    parser.add_argument("--seed", type=int, default=7,
                        help="fleet master seed (default: 7)")
    parser.add_argument("--requests", type=int, default=400,
                        help="requests to replay (default: 400)")
    parser.add_argument("--adversarial-fraction", type=float, default=0.2,
                        help="fraction of verify requests corrupted "
                             "(default: 0.2)")
    parser.add_argument("--batch", type=int, default=128,
                        help="micro-batch window (default: 128)")
    parser.add_argument("--connections", type=int, default=2,
                        help="pooled client connections (default: 2)")
    args = parser.parse_args()

    config = FleetConfig(
        num_agents=args.agents,
        num_hosts=args.hosts,
        hops_per_journey=args.hops,
        seed=args.seed,
        protected=True,
    )
    print("capturing verification traffic from a %d-journey fleet..."
          % config.num_agents)
    stream, corrupted = build_loadgen_stream(
        config,
        requests=args.requests,
        adversarial_fraction=args.adversarial_fraction,
        seed=args.seed,
    )
    sessions = sum(1 for request in stream if request.op == "check-session")
    print("stream: %d requests (%d session checks, %d corrupted "
          "signatures)" % (len(stream), sessions, corrupted))

    async def serve_and_replay():
        service = VerificationService(ServiceConfig(
            fleet_hosts=config.num_hosts,
            max_batch=args.batch,
        ))
        host, port = await service.start()
        print("server listening on %s:%d (window %d)" % (
            host, port, args.batch,
        ))
        try:
            # The one connection-construction path: replay_requests
            # builds its client via repro.service.connect().
            report = await replay_requests(
                (host, port), stream, connections=args.connections,
            )
            return report, service.stats()
        finally:
            await service.stop()

    report, stats = asyncio.run(serve_and_replay())

    summary = report.summary()
    print()
    print("replayed %d requests in %.2fs  (%.1f requests/s)" % (
        summary["completed"], summary["wall_seconds"],
        summary["achieved_rps"],
    ))
    print("latency: p50 %.2fms  p99 %.2fms" % (
        summary["latency_ms"]["p50"], summary["latency_ms"]["p99"],
    ))
    print("cache: %d hits (%.1f%% hit rate on this stream)" % (
        stats["cache"]["hits"], 100 * stats["cache"]["hit_rate"],
    ))
    print("batches: %d windows, mean size %.1f" % (
        stats["batching"]["batches"], stats["batching"]["mean_batch_size"],
    ))
    print("verdicts: %d ok, %d invalid or attack-detected "
          "(%d corrupted signatures were injected; session checks of "
          "journeys that met a malicious host also alarm)" % (
              stats["counters"]["verdicts_true"],
              stats["counters"]["verdicts_false"], corrupted,
          ))

    if report.mismatches or report.dropped:
        print("PARITY FAILURE: %d mismatches, %d dropped"
              % (report.mismatches, report.dropped), file=sys.stderr)
        return 1
    print("parity: every service verdict matches the in-process verdict; "
          "zero dropped requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
