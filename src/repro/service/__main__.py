"""Command line for the verification service.

``python -m repro.service serve`` runs a single verification server;
``python -m repro.service cluster`` runs a gateway over existing
verifier backends; ``python -m repro.service spawn-cluster`` launches
N verifier subprocesses *plus* the gateway (the local deployment the
CI ``cluster-smoke`` job drives); ``python -m repro.service loadgen``
replays a deterministic journey request stream against any of them —
a client cannot tell a gateway from a verifier — verifying every
verdict against the in-process ground truth.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import List, Optional, Tuple

from repro.service.cluster import (
    ClusterConfig,
    ClusterGateway,
    SpawnedVerifier,
    spawn_verifier,
)
from repro.service.loadgen import (
    build_loadgen_stream,
    fetch_server_stats,
    run_loadgen,
)
from repro.service.server import (
    FrameServer,
    ServiceConfig,
    VerificationService,
)
from repro.sim.fleet import FleetConfig


def _parse_target(target: str) -> Tuple[str, int]:
    host, _, port = target.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            "target must look like HOST:PORT, got %r" % target
        )
    return host, int(port)


def _add_gateway_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-entries", type=int, default=65536,
                        help="gateway verdict-cache capacity (0 disables)")
    parser.add_argument("--gather-batch", type=int, default=64,
                        help="gateway→backend aggregation window size")
    parser.add_argument("--health-interval", type=float, default=0.25,
                        help="seconds between backend health probes")
    parser.add_argument("--failure-threshold", type=int, default=3,
                        help="consecutive probe failures before a backend "
                             "is marked down, and consecutive request "
                             "failures before it is held out of routing")
    parser.add_argument("--max-attempts", type=int, default=4,
                        help="routing attempts per request across failovers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Reference-state verification service: server and loadgen",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run a verification server until interrupted"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = pick a free port; the bound "
                            "address is announced on stdout)")
    serve.add_argument("--cache-entries", type=int, default=65536,
                       help="LRU verdict-cache capacity, verify and "
                            "session verdicts alike (0 disables)")
    serve.add_argument("--fleet-hosts", type=int, default=40,
                       help="fleet-shaped host population whose "
                            "deterministic keys the server registers")
    serve.add_argument("--backend", default=None,
                       choices=("python", "gmpy2", "auto"),
                       help="pin the crypto backend (default: "
                            "REPRO_CRYPTO_BACKEND, else auto-detect)")

    cluster = commands.add_parser(
        "cluster", help="run a gateway over existing verifier backends"
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=0,
                         help="gateway listen port (0 = pick a free port)")
    cluster.add_argument("--backends", type=_parse_target, nargs="+",
                         required=True, metavar="HOST:PORT",
                         help="verifier backend addresses")
    _add_gateway_arguments(cluster)

    spawn = commands.add_parser(
        "spawn-cluster",
        help="spawn N verifier subprocesses plus the gateway",
    )
    spawn.add_argument("--verifiers", type=int, default=3,
                       help="verifier subprocesses to launch")
    spawn.add_argument("--host", default="127.0.0.1")
    spawn.add_argument("--port", type=int, default=0,
                       help="gateway listen port (0 = pick a free port)")
    spawn.add_argument("--fleet-hosts", type=int, default=40,
                       help="fleet-shaped PKI size of every verifier")
    spawn.add_argument("--backend", default=None,
                       choices=("python", "gmpy2", "auto"),
                       help="pin every verifier's crypto backend")
    _add_gateway_arguments(spawn)

    loadgen = commands.add_parser(
        "loadgen", help="replay a journey request stream against a server"
    )
    loadgen.add_argument("--target", type=_parse_target, required=True,
                         metavar="HOST:PORT")
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument("--rps", type=float, default=0.0,
                         help="target request rate (0 = unthrottled)")
    loadgen.add_argument("--processes", type=int, default=1)
    loadgen.add_argument("--connections", type=int, default=2,
                         help="pooled connections per process")
    loadgen.add_argument("--max-inflight", type=int, default=128,
                         help="pipelined requests in flight per process")
    loadgen.add_argument("--adversarial-fraction", type=float, default=0.0,
                         help="fraction of verify requests whose "
                              "signatures are corrupted (expected verdict "
                              "False)")
    loadgen.add_argument("--agents", type=int, default=30,
                         help="journeys of the generating fleet")
    loadgen.add_argument("--hosts", type=int, default=8,
                         help="service hosts of the generating fleet "
                              "(must not exceed the server's "
                              "--fleet-hosts)")
    loadgen.add_argument("--hops", type=int, default=3)
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument("--no-sessions", action="store_true",
                         help="replay only raw verify requests")
    loadgen.add_argument("--json", default=None, metavar="PATH",
                         help="write the merged report as JSON")
    loadgen.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="write the server's full stats envelope "
                              "(schema'd counters + telemetry) plus the "
                              "loadgen summary as one JSON snapshot")
    loadgen.add_argument("--retry-deadline", type=float, default=5.0,
                         help="seconds to retry a request's transport "
                              "transients before counting it dropped "
                              "(all replayed requests are idempotent; "
                              "0 disables retries)")
    loadgen.add_argument("--expect-parity", action="store_true",
                         help="exit non-zero unless every verdict matches "
                              "the in-process ground truth and no request "
                              "was dropped (transients are retried under "
                              "--retry-deadline before counting a drop)")
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_entries=args.cache_entries,
        fleet_hosts=args.fleet_hosts,
        backend=args.backend,
    )

    service = VerificationService(config)
    return _run_endpoint(
        service, "crypto backend: %s" % service.backend.name
    )


def _gateway_config(args: argparse.Namespace,
                    backends: Tuple[Tuple[str, int], ...],
                    service: Optional[ServiceConfig] = None) -> ClusterConfig:
    return ClusterConfig(
        backends=backends,
        host=args.host,
        port=args.port,
        service=service or ServiceConfig(),
        cache_entries=args.cache_entries,
        gather_batch=args.gather_batch,
        health_interval=args.health_interval,
        failure_threshold=args.failure_threshold,
        max_attempts=args.max_attempts,
    )


def _run_gateway(config: ClusterConfig, exit_on_sigterm: bool = False) -> int:
    return _run_endpoint(
        ClusterGateway(config),
        "routing over %d backend(s): %s"
        % (len(config.backends),
           ", ".join("%s:%d" % address for address in config.backends)),
        label="cluster listening",
        exit_on_sigterm=exit_on_sigterm,
    )


def _run_endpoint(endpoint: FrameServer, banner: str,
                  label: str = "listening",
                  exit_on_sigterm: bool = False) -> int:
    """Serve ``endpoint`` until interrupted, announcing its address.

    The ``<label> on HOST:PORT`` line is what CI and
    :func:`repro.service.cluster.spawn_verifier` wait for.  With
    ``exit_on_sigterm`` a SIGTERM stops the endpoint cleanly and then
    raises ``SystemExit(128 + SIGTERM)``.
    """
    terminated = []

    def _on_sigterm(task: "asyncio.Task[None]") -> None:
        # Later SIGTERMs must not cut the shutdown short.
        asyncio.get_running_loop().remove_signal_handler(signal.SIGTERM)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        terminated.append(True)
        task.cancel()

    async def _serve() -> None:
        if exit_on_sigterm:
            # The loop handles the signal, not a Python-level handler:
            # that one raises wherever the main thread happens to be,
            # and inside asyncio's own task bookkeeping a raise can
            # lose a task's wake-up, leaving ``asyncio.run``'s final
            # cancel-and-wait blocked for good.  The loop's wake-up fd
            # also wakes it whichever thread the kernel delivers to.
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, _on_sigterm, asyncio.current_task()
            )
        host, port = await endpoint.start()
        print(banner, flush=True)
        print("%s on %s:%d" % (label, host, port), flush=True)
        try:
            await endpoint.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await endpoint.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except asyncio.CancelledError:
        # A SIGTERM during ``endpoint.start()``, before serving began.
        if not terminated:
            raise
    if terminated:
        raise SystemExit(128 + signal.SIGTERM)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    return _run_gateway(_gateway_config(args, tuple(args.backends)))


def _exit_on_sigterm(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def _cmd_spawn_cluster(args: argparse.Namespace) -> int:
    # A SIGTERM (what CI's stop step and most supervisors send) must
    # unwind through the ``finally`` below like Ctrl-C does, or every
    # verifier subprocess outlives the launcher.  This handler covers
    # the spawning; the gateway's event loop takes over once it runs.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    service = ServiceConfig(
        fleet_hosts=args.fleet_hosts,
        backend=args.backend,
    )
    verifiers: List[SpawnedVerifier] = []
    try:
        for _ in range(max(1, args.verifiers)):
            verifier = spawn_verifier(service)
            verifiers.append(verifier)
            print("verifier pid=%d listening on %s:%d"
                  % (verifier.process.pid, *verifier.address), flush=True)
        config = _gateway_config(
            args, tuple(v.address for v in verifiers), service
        )
        return _run_gateway(config, exit_on_sigterm=True)
    finally:
        # A second SIGTERM must not cut the cleanup short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        for verifier in verifiers:
            verifier.terminate()


def _cmd_loadgen(args: argparse.Namespace) -> int:
    host, port = args.target
    config = FleetConfig(
        num_agents=args.agents,
        num_hosts=args.hosts,
        hops_per_journey=args.hops,
        seed=args.seed,
        protected=True,
    )
    stream, corrupted = build_loadgen_stream(
        config,
        requests=args.requests,
        adversarial_fraction=args.adversarial_fraction,
        include_sessions=not args.no_sessions,
        seed=args.seed,
    )
    print("stream: %d requests (%d corrupted) from a %d-journey fleet"
          % (len(stream), corrupted, config.num_agents), flush=True)
    report = run_loadgen(
        (host, port), stream,
        processes=args.processes,
        rps=args.rps,
        connections=args.connections,
        max_inflight=args.max_inflight,
        retry_deadline=args.retry_deadline,
    )
    report.corrupted = corrupted
    summary = report.summary()
    # Attribute the numbers: which crypto engine served them.
    server_stats = fetch_server_stats((host, port))
    summary["server"] = {
        "crypto": server_stats.get("crypto"),
        "config": server_stats.get("config"),
    } if server_stats else None
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("report written to %s" % args.json)
    if args.metrics_out:
        snapshot = {
            "schema": server_stats.get("schema"),
            "endpoint": "%s:%d" % (host, port),
            "server": server_stats or None,
            "loadgen": summary,
        }
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("metrics snapshot written to %s" % args.metrics_out)

    status = 0
    if args.expect_parity:
        if report.mismatches:
            print("FAIL: %d verdict(s) diverged from the in-process "
                  "ground truth" % report.mismatches, file=sys.stderr)
            status = 1
        if report.dropped:
            print("FAIL: %d request(s) dropped (busy=%d, errors=%d)"
                  % (report.dropped, report.busy, report.errors),
                  file=sys.stderr)
            status = 1
        if status == 0:
            print("parity ok: %d/%d verdicts match, zero drops"
                  % (report.completed, report.sent))
            if report.recovered:
                print("(%d transient failure(s) recovered by retry)"
                      % report.recovered)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "spawn-cluster":
        return _cmd_spawn_cluster(args)
    return _cmd_loadgen(args)


if __name__ == "__main__":
    sys.exit(main())
