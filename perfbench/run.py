"""The repository benchmark: one command, two workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads below, or ``all`` to run them in turn
(``BENCHMARK.json`` records why each one is there):

* ``fleet-campaign`` — ``run_fleet(workers=1)`` campaigns in one
  measured process;
* ``gateway-mixed`` — one process running a gateway in front of a
  verifier; verify and session checks, 10% forged, replayed twice.

Every workload runs from this one client process on one event loop
with at most two connections, so at most two processes are busy.
Inputs are generated from ``--seed`` in a separate, untimed process
before anything is timed.  Every verdict and every detection is checked
against ground truth; a mismatch counts as a failed op and makes the
command exit 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of an untraced run.  With ``--trace 1`` it carries the per-layer
metrics: the same work runs in an untraced process and in one whose
``repro`` entry points are wrapped by ``tracer.py``, taking turns.
Before the result line each run prints, and writes to
``.perfbench/results/``, its host fingerprint and diagnostics.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

import common
import drive

WORKLOADS = ("fleet-campaign", "gateway-mixed")
#: Cold set-ups taken before and again after the measured phase, so
#: that they sample the run's whole window; ``setup_s`` is the median of
#: these and the measured process's own set-up.
SETUPS_AROUND = 3
#: Journeys per fleet campaign: a campaign lasts about 0.3 s on the
#: reference host, so a run holds enough of them for its slow quartile
#: to be steady.  The ``FleetConfig`` default of 1000 (about 15 s)
#: leaves two or three per run, whose mean moved by 40% between runs.
FLEET_JOURNEYS = 20
#: Fleet campaigns a run needs at least.
MIN_CAMPAIGNS = 8
#: Requests in flight in the closed-loop leg (over two connections).
CLOSED_WINDOW = 64
#: Absolute open-loop rate (requests/s), also stated in BENCHMARK.json,
#: well under 40% of the closed-loop throughput in the slowest host
#: phase seen (about 360 req/s): the session checks hold the event loop
#: for milliseconds each, and at 150 req/s their queueing made p90
#: swing 3x.
OPEN_RATE = 100.0
#: Closed-loop rounds run before each open-loop round.  An open round
#: takes about six times as long as a closed one; four closed rounds per
#: open one give throughput a comparable share of the run.
CLOSED_PER_OPEN = 4
#: Open-loop rounds a run needs at least.  Each gives a p50 (about 270
#: samples).  The tail is printed as a diagnostic only (pooled p90 and
#: p99): on the reference host p99 moved by 50-75% and p90 by up to 57%
#: between runs of the same code, more than any allowed bound.
MIN_OPEN_ROUNDS = 4
#: Traced repetitions, few enough to bound the in-memory span buffer
#: (a traced campaign holds about 60 kB of spans per journey) and the
#: run's length.
TRACED_CAMPAIGNS = 10
TRACED_ROUNDS = 6


# -- fleet-campaign ------------------------------------------------------------


def fleet_setup(config_path: str, *extra: str
                ) -> Tuple[subprocess.Popen, float]:
    """Spawn a fleet process; seconds from spawn to its ready line."""
    started = time.perf_counter()
    proc = common.spawn("fleet_proc.py", config_path, *extra)
    common.read_message(proc)
    return proc, time.perf_counter() - started


def fleet_cold_setups(config_path: str) -> List[float]:
    seconds = []
    for _ in range(SETUPS_AROUND):
        proc, took = fleet_setup(config_path, "--setup-only")
        common.stop(proc)
        seconds.append(took)
    return seconds


def fleet_campaigns(proc: subprocess.Popen, seconds: float, min_reps: int,
                    max_reps: int, first_rep: int = 0
                    ) -> List[Dict[str, Any]]:
    common.send(proc, {"cmd": "run", "seconds": seconds, "first_rep": first_rep,
                       "min_reps": min_reps, "max_reps": max_reps})
    campaigns = []
    while True:
        message = common.read_message(proc)
        if "done" in message:
            return campaigns
        campaigns.append(message["campaign"])


def fleet_report(proc: subprocess.Popen) -> Dict[str, Any]:
    common.send(proc, {"cmd": "report"})
    report = common.read_message(proc)["report"]
    common.stop(proc)
    return report


def fleet_check(campaigns: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` against detection ground truth."""
    problems = []
    for index, campaign in enumerate(campaigns):
        if campaign["recall"] != 1.0:
            problems.append("campaign %d recall %r" % (index, campaign["recall"]))
        if campaign["false_positives"]:
            problems.append("campaign %d: %d false positives"
                            % (index, campaign["false_positives"]))
        if campaign["blame_accuracy"] != 1.0:
            problems.append("campaign %d blame accuracy %r"
                            % (index, campaign["blame_accuracy"]))
    attempted = sum(c["journeys"] for c in campaigns)
    failed = sum(c["failed"] for c in campaigns)
    return attempted, failed, problems


def run_fleet_workload(args: argparse.Namespace, work: str) -> Dict[str, Any]:
    config_path = os.path.join(work, "fleet.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump({
            "seed": args.seed,
            "num_agents": FLEET_JOURNEYS,
            "attack_fraction": 0.3,
            "trace_path": os.path.join(work, "fleet-trace.jsonl"),
        }, handle)
    # Untimed cold start: compiles bytecode on a fresh checkout.
    proc, _ = fleet_setup(config_path, "--setup-only")
    common.stop(proc)

    if not args.trace:
        setups = fleet_cold_setups(config_path)
        proc, seconds = fleet_setup(config_path)
        setups.append(seconds)
        campaigns = fleet_campaigns(proc, args.seconds, MIN_CAMPAIGNS,
                                    10 ** 6)
        report = fleet_report(proc)
        setups += fleet_cold_setups(config_path)
        attempted, failed, problems = fleet_check(campaigns)
        if len({c["signature"] for c in campaigns}) != len(campaigns):
            problems.append("two campaigns of one run share a signature")
        journey_ms = [ms for c in campaigns for ms in c["journey_ms"]]
        if len(journey_ms) != attempted:
            problems.append("%d of %d journeys timed"
                            % (len(journey_ms), attempted))
        throughputs = [c["journeys"] / c["wall_seconds"] for c in campaigns]
        return {
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": {
                "setup_s": common.median(setups),
                "throughput_per_s": common.slow_quartile(throughputs, True),
                "latency_p50_ms": common.slow_quartile([
                    common.percentile(c["journey_ms"], 0.50)
                    for c in campaigns], False),
                "peak_rss_mb": report["peak_rss_mb"],
            },
            "diagnostics": {
                "setups_s": setups,
                "campaigns": len(campaigns),
                "throughput_quartiles": common.quartiles(throughputs),
                "throughput_mean": attempted / sum(
                    c["wall_seconds"] for c in campaigns),
                "journey_samples": len(journey_ms),
                "latency_p50_ms_all": common.percentile(journey_ms, 0.50),
                "latency_p90_ms_all": common.percentile(journey_ms, 0.90),
                "latency_p99_ms_all": common.percentile(journey_ms, 0.99),
            },
        }

    # Traced run: campaign r runs untraced, then traced, in two live
    # processes taking turns, so both see the same host phases.
    spans_path = os.path.join(common.ensure_work_dir("traces"),
                              "fleet-campaign.spans.jsonl")
    plain_proc, _ = fleet_setup(config_path)
    traced_proc, _ = fleet_setup(config_path, "--trace", spans_path)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    for rep in range(TRACED_CAMPAIGNS):
        plain += fleet_campaigns(plain_proc, 0.0, 1, 1, first_rep=rep)
        traced += fleet_campaigns(traced_proc, 0.0, 1, 1, first_rep=rep)
    fleet_report(plain_proc)
    report = fleet_report(traced_proc)
    attempted, failed, problems = fleet_check(plain + traced)
    for untraced, with_spans in zip(plain, traced):
        if untraced["signature"] != with_spans["signature"]:
            problems.append("traced campaign signature differs from untraced")
    extras = {
        "ops": sum(c["journeys"] for c in traced),
        "traced_wall": sum(c["wall_seconds"] for c in traced),
        "overhead_pct": 100.0 * (common.median([
            t["wall_seconds"] / p["wall_seconds"]
            for p, t in zip(plain, traced)]) - 1.0),
        "trace_bytes": sum(c["trace_bytes"] for c in traced),
    }
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": layer_metrics(report["layers"], extras),
        "diagnostics": {"traced_campaigns": len(traced)},
    }


# -- gateway-mixed -------------------------------------------------------------


def generate_inputs(seed: int, work: str) -> Dict[str, Any]:
    path = os.path.join(work, "inputs.pkl")
    try:
        subprocess.run(
            [sys.executable, os.path.join(common.BENCH_DIR, "inputs.py"),
             str(seed), path],
            env=common.child_env(), cwd=common.ROOT, check=True, timeout=150,
        )
    except subprocess.SubprocessError as exc:
        raise common.BenchError("input generation failed: %s" % exc)
    with open(path, "rb") as handle:
        return pickle.load(handle)


class Server:
    """The benchmark's handle on one server process."""

    def __init__(self, *extra: str) -> None:
        self.proc = common.spawn("server_proc.py", *extra)
        self.port = common.read_message(self.proc)["port"]

    def open(self) -> int:
        common.send(self.proc, {"cmd": "open"})
        return common.read_message(self.proc)["port"]

    def report(self) -> Dict[str, Any]:
        common.send(self.proc, {"cmd": "report"})
        report = common.read_message(self.proc)["report"]
        common.stop(self.proc)
        return report

    def stop(self) -> None:
        common.stop(self.proc)


async def service_setup(warmup: List[drive.Request],
                        *extra: str) -> Tuple[Server, float]:
    """Spawn to first ping, plus the warm-up pass (one request at a time).

    Sequential verifies settle one by one, so four per signer cross the
    verifier's lazy key-table threshold inside set-up.
    """
    from repro.service import connect

    started = time.perf_counter()
    server = Server(*extra)
    client = await connect(("127.0.0.1", server.port), connections=1)
    try:
        if not await client.ping():
            raise common.BenchError("the server did not answer ping")
        for request in warmup:
            response = await client.request(request[1])
            if not drive.response_ok(request, response):
                raise common.BenchError(
                    "warm-up verdict mismatch: %r" % (response,))
    finally:
        await client.close()
    return server, time.perf_counter() - started


async def service_cold_setups(warmup: List[drive.Request]) -> List[float]:
    seconds = []
    for _ in range(SETUPS_AROUND):
        server, took = await service_setup(warmup)
        server.stop()
        seconds.append(took)
    return seconds


async def service_round(server: Server, leg: str,
                        passes: List[List[drive.Request]]) -> Dict[str, Any]:
    """One closed- or open-loop round on a fresh endpoint of ``server``.

    The round replays each of ``passes`` in turn: the closed loop drains
    one pass before starting the next, the open loop schedules them back
    to back at ``OPEN_RATE``.  Responses are checked when the round ends
    and only the timings are kept.  This load generator's cyclic garbage
    collector runs before the round and is held off during it, so that
    no collection pauses the generator mid-round.
    """
    from repro.service import connect

    stream = [request for replay in passes for request in replay]
    port = server.open()
    client = await connect(("127.0.0.1", port), connections=2)
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        if leg == "closed":
            responses = []
            for replay in passes:
                responses += await drive.closed_loop(client, replay,
                                                     CLOSED_WINDOW)
            samples: List[Any] = []
        else:
            samples = await drive.open_loop(client, stream, OPEN_RATE)
            responses = [sample[3] for sample in samples]
        wall = time.perf_counter() - started
    finally:
        gc.enable()
        await client.close()
    return {
        "leg": leg, "wall": wall,
        "latencies": drive.latencies_ms(samples),
        "lateness": drive.lateness_ms(samples),
        "attempted": len(stream),
        "failed": sum(not drive.response_ok(request, response)
                      for request, response in zip(stream, responses)),
    }


def round_streams(inputs: Dict[str, Any]) -> List[List[List[drive.Request]]]:
    """The passes of each round; rounds cycle through the input slices.

    Each round replays its slice twice: the second pass meets the
    gateway verdict cache (verifies) and re-executes (session checks).
    """
    return [[list(piece)] * 2 for piece in inputs["slices"]]


def summarize_rounds(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    closed = [r for r in rounds if r["leg"] == "closed"]
    open_rounds = [r for r in rounds if r["leg"] == "open"]
    return {
        "throughputs": [r["attempted"] / r["wall"] for r in closed],
        "open_latencies": [r["latencies"] for r in open_rounds],
        "latencies": [ms for r in open_rounds for ms in r["latencies"]],
        "lateness": [ms for r in open_rounds for ms in r["lateness"]],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }


async def run_gateway_workload(args: argparse.Namespace,
                               work: str) -> Dict[str, Any]:
    inputs = generate_inputs(args.seed, work)
    warmup = inputs["warmup"]
    streams = round_streams(inputs)
    # Untimed cold start: compiles bytecode on a fresh checkout.
    server, _ = await service_setup(warmup)
    server.stop()

    if not args.trace:
        setups = await service_cold_setups(warmup)
        server, seconds = await service_setup(warmup)
        setups.append(seconds)
        rounds: List[Dict[str, Any]] = []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            summary = summarize_rounds(rounds)
            if time.perf_counter() >= deadline and len(
                    summary["open_latencies"]) >= MIN_OPEN_ROUNDS:
                break
            for _ in range(CLOSED_PER_OPEN):
                rounds.append(await service_round(
                    server, "closed", streams[index % len(streams)]))
                index += 1
            rounds.append(await service_round(
                server, "open", streams[index % len(streams)]))
        report = server.report()
        setups += await service_cold_setups(warmup)
        latencies = summary["latencies"]
        return {
            "attempted": summary["attempted"], "failed": summary["failed"],
            "problems": [],
            "metrics": {
                "setup_s": common.median(setups),
                "throughput_per_s": common.slow_quartile(
                    summary["throughputs"], True),
                "latency_p50_ms": common.slow_quartile([
                    common.percentile(round_ms, 0.50)
                    for round_ms in summary["open_latencies"]], False),
                "peak_rss_mb": report["peak_rss_mb"],
            },
            "diagnostics": {
                "setups_s": setups,
                "closed_rounds": len(summary["throughputs"]),
                "throughput_quartiles": common.quartiles(
                    summary["throughputs"]),
                "open_rounds": len(summary["open_latencies"]),
                "open_samples": len(latencies),
                "latency_p50_ms_all": common.percentile(latencies, 0.50),
                "latency_p90_ms_all": common.percentile(latencies, 0.90),
                "latency_p99_ms_all": common.percentile(latencies, 0.99),
                "lateness_ms_p99": common.percentile(
                    summary["lateness"], 0.99),
                "open_rate": OPEN_RATE,
            },
        }

    # Traced run: closed-loop rounds alternate between the untraced and
    # the traced server, so both see the same host phases.  Layer times
    # are per op of the saturated closed loop, where wall time minus
    # server self time is the residual.  The untraced server also runs
    # the open loop, whose generator lateness validates the latencies.
    spans_path = os.path.join(common.ensure_work_dir("traces"),
                              "gateway-mixed.spans.jsonl")
    plain_server, _ = await service_setup(warmup)
    traced_server, _ = await service_setup(warmup, "--trace", spans_path)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    for index in range(TRACED_ROUNDS):
        stream = streams[index % len(streams)]
        plain.append(await service_round(plain_server, "closed", stream))
        traced.append(await service_round(traced_server, "closed", stream))
        plain.append(await service_round(plain_server, "open", stream))
    plain_server.stop()
    report = traced_server.report()
    plain_summary = summarize_rounds(plain)
    traced_summary = summarize_rounds(traced)
    extras = {
        "ops": traced_summary["attempted"],
        "traced_wall": sum(r["wall"] for r in traced),
        "overhead_pct": 100.0 * (common.median([
            p / t for p, t in zip(plain_summary["throughputs"],
                                  traced_summary["throughputs"])]) - 1.0),
        "stats": report["stats"],
        "lateness_ms_p99": common.percentile(
            plain_summary["lateness"], 0.99),
    }
    return {
        "attempted": plain_summary["attempted"] + traced_summary["attempted"],
        "failed": plain_summary["failed"] + traced_summary["failed"],
        "problems": [],
        "metrics": layer_metrics(report["layers"], extras),
        "diagnostics": {"traced_rounds": len(traced)},
    }


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(layers: Dict[str, Any], extras: Dict[str, Any]
                  ) -> Dict[str, float]:
    """Map a traced process's span summary onto the per-layer metrics.

    Times are span self time unless the name says otherwise; ``_per_op``
    divides by the ops (journeys or client requests) of the traced leg.
    """
    measure = layers["measure"]["layers"]
    calls = layers["measure"]["calls"]
    setup = layers["setup"]["layers"]
    ops = extras["ops"]
    empty = {"self": 0.0, "inclusive": 0.0, "calls": 0, "entries": {}}

    def layer(name: str, phase: Dict[str, Any] = measure) -> Dict[str, Any]:
        return phase.get(name, empty)

    def entry_value(name: str, entry: str, key: str = "value") -> float:
        return layer(name)["entries"].get(entry, {}).get(key, 0)

    def ms(name: str) -> float:
        return 1000.0 * layer(name)["self"] / ops

    def inclusive_us(name: str) -> float:
        return 1e6 * layer(name)["inclusive"] / ops

    def per_op(*entries: str) -> float:
        return sum(calls.get(entry, 0) for entry in entries) / ops

    stats = extras.get("stats", {})
    batching = stats.get("batching", {})
    gateway = stats.get("gateway", {})
    batch_items = entry_value("crypto.dsa.batch", "batch_verify")
    cache_gets = layer("service.cache")["entries"].get(
        "VerdictCache.get", {"calls": 0})["calls"]
    self_total = sum(totals["self"] for totals in measure.values())
    return {
        "crypto.canonical.encode_ms_per_op": ms("crypto.canonical.encode"),
        "crypto.canonical.encode_calls_per_op":
            layer("crypto.canonical.encode")["calls"] / ops,
        "crypto.canonical.encoded_bytes_per_op": sum(
            e["value"] for e in
            layer("crypto.canonical.encode")["entries"].values()) / ops,
        "crypto.canonical.decode_ms_per_op": ms("crypto.canonical.decode"),
        "agents.state.capture_restore_ms_per_op": ms("agents.state"),
        "agents.state.capture_restore_calls_per_op": per_op(
            "AgentState.capture", "AgentState.restore"),
        "agents.state.snapshot_calls_per_op": per_op("DataState.snapshot"),
        "crypto.dsa.sign_ms_per_op": ms("crypto.dsa.sign"),
        "crypto.dsa.verify_ms_per_op": ms("crypto.dsa.verify"),
        "crypto.dsa.verify_calls_per_op": per_op(
            "DSAPublicKey.verify", "DSAPublicKey.verify_recoverable"),
        "crypto.dsa.batch_verify_ms_per_op": ms("crypto.dsa.batch"),
        "crypto.dsa.batch_verify_calls_per_op": per_op("batch_verify"),
        "crypto.dsa.find_invalid_calls_per_op": per_op("find_invalid"),
        "crypto.dsa.batch_useful_ratio": (
            entry_value("crypto.dsa.batch", "batch_verify", "passed")
            / batch_items if batch_items else 0.0),
        "crypto.dsa.table_build_ms":
            1000.0 * layer("crypto.dsa.tables", setup)["inclusive"],
        "crypto.keys.setup_ms":
            1000.0 * layer("crypto.keys", setup)["inclusive"],
        "core.protocol.check_ms_per_op": ms("core.protocol"),
        "core.protocol.checks_per_op": per_op(
            "ReferenceStateProtocol.on_arrival", "check_session_payload"),
        "platform.registry.step_self_ms_per_op": ms("platform.registry"),
        "sim.trace.write_ms_per_op": ms("sim.trace"),
        "sim.trace.bytes_per_op": extras.get("trace_bytes", 0) / ops,
        "sim.trace.events_per_op": per_op("TraceWriter.emit"),
        "sim.shard.self_ms_per_op": ms("sim.shard"),
        "sim.fleet.engine_self_ms_per_op": ms("sim.fleet"),
        # Inclusive: framing is little more than the canonical codec
        # call it wraps, so the codec's time counts as the wire's here.
        "service.wire.encode_us_per_req": inclusive_us("service.wire.encode"),
        "service.wire.decode_us_per_req": inclusive_us("service.wire.decode"),
        "service.wire.frame_bytes_per_req": (
            entry_value("service.wire.encode", "encode_frame")
            + entry_value("service.wire.read", "read_frame")) / ops,
        "service.batching.mean_batch_size": (
            batching["items"] / batching["batches"]
            if batching.get("batches") else 0.0),
        "service.batching.queue_wait_ms_mean": (
            1000.0 * batching["queue_wait_total"] / batching["items"]
            if batching.get("items") else 0.0),
        "service.batching.flush_ms_per_req": ms("service.batching"),
        "service.cache.hit_ratio": (
            entry_value("service.cache", "VerdictCache.get") / cache_gets
            if cache_gets else 0.0),
        "service.cluster.backend_request_ms_per_req":
            1000.0 * layer("service.cluster")["inclusive"] / ops,
        "service.cluster.cache_hit_ratio": (
            gateway["cache_hits"] / gateway["verify_requests"]
            if gateway.get("verify_requests") else 0.0),
        "service.cluster.dedup_hits_per_req":
            gateway.get("dedup_hits", 0) / ops,
        "service.client.lateness_ms_p99": extras.get("lateness_ms_p99", 0.0),
        "trace.overhead_pct": extras["overhead_pct"],
        "trace.residual_ms_per_op":
            1000.0 * (extras["traced_wall"] - self_total) / ops,
    }


# -- entry point ---------------------------------------------------------------


def run_workload(workload: str, args: argparse.Namespace) -> bool:
    """Run, check and report one workload; whether every op was correct."""
    work = tempfile.mkdtemp(prefix="run-", dir=common.ensure_work_dir())
    try:
        calib_before = common.calibrate()
        if workload == "fleet-campaign":
            outcome = run_fleet_workload(args, work)
        else:
            outcome = asyncio.run(run_gateway_workload(args, work))
        calib_after = common.calibrate()
    finally:
        common.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = common.metric_units(kind)
    metrics = dict(outcome["metrics"])
    if args.trace:
        metrics["host.calib_ms"] = (calib_before + calib_after) / 2.0
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise common.BenchError("metrics not produced: %s" % missing)
    bad = sorted(name for name in units if not math.isfinite(metrics[name]))
    problems = list(outcome["problems"])
    if bad:
        problems.append("non-finite metrics: %s" % bad)
    correct = outcome["failed"] == 0 and not problems
    record = {
        "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": common.fingerprint(),
        "calib_ms": {"before": calib_before, "after": calib_after},
        "diagnostics": outcome["diagnostics"], "problems": problems,
        "metrics": {name: metrics[name] for name in units},
    }
    results = common.ensure_work_dir("results")
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            workload, args.seed, args.trace)), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for problem in problems:
        print("perfbench: %s: %s" % (workload, problem), file=sys.stderr)
    print(json.dumps({key: record[key] for key in (
        "workload", "fingerprint", "calib_ms", "diagnostics")},
        sort_keys=True))
    print(common.result_line(correct, outcome["attempted"],
                             outcome["failed"],
                             {name: {"value": metrics[name], "unit": unit}
                              for name, unit in units.items()}))
    sys.stdout.flush()
    return correct


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.load_benchmark_spec()
    except (common.BenchError, OSError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    os.environ.update(common.PINNED_ENV)
    sys.path.insert(0, common.SRC)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        correct = [run_workload(workload, args) for workload in workloads]
    except common.BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
