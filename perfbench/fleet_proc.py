"""The measured process of the ``fleet-campaign`` workload.

Usage: ``python3 perfbench/fleet_proc.py CONFIG_JSON [--setup-only]
[--trace SPANS_PATH]``

Set-up is interpreter start, the program's imports and
``warm_worker(fleet_host_names(config))``; the process then prints
``{"ready": ...}``.  With ``--setup-only`` it exits there.  Otherwise it
answers JSON commands on stdin:

* ``{"cmd": "run", "seconds": S, "min_reps": N, "max_reps": M,
  "first_rep": F}`` runs campaigns ``run_fleet(config, workers=1)``
  until ``S`` seconds are up (at least ``N``, at most ``M`` of them),
  campaign ``r`` (counting from ``F``) on a seed derived from the
  configured one and ``r``, and prints one record per campaign: wall
  time, journeys, ground-truth mismatches, signature and, untraced,
  per-journey processing times;
* ``{"cmd": "report"}`` prints peak RSS and, when traced, the span
  summary.

End of stdin ends the process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace
from typing import Any, Callable, Dict

import common

config_path = sys.argv[1]
setup_only = "--setup-only" in sys.argv
spans_path = sys.argv[sys.argv.index("--trace") + 1] if "--trace" in sys.argv \
    else None

# Set-up timing starts at interpreter start, so these imports count.
import repro.sim as sim  # noqa: E402

tracer = None
if spans_path is not None:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.phase = "setup"

#: Untraced runs time every journey from here: seconds spent inside the
#: journey's ``JourneyRunner.start`` and ``JourneyRunner.step`` calls
#: (arrival check, session, state capture, signing, migration), keyed by
#: runner.  The traced run leaves them to the tracer.
journey_seconds: Dict[int, float] = {}


def timed(method: Callable) -> Callable:
    def timed_method(runner: Any, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return method(runner, *args, **kwargs)
        finally:
            # Keyed by the runner itself: it stays alive until the
            # campaign's record is built, so no two journeys share a key.
            journey_seconds[runner] = (journey_seconds.get(runner, 0.0)
                                       + time.perf_counter() - started)

    return timed_method


if tracer is None:
    from repro.platform import JourneyRunner

    JourneyRunner.start = timed(JourneyRunner.start)
    JourneyRunner.step = timed(JourneyRunner.step)

with open(config_path, encoding="utf-8") as handle:
    settings = json.load(handle)
# The campaign draws from the default resident-attack scenarios.
settings["journey_scenarios"] = sim.FleetConfig().attack_scenarios
config = sim.FleetConfig(**settings)
# Called through the package attribute so the tracer's rebinding applies.
sim.warm_worker(sim.fleet_host_names(config))
if tracer is not None:
    tracer.phase = None
common.emit({"ready": True, "pid": os.getpid()})
if setup_only:
    sys.exit(0)


def ground_truth_failures(result) -> int:
    """Journeys whose detection or blame disagrees with ground truth."""
    failures = 0
    for outcome in result.outcomes:
        if outcome.detected != outcome.expected_detected:
            failures += 1
        elif outcome.detected and not (
                set(outcome.blamed_hosts) & set(outcome.attacker_hosts)):
            failures += 1
    return failures


def run_campaign(rep: int) -> dict:
    """Campaign ``rep`` of the run: the configured fleet on its own seed."""
    campaign_config = replace(
        config, seed=sim.derive_substream(config.seed, "campaign", rep)
    )
    journey_seconds.clear()
    if tracer is not None:
        tracer.phase = "measure"
    started = time.perf_counter()
    result = sim.run_fleet(campaign_config, workers=1)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.phase = None
    campaign = sim.analyze_campaign(result)
    return {
        "wall_seconds": wall,
        "journeys": result.journeys,
        "failed": ground_truth_failures(result),
        "recall": campaign.recall,
        "false_positives": result.false_positives,
        "blame_accuracy": result.blame_accuracy,
        "signature": result.deterministic_signature(),
        "trace_bytes": os.path.getsize(config.trace_path),
        "journey_ms": [1000.0 * s for s in journey_seconds.values()],
    }


for line in sys.stdin:
    command = json.loads(line)
    if command["cmd"] == "run":
        deadline = time.perf_counter() + command["seconds"]
        reps = 0
        while reps < command["max_reps"] and (
                reps < command["min_reps"] or time.perf_counter() < deadline):
            common.emit({"campaign": run_campaign(command["first_rep"] + reps)})
            reps += 1
        common.emit({"done": reps})
    elif command["cmd"] == "report":
        report = {"peak_rss_mb": common.peak_rss_mb()}
        if tracer is not None:
            tracer.dump(spans_path)
            report["layers"] = tracing.export_summary(tracer)
        common.emit({"report": report})
