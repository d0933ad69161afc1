"""Benchmark-style reporting for fleet simulation runs.

Bridges :class:`~repro.sim.fleet.FleetResult` into the library's
existing reporting vocabulary: a
:class:`~repro.attacks.detection.DetectionReport` (so fleet-scale
coverage is comparable with the single-journey coverage suite) and
markdown tables in the style of :mod:`repro.bench.reporting`.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.attacks.detection import DetectionOutcome, DetectionReport
from repro.attacks.scenarios import scenario_by_name
from repro.bench.reporting import markdown_table
from repro.sim.fleet import FleetResult

__all__ = [
    "fleet_detection_report",
    "fleet_latency_rows",
    "fleet_summary_markdown",
]


def fleet_detection_report(result: FleetResult) -> DetectionReport:
    """Convert per-journey outcomes into a detection confusion matrix.

    A journey that visited several malicious hosts contributes one
    outcome per mounted scenario (the protocol checks every session, so
    each attack site is a separate detection opportunity); honest
    journeys contribute honest-run outcomes for the false-positive rate.
    """
    mechanism = (
        "reference-state-protocol" if result.config.protected else "unprotected"
    )
    report = DetectionReport()
    for outcome in result.outcomes:
        if not outcome.malicious_visited:
            report.add(DetectionOutcome(
                mechanism=mechanism,
                attack=None,
                detected=outcome.detected,
                blamed_hosts=outcome.blamed_hosts,
            ))
            continue
        for host, scenario_name in zip(outcome.malicious_visited,
                                       outcome.scenarios):
            scenario = scenario_by_name(scenario_name)
            report.add(DetectionOutcome(
                mechanism=mechanism,
                attack=scenario.describe(host),
                detected=outcome.detected,
                blamed_hosts=outcome.blamed_hosts,
                expected_detection=(
                    scenario.expected_detected and result.config.protected
                ),
            ))
    return report


def fleet_latency_rows(result: FleetResult) -> List[List[str]]:
    """Per-phase wall-compute and virtual-latency rows for a table."""
    phases = result.per_phase_seconds()
    total = sum(phases.values()) or 1.0
    rows = [
        [phase, "%.3f" % seconds, "%.1f%%" % (100.0 * seconds / total)]
        for phase, seconds in sorted(phases.items())
    ]
    rows.append(["total", "%.3f" % sum(phases.values()), "100.0%"])
    return rows


def fleet_summary_markdown(result: FleetResult) -> str:
    """Render a full fleet report as markdown."""
    summary = result.summary()
    detectable = sum(1 for o in result.outcomes if o.expected_detected)
    header_rows = [
        ["journeys", str(summary["journeys"])],
        ["attacked / honest", "%d / %d" % (
            summary["attacked_journeys"], summary["honest_journeys"],
        )],
        ["detection rate", (
            "%.3f" % summary["detection_rate"] if detectable
            else "n/a (no detectable attacks expected)"
        )],
        ["false positives", str(summary["false_positives"])],
        ["blame accuracy", "%.3f" % summary["blame_accuracy"]],
        ["virtual makespan (s)", "%.3f" % summary["virtual_makespan"]],
        ["journeys / virtual s", "%.1f" % summary["virtual_throughput"]],
        ["mean journey latency (s)", "%.4f" % summary["mean_journey_latency"]],
        ["events processed", str(summary["events_processed"])],
        ["wall time (s)", "%.2f" % summary["wall_seconds"]],
    ]
    sections = [
        "# Fleet simulation report",
        "",
        markdown_table(["metric", "value"], header_rows),
        "",
        "## Compute cost by phase (wall seconds)",
        "",
        markdown_table(["phase", "seconds", "share"],
                       fleet_latency_rows(result)),
    ]
    if result.verifier_stats:
        stats: Dict[str, Any] = result.verifier_stats
        sections += [
            "",
            "## Batched verification",
            "",
            markdown_table(
                ["metric", "value"],
                [
                    ["verified", str(stats.get("verified", 0))],
                    ["failed", str(stats.get("failed", 0))],
                    ["batches", str(stats.get("batches", 0))],
                ],
            ),
        ]
    return "\n".join(sections) + "\n"
