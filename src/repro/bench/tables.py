"""Rendering Tables 1 and 2 (and the paper's reference values).

``python -m repro.bench.tables --table 1`` regenerates Table 1 (plain
agents), ``--table 2`` regenerates Table 2 (protected agents, with the
overhead factors relative to a freshly measured Table 1), and
``--table both`` prints both plus a side-by-side comparison of measured
overall overhead factors against the paper's.

``--table detectability`` runs a small adversarial campaign
(:mod:`repro.sim.campaign`) and renders the paper-style detectability
table: one row per mounted attack scenario with its Figure-2 area,
expected detectability class, and the measured detection rate and mean
hops-to-detection.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import MeasurementResult, run_measurement_grid
from repro.bench.metrics import TimingBreakdown
from repro.sim.campaign import CampaignResult, campaign_config, run_campaign

__all__ = [
    "PAPER_TABLE_1",
    "PAPER_TABLE_2",
    "PAPER_OVERALL_FACTORS",
    "NOT_APPLICABLE",
    "metric_cell",
    "format_table",
    "format_overhead_table",
    "format_detectability_table",
    "overall_factors",
    "main",
]

#: Table 1 of the paper: plain agents, times in milliseconds.
PAPER_TABLE_1: Dict[str, Dict[str, float]] = {
    "1 input, 1 cycle": {
        "sign_verify_ms": 209, "cycle_ms": 2, "remainder_ms": 93, "overall_ms": 304,
    },
    "100 inputs, 1 cycle": {
        "sign_verify_ms": 409, "cycle_ms": 3, "remainder_ms": 153, "overall_ms": 564,
    },
    "1 input, 10000 cycles": {
        "sign_verify_ms": 217, "cycle_ms": 27158, "remainder_ms": 93,
        "overall_ms": 27468,
    },
    "100 inputs, 10000 cycles": {
        "sign_verify_ms": 400, "cycle_ms": 27235, "remainder_ms": 155,
        "overall_ms": 27789,
    },
}

#: Table 2 of the paper: protected agents, times in milliseconds.
PAPER_TABLE_2: Dict[str, Dict[str, float]] = {
    "1 input, 1 cycle": {
        "sign_verify_ms": 237, "cycle_ms": 3, "remainder_ms": 345, "overall_ms": 584,
    },
    "100 inputs, 1 cycle": {
        "sign_verify_ms": 560, "cycle_ms": 4, "remainder_ms": 670, "overall_ms": 1234,
    },
    "1 input, 10000 cycles": {
        "sign_verify_ms": 235, "cycle_ms": 36353, "remainder_ms": 341,
        "overall_ms": 36929,
    },
    "100 inputs, 10000 cycles": {
        "sign_verify_ms": 472, "cycle_ms": 36272, "remainder_ms": 1983,
        "overall_ms": 38727,
    },
}

#: The paper's overall overhead factors (Table 2, bracketed values).
PAPER_OVERALL_FACTORS: Dict[str, float] = {
    "1 input, 1 cycle": 1.9,
    "100 inputs, 1 cycle": 2.2,
    "1 input, 10000 cycles": 1.3,
    "100 inputs, 10000 cycles": 1.4,
}

_COLUMNS = ("sign_verify_ms", "cycle_ms", "remainder_ms", "overall_ms")
_COLUMN_TITLES = ("sign & verify", "cycle", "remainder", "overall")


def format_table(breakdowns: Sequence[TimingBreakdown], title: str) -> str:
    """Render measured breakdowns as a fixed-width text table (in ms)."""
    header = "%-28s %14s %14s %14s %14s" % ((title,) + _COLUMN_TITLES)
    lines = [header, "-" * len(header)]
    for row in breakdowns:
        lines.append(
            "%-28s %14.1f %14.1f %14.1f %14.1f" % (
                row.label, row.sign_verify_ms, row.cycle_ms,
                row.remainder_ms, row.overall_ms,
            )
        )
    return "\n".join(lines)


def format_overhead_table(
    protected: Sequence[TimingBreakdown],
    plain: Sequence[TimingBreakdown],
    title: str = "protected agents (overhead factor vs plain)",
) -> str:
    """Render protected breakdowns annotated with overhead factors."""
    plain_by_label = {row.label: row for row in plain}
    header = "%-28s %20s %20s %20s %20s" % ((title,) + _COLUMN_TITLES)
    lines = [header, "-" * len(header)]
    for row in protected:
        baseline = plain_by_label.get(row.label)
        factors = row.overhead_factors(baseline) if baseline else {}

        def cell(value_ms: float, key: str) -> str:
            factor = factors.get(key)
            if factor is None:
                return "%13.1f ( -- )" % value_ms
            return "%13.1f (%4.1f)" % (value_ms, factor)

        lines.append("%-28s %s %s %s %s" % (
            row.label,
            cell(row.sign_verify_ms, "sign_verify"),
            cell(row.cycle_ms, "cycle"),
            cell(row.remainder_ms, "remainder"),
            cell(row.overall_ms, "overall"),
        ))
    return "\n".join(lines)


def overall_factors(protected: Sequence[TimingBreakdown],
                    plain: Sequence[TimingBreakdown]) -> Dict[str, Optional[float]]:
    """Measured overall overhead factor per configuration label."""
    plain_by_label = {row.label: row for row in plain}
    factors: Dict[str, Optional[float]] = {}
    for row in protected:
        baseline = plain_by_label.get(row.label)
        if baseline is None or baseline.overall_ms <= 0:
            factors[row.label] = None
        else:
            factors[row.label] = row.overall_ms / baseline.overall_ms
    return factors


#: Placeholder for metrics that are undefined on a row (no detections →
#: no mean hops-to-detection; no alarms → no precision).  An em-dash
#: reads as "not applicable" where a literal ``None`` (or ``nan``)
#: would read as a bug in the table.
NOT_APPLICABLE = "—"


def metric_cell(value: Optional[float], fmt: str = "%.2f") -> str:
    """Format an optional metric, rendering ``None`` as an em-dash."""
    return fmt % value if value is not None else NOT_APPLICABLE


def format_detectability_table(
    campaign: CampaignResult,
    title: str = "Detectability under reference states",
) -> str:
    """Render a campaign's per-scenario detection matrix as text.

    One row per mounted scenario (Figure-2 area, expected detectability
    class, detected / injected, precision, mean hops-to-detection),
    followed by a rollup per detectability class and the benign
    false-positive rate — the campaign analogue of the paper's Section 4
    coverage discussion.  Undefined cells (``precision`` or
    ``mean_hops_to_detection`` of a scenario that never alarmed) render
    as :data:`NOT_APPLICABLE` rather than ``None``.
    """
    header = "%-24s %-6s %-20s %-10s %9s %10s %12s" % (
        title, "area", "class", "expected", "detected", "precision",
        "hops-to-det",
    )
    lines = [header, "-" * len(header)]
    for name, stats in sorted(campaign.per_scenario().items()):
        lines.append("%-24s %-6d %-20s %-10s %9s %10s %12s" % (
            name,
            stats.area.value,
            stats.detectability.value,
            "yes" if stats.expected_detected else "no",
            "%d/%d" % (stats.detected, stats.injected),
            metric_cell(stats.precision),
            metric_cell(stats.mean_hops_to_detection, "%.1f"),
        ))
    lines.append("")
    for class_name, row in sorted(campaign.detectability_matrix().items()):
        lines.append("%-28s areas %-12s %3d/%3d detected (%s)" % (
            class_name,
            ",".join(str(a) for a in row["areas"]),
            row["detected"], row["mounted"],
            metric_cell(row["detection_rate"]),
        ))
    lines.append("benign journeys: %d, false-positive rate %.4f" % (
        len(campaign.benign_journeys), campaign.false_positive_rate,
    ))
    return "\n".join(lines)


def _breakdowns(results: Sequence[MeasurementResult]) -> List[TimingBreakdown]:
    return [result.breakdown for result in results]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command line entry point: regenerate Table 1 and/or Table 2."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table",
                        choices=("1", "2", "both", "detectability"),
                        default="both",
                        help="which table to regenerate")
    parser.add_argument("--fast-cycles", action="store_true",
                        help="use the C-level cycle loop (JIT ablation)")
    parser.add_argument("--campaign-agents", type=int, default=120,
                        help="campaign size for --table detectability "
                             "(default: 120)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed for --table detectability")
    options = parser.parse_args(argv)

    if options.table == "detectability":
        campaign = run_campaign(campaign_config(
            num_agents=options.campaign_agents,
            num_hosts=10,
            hops_per_journey=3,
            attack_fraction=0.35,
            seed=options.seed,
        ))
        print(format_detectability_table(campaign))
        return 0

    plain = run_measurement_grid(protected=False,
                                 use_fast_cycles=options.fast_cycles)
    output: List[str] = []

    if options.table in ("1", "both"):
        output.append(format_table(_breakdowns(plain),
                                   "Table 1: plain agents [ms]"))
    if options.table in ("2", "both"):
        protected = run_measurement_grid(protected=True,
                                         use_fast_cycles=options.fast_cycles)
        output.append("")
        output.append(format_overhead_table(
            _breakdowns(protected), _breakdowns(plain),
            "Table 2: protected agents [ms]",
        ))
        output.append("")
        output.append("Overall overhead factors (measured vs paper):")
        measured = overall_factors(_breakdowns(protected), _breakdowns(plain))
        for label, factor in measured.items():
            paper_value = PAPER_OVERALL_FACTORS.get(label)
            output.append("  %-28s measured %.2fx   paper %.1fx" % (
                label, factor if factor is not None else float("nan"),
                paper_value if paper_value is not None else float("nan"),
            ))

    print("\n".join(output))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
