"""Report generation: paper-vs-measured comparisons in Markdown.

The EXPERIMENTS.md file of the repository records, for every table and
figure of the paper, the values the paper reports next to the values the
reproduction measures.  This module produces those Markdown fragments so
the file can be regenerated from a single command::

    python -m repro.bench.reporting > EXPERIMENTS.generated.md
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.harness import run_measurement_grid
from repro.bench.metrics import TimingBreakdown
from repro.bench.tables import (
    PAPER_OVERALL_FACTORS,
    PAPER_TABLE_1,
    PAPER_TABLE_2,
    overall_factors,
)

__all__ = ["markdown_table", "comparison_section", "generate_report"]


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a simple Markdown table."""
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _row(label: str, paper: Dict[str, float], measured: TimingBreakdown) -> List[str]:
    return [
        label,
        "%.0f" % paper["sign_verify_ms"], "%.1f" % measured.sign_verify_ms,
        "%.0f" % paper["cycle_ms"], "%.1f" % measured.cycle_ms,
        "%.0f" % paper["remainder_ms"], "%.1f" % measured.remainder_ms,
        "%.0f" % paper["overall_ms"], "%.1f" % measured.overall_ms,
    ]


def comparison_section(title: str, paper_table: Dict[str, Dict[str, float]],
                       measured: Sequence[TimingBreakdown]) -> str:
    """One table/figure section comparing paper and measured values."""
    headers = [
        "configuration",
        "sign&verify (paper)", "sign&verify (measured)",
        "cycle (paper)", "cycle (measured)",
        "remainder (paper)", "remainder (measured)",
        "overall (paper)", "overall (measured)",
    ]
    measured_by_label = {row.label: row for row in measured}
    rows = []
    for label, paper_row in paper_table.items():
        measured_row = measured_by_label.get(label)
        if measured_row is None:
            continue
        rows.append(_row(label, paper_row, measured_row))
    return "## %s\n\n%s\n" % (title, markdown_table(headers, rows))


def factor_section(protected: Sequence[TimingBreakdown],
                   plain: Sequence[TimingBreakdown]) -> str:
    """Overall overhead factors, measured vs paper."""
    measured = overall_factors(protected, plain)
    headers = ["configuration", "overall factor (paper)", "overall factor (measured)"]
    rows = []
    for label, paper_factor in PAPER_OVERALL_FACTORS.items():
        value = measured.get(label)
        rows.append([
            label,
            "%.1fx" % paper_factor,
            "%.2fx" % value if value is not None else "n/a",
        ])
    return "## Overall overhead factors\n\n%s\n" % markdown_table(headers, rows)


def generate_report(use_fast_cycles: bool = False) -> str:
    """Run both grids and produce the full Markdown comparison report."""
    plain = [r.breakdown for r in run_measurement_grid(False, use_fast_cycles)]
    protected = [r.breakdown for r in run_measurement_grid(True, use_fast_cycles)]
    sections = [
        "# Paper-vs-measured report (generated)",
        "",
        "All times in milliseconds.  Absolute values are not comparable "
        "(1999 JVM + IAIK-JCE vs. present-day CPython + pure-Python DSA); "
        "the factors and the relative column structure are.",
        "",
        comparison_section("Table 1 — plain agents", PAPER_TABLE_1, plain),
        comparison_section("Table 2 — protected agents", PAPER_TABLE_2, protected),
        factor_section(protected, plain),
    ]
    return "\n".join(sections)


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    print(generate_report())
