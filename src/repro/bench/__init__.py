"""Paper-table measurement: timing decomposition, table rendering, reporting."""

from repro.bench.fleet import (
    fleet_detection_report,
    fleet_latency_rows,
    fleet_summary_markdown,
)
from repro.bench.harness import (
    MeasurementResult,
    measure_generic_agent,
    run_measurement_grid,
)
from repro.bench.metrics import (
    CATEGORY_CYCLE,
    CATEGORY_SIGN_VERIFY,
    TimingBreakdown,
    TimingCollector,
)
from repro.bench.tables import (
    PAPER_OVERALL_FACTORS,
    PAPER_TABLE_1,
    PAPER_TABLE_2,
    format_overhead_table,
    format_table,
    overall_factors,
)

__all__ = [
    "fleet_detection_report",
    "fleet_latency_rows",
    "fleet_summary_markdown",
    "MeasurementResult",
    "measure_generic_agent",
    "run_measurement_grid",
    "CATEGORY_CYCLE",
    "CATEGORY_SIGN_VERIFY",
    "TimingBreakdown",
    "TimingCollector",
    "PAPER_OVERALL_FACTORS",
    "PAPER_TABLE_1",
    "PAPER_TABLE_2",
    "format_overhead_table",
    "format_table",
    "overall_factors",
]

