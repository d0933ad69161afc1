"""Paper-table measurement: timing decomposition, table rendering, reporting.

Only the measurement core is re-exported here.  Table rendering and
fleet reporting are imported from :mod:`repro.bench.tables` and
:mod:`repro.bench.fleet`, so that ``python -m repro.bench.tables`` runs
a module the package has not already imported.
"""

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

__all__ = [
    "MeasurementResult",
    "measure_generic_agent",
    "run_measurement_grid",
    "CATEGORY_CYCLE",
    "CATEGORY_SIGN_VERIFY",
    "TimingBreakdown",
    "TimingCollector",
]
