"""Measurement harness for the paper's Tables 1 and 2.

:func:`measure_generic_agent` / :func:`run_measurement_grid` regenerate
the measurements behind Tables 1 and 2: a *plain* agent runs the
three-host path unprotected but "signed and verified as a whole" at
each migration, a *protected* agent runs the same path under the
:class:`~repro.core.protocol.ReferenceStateProtocol`.  Timing is
decomposed into the paper's columns via
:class:`~repro.bench.metrics.TimingCollector`.

End-to-end performance numbers (fleet, campaign and service
throughput, latency, per-layer splits) come from ``perfbench/run.py``;
the pass/fail speed gates live as plain tests under ``benchmarks/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.bench.metrics import TimingBreakdown, TimingCollector
from repro.core.protocol import ReferenceStateProtocol
from repro.platform.registry import JourneyResult
from repro.workloads.generators import build_generic_scenario, paper_parameter_grid

__all__ = [
    "MeasurementResult",
    "measure_generic_agent",
    "run_measurement_grid",
]


@dataclass
class MeasurementResult:
    """Timing breakdown plus journey bookkeeping for one configuration."""

    breakdown: TimingBreakdown
    journey: JourneyResult
    protected: bool
    cycles: int
    inputs: int

    @property
    def detected_attack(self) -> bool:
        """Whether any verdict of the run reported an attack."""
        return self.journey.detected_attack()


def measure_generic_agent(
    cycles: int,
    inputs: int,
    protected: bool,
    use_fast_cycles: bool = False,
    label: Optional[str] = None,
    injectors: Optional[List[Any]] = None,
) -> MeasurementResult:
    """Run one cell of the measurement grid and return its breakdown.

    Parameters
    ----------
    cycles / inputs:
        The generic agent's two parameters.
    protected:
        Run under the reference-state protocol instead of plain.
    use_fast_cycles:
        Use the C-level cycle implementation (the "JIT" ablation).
    injectors:
        Optional attacks to mount on the untrusted middle host (used by
        detection-oriented benchmarks; the timing tables run honestly).
    """
    metrics = TimingCollector()
    scenario, agent = build_generic_scenario(
        cycles=cycles,
        input_elements=inputs,
        protected_agent=protected,
        use_fast_cycles=use_fast_cycles,
        metrics=metrics,
        middle_host_injectors=injectors,
    )
    protection = None
    if protected:
        protection = ReferenceStateProtocol(
            code_registry=scenario.system.code_registry,
            trusted_hosts=scenario.trusted_host_names,
        )

    # A host that has been running has its key's exponentiation table;
    # built lazily, it would land inside whichever cell first uses a
    # key a few times and charge that cell for it.
    for host in scenario.system.registry.hosts():
        host.identity.public_key.precompute()

    started = time.perf_counter()
    journey = scenario.system.launch(agent, scenario.itinerary, protection=protection)
    overall_seconds = time.perf_counter() - started

    row_label = label or "%d input%s, %d cycle%s" % (
        inputs, "" if inputs == 1 else "s", cycles, "" if cycles == 1 else "s",
    )
    breakdown = TimingBreakdown.from_collector(row_label, metrics, overall_seconds)
    return MeasurementResult(
        breakdown=breakdown,
        journey=journey,
        protected=protected,
        cycles=cycles,
        inputs=inputs,
    )


def run_measurement_grid(protected: bool,
                         use_fast_cycles: bool = False) -> List[MeasurementResult]:
    """Run all four configurations of the paper's grid."""
    results = []
    for cell in paper_parameter_grid():
        results.append(
            measure_generic_agent(
                cycles=cell["cycles"],
                inputs=cell["inputs"],
                protected=protected,
                use_fast_cycles=use_fast_cycles,
                label=cell["label"],
            )
        )
    return results
