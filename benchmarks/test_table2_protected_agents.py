"""Benchmark regenerating **Table 2** — protected agents.

Paper reference (times in ms, overhead factor vs Table 1 in brackets):

=======================  ============  ============  ============  ============
configuration            sign&verify   cycle         remainder     overall
=======================  ============  ============  ============  ============
1 input, 1 cycle           237 (1.1)       3 (1.7)     345 (3.7)     584 (1.9)
100 inputs, 1 cycle        560 (1.4)       4 (1.5)     670 (4.4)    1234 (2.2)
1 input, 10000 cycles      235 (1.1)   36353 (1.3)     341 (3.7)   36929 (1.3)
100 inputs, 10000 cycles   472 (1.2)   36272 (1.3)    1983 (12.8)  38727 (1.4)
=======================  ============  ============  ============  ============

Shape expectations asserted here (absolute values are machine specific):

* the protected run always costs more than the plain run;
* the **cycle** factor stays modest (the main routine runs one extra
  time out of three: ≈ 4/3);
* the **remainder** factor is the largest of the three component
  factors (the protocol compares, signs, and verifies single states);
* the **overall** factor is large for the computation-light agents and
  collapses towards ~1.3 when the summation cycles dominate — the
  crossover the paper reports.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import measure_generic_agent
from repro.bench.tables import (
    PAPER_OVERALL_FACTORS,
    PAPER_TABLE_2,
    format_overhead_table,
    overall_factors,
)
from repro.workloads.generators import paper_parameter_grid

from benchmarks.reportutil import write_report

_GRID = paper_parameter_grid()


@pytest.mark.parametrize("cell", _GRID, ids=lambda cell: cell["label"])
def test_table2_row(benchmark, cell):
    """Measure one protected-agent configuration of Table 2."""

    def run():
        return measure_generic_agent(
            cycles=cell["cycles"], inputs=cell["inputs"], protected=True,
            label=cell["label"],
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    breakdown = result.breakdown

    assert not result.detected_attack  # honest hosts: protection stays silent
    assert breakdown.overall_ms > 0
    benchmark.extra_info.update(breakdown.as_dict())
    benchmark.extra_info["paper_ms"] = PAPER_TABLE_2[cell["label"]]


#: Interleaved plain/protected rounds each cell is read from.  One round
#: of a 10000-cycle cell is a single 1.5-2.5 s wall timing, and on a
#: shared host its factor can read ~1.0; the fastest of several rounds
#: is the reading least disturbed by other load.
_ROUNDS = 3


def _fastest_rounds(plain_grid, protected_grid):
    """Per cell, the fastest plain and protected breakdown.

    The session grids are one round; ``_ROUNDS`` more alternate plain
    and protected runs of each cell, so both see the same host phases.
    """
    plain = {r.breakdown.label: r.breakdown for r in plain_grid}
    protected = {r.breakdown.label: r.breakdown for r in protected_grid}
    for _ in range(_ROUNDS):
        for cell in _GRID:
            for readings, is_protected in ((plain, False), (protected, True)):
                row = measure_generic_agent(
                    cycles=cell["cycles"], inputs=cell["inputs"],
                    protected=is_protected, label=cell["label"],
                ).breakdown
                if row.overall_ms < readings[row.label].overall_ms:
                    readings[row.label] = row
    labels = [cell["label"] for cell in _GRID]
    return ([plain[label] for label in labels],
            [protected[label] for label in labels])


def test_table2_report_and_overhead_shape(plain_grid, protected_grid):
    """Render Table 2 with overhead factors and assert the paper's shape."""
    plain, protected = _fastest_rounds(plain_grid, protected_grid)
    text = format_overhead_table(protected, plain,
                                 "Table 2: protected agents [ms]")
    factors = overall_factors(protected, plain)
    lines = [text, "", "Overall overhead factors (measured vs paper):"]
    for label, factor in factors.items():
        lines.append("  %-28s measured %.2fx   paper %.1fx" % (
            label, factor, PAPER_OVERALL_FACTORS[label],
        ))
    write_report("table2.txt", "\n".join(lines))

    plain_by_label = {row.label: row for row in plain}
    protected_by_label = {row.label: row for row in protected}

    for label in factors:
        plain_row = plain_by_label[label]
        protected_row = protected_by_label[label]
        component_factors = protected_row.overhead_factors(plain_row)

        # protection always costs something
        assert factors[label] > 1.05, label
        # the cycle factor stays modest (one extra execution out of three)
        if component_factors["cycle"] is not None and plain_row.cycle_ms > 1.0:
            assert component_factors["cycle"] < 2.0, label
        # remainder inflates the most among the component factors
        if component_factors["remainder"] is not None and plain_row.remainder_ms > 0.5:
            others = [f for key, f in component_factors.items()
                      if key in ("sign_verify", "cycle") and f is not None]
            assert component_factors["remainder"] >= max(others), label

    # the crossover: computation-heavy agents suffer far less relative
    # overhead than computation-light agents, ending near the paper's ~1.3-1.4
    light_factor = factors["1 input, 1 cycle"]
    heavy_factor = factors["1 input, 10000 cycles"]
    heavy_many = factors["100 inputs, 10000 cycles"]
    assert heavy_factor < light_factor
    assert heavy_many < factors["100 inputs, 1 cycle"]
    assert heavy_factor < 1.8
    assert heavy_many < 1.8


def test_protected_transfer_grows(plain_grid, protected_grid):
    """Section 4.1: the protected agent transports one more state + input."""
    plain_bytes = plain_grid[1].journey.total_transfer_bytes
    protected_bytes = protected_grid[1].journey.total_transfer_bytes
    assert protected_bytes > plain_bytes
