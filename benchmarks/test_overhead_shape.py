"""Overhead shape of Tables 1 and 2: a wall-clock ratio, so a benchmark.

Its ``heavy_factor < 2.0`` bound compares two timed journeys; under a
loaded machine the ratio drifts past the bound, so it lives in the
measurement suite, not in tier-1.
"""

from __future__ import annotations


class TestOverheadShape:
    """Cheap smoke test of the Table 1 / Table 2 shape (full grid in benches)."""

    def test_protection_overhead_shrinks_when_computation_dominates(self):
        from repro.bench.harness import measure_generic_agent

        light_plain = measure_generic_agent(cycles=1, inputs=1, protected=False)
        light_protected = measure_generic_agent(cycles=1, inputs=1, protected=True)
        heavy_plain = measure_generic_agent(cycles=2000, inputs=1, protected=False)
        heavy_protected = measure_generic_agent(cycles=2000, inputs=1, protected=True)

        light_factor = (light_protected.breakdown.overall_ms
                        / light_plain.breakdown.overall_ms)
        heavy_factor = (heavy_protected.breakdown.overall_ms
                        / heavy_plain.breakdown.overall_ms)
        # protection costs something ...
        assert light_factor > 1.1
        assert heavy_factor > 1.0
        # ... and the relative overhead collapses as computation dominates
        assert heavy_factor < light_factor
        assert heavy_factor < 2.0
