"""Tests for the measurement harness and table rendering.

These tests use tiny cycle counts so they stay fast; the full paper grid
(with 10000-cycle configurations) is exercised by the benchmark suite
under ``benchmarks/``.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.harness import measure_generic_agent
from repro.bench.metrics import TimingBreakdown
from repro.bench.tables import (
    PAPER_OVERALL_FACTORS,
    PAPER_TABLE_1,
    PAPER_TABLE_2,
    format_overhead_table,
    format_table,
    overall_factors,
)
from repro.bench.reporting import comparison_section, markdown_table
from repro.core.checkers.reexecution import ReExecutionChecker
from repro.crypto.dsa import DSAPrivateKey, DSAPublicKey


def _counted(counts, name, method):
    def counting(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)

    return counting


class TestMeasureGenericAgent:
    def test_plain_measurement_structure(self):
        result = measure_generic_agent(cycles=1, inputs=1, protected=False)
        breakdown = result.breakdown
        assert breakdown.overall_ms > 0.0
        assert breakdown.sign_verify_ms > 0.0
        assert breakdown.overall_ms >= breakdown.cycle_ms
        assert not result.protected
        assert not result.detected_attack
        assert result.journey.hops == 3

    def test_protected_measurement_costs_more(self, monkeypatch):
        """Protection's cost, counted rather than timed: on the 3-hop
        journey it adds one manifest signature per host visit, one
        manifest verification per checked session (the trusted home's
        session is skipped), and one re-executed session."""
        counts = Counter()
        for owner, name in ((DSAPrivateKey, "sign"),
                            (DSAPublicKey, "verify"),
                            (ReExecutionChecker, "check")):
            monkeypatch.setattr(owner, name,
                                _counted(counts, name, getattr(owner, name)))
        plain = measure_generic_agent(cycles=1, inputs=5, protected=False)
        plain_counts = Counter(counts)
        counts.clear()
        protected = measure_generic_agent(cycles=1, inputs=5, protected=True)
        assert protected.protected
        assert not protected.detected_attack
        assert plain_counts == {"sign": 2, "verify": 2}
        assert counts - plain_counts == {"sign": 3, "verify": 2, "check": 1}

    def test_custom_label(self):
        result = measure_generic_agent(cycles=1, inputs=1, protected=False,
                                       label="custom row")
        assert result.breakdown.label == "custom row"

    def test_default_label_format(self):
        result = measure_generic_agent(cycles=2, inputs=1, protected=False)
        assert result.breakdown.label == "1 input, 2 cycles"

    def test_fast_cycles_flag(self):
        result = measure_generic_agent(cycles=100, inputs=1, protected=False,
                                       use_fast_cycles=True)
        assert result.breakdown.cycle_ms >= 0.0


class TestPaperReferenceValues:
    def test_paper_tables_cover_the_four_configurations(self):
        assert set(PAPER_TABLE_1) == set(PAPER_TABLE_2) == set(PAPER_OVERALL_FACTORS)
        assert len(PAPER_TABLE_1) == 4

    def test_paper_table_values_are_internally_consistent(self):
        # sign&verify + cycle + remainder == overall for every paper row
        for table in (PAPER_TABLE_1, PAPER_TABLE_2):
            for label, row in table.items():
                total = (row["sign_verify_ms"] + row["cycle_ms"]
                         + row["remainder_ms"])
                assert total == pytest.approx(row["overall_ms"], rel=0.01), label

    def test_paper_overall_factors_match_the_tables(self):
        for label, factor in PAPER_OVERALL_FACTORS.items():
            ratio = PAPER_TABLE_2[label]["overall_ms"] / PAPER_TABLE_1[label]["overall_ms"]
            assert ratio == pytest.approx(factor, abs=0.06), label


class TestRendering:
    def _rows(self):
        plain = [TimingBreakdown("1 input, 1 cycle", 10.0, 1.0, 5.0, 16.0)]
        protected = [TimingBreakdown("1 input, 1 cycle", 12.0, 1.3, 20.0, 33.3)]
        return plain, protected

    def test_format_table_contains_all_columns(self):
        plain, _ = self._rows()
        text = format_table(plain, "Table 1")
        assert "sign & verify" in text and "overall" in text
        assert "1 input, 1 cycle" in text

    def test_format_overhead_table_contains_factors(self):
        plain, protected = self._rows()
        text = format_overhead_table(protected, plain)
        assert "( 2.1)" in text or "(2.1)" in text.replace(" ", "")

    def test_overall_factors_helper(self):
        plain, protected = self._rows()
        factors = overall_factors(protected, plain)
        assert factors["1 input, 1 cycle"] == pytest.approx(33.3 / 16.0)

    def test_markdown_table(self):
        text = markdown_table(["a", "b"], [["1", "2"]])
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in text

    def test_comparison_section_includes_paper_and_measured(self):
        _, protected = self._rows()
        section = comparison_section("Table 2 — protected agents",
                                     PAPER_TABLE_2, protected)
        assert "Table 2" in section
        assert "1 input, 1 cycle" in section
