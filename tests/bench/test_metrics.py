"""Tests for the timing metrics used by the benchmark harness."""

from __future__ import annotations

import time

import pytest

from repro.bench.metrics import (
    CATEGORY_CYCLE,
    CATEGORY_SIGN_VERIFY,
    TimingBreakdown,
    TimingCollector,
)


class TestTimingCollector:
    def test_measure_accumulates(self):
        collector = TimingCollector()
        with collector.measure("work"):
            time.sleep(0.002)
        with collector.measure("work"):
            time.sleep(0.002)
        assert collector.total("work") >= 0.004
        assert collector.count("work") == 2

    def test_unknown_category_is_zero(self):
        collector = TimingCollector()
        assert collector.total("never") == 0.0
        assert collector.count("never") == 0

    def test_add_direct(self):
        collector = TimingCollector()
        collector.add("manual", 1.5)
        assert collector.total("manual") == 1.5

    def test_measure_charges_even_on_exception(self):
        collector = TimingCollector()
        with pytest.raises(ValueError):
            with collector.measure("risky"):
                raise ValueError("boom")
        assert collector.count("risky") == 1

    def test_merge(self):
        first = TimingCollector()
        second = TimingCollector()
        first.add("a", 1.0)
        second.add("a", 2.0)
        second.add("b", 3.0)
        first.merge(second)
        assert first.total("a") == 3.0
        assert first.total("b") == 3.0


class TestTimingBreakdown:
    def _collector(self, sign=0.2, cycle=0.5):
        collector = TimingCollector()
        collector.add(CATEGORY_SIGN_VERIFY, sign)
        collector.add(CATEGORY_CYCLE, cycle)
        return collector

    def test_from_collector_derives_remainder(self):
        breakdown = TimingBreakdown.from_collector(
            "row", self._collector(), overall_seconds=1.0,
        )
        assert breakdown.sign_verify_ms == pytest.approx(200.0)
        assert breakdown.cycle_ms == pytest.approx(500.0)
        assert breakdown.remainder_ms == pytest.approx(300.0)
        assert breakdown.overall_ms == pytest.approx(1000.0)

    def test_remainder_never_negative(self):
        breakdown = TimingBreakdown.from_collector(
            "row", self._collector(sign=0.8, cycle=0.5), overall_seconds=1.0,
        )
        assert breakdown.remainder_ms == 0.0

    def test_overhead_factors(self):
        plain = TimingBreakdown("row", 100.0, 500.0, 50.0, 650.0)
        protected = TimingBreakdown("row", 130.0, 650.0, 200.0, 980.0)
        factors = protected.overhead_factors(plain)
        assert factors["sign_verify"] == pytest.approx(1.3)
        assert factors["cycle"] == pytest.approx(1.3)
        assert factors["remainder"] == pytest.approx(4.0)
        assert factors["overall"] == pytest.approx(980.0 / 650.0)

    def test_zero_baseline_yields_none(self):
        plain = TimingBreakdown("row", 0.0, 0.0, 10.0, 10.0)
        protected = TimingBreakdown("row", 5.0, 5.0, 20.0, 30.0)
        factors = protected.overhead_factors(plain)
        assert factors["sign_verify"] is None
        assert factors["cycle"] is None
        assert factors["overall"] == pytest.approx(3.0)

    def test_as_dict(self):
        breakdown = TimingBreakdown("row", 1.0, 2.0, 3.0, 6.0)
        assert breakdown.as_dict() == {
            "label": "row", "sign_verify_ms": 1.0, "cycle_ms": 2.0,
            "remainder_ms": 3.0, "overall_ms": 6.0,
        }
