"""Unit tests for the observability substrate (``repro.obs``).

The registry is the shared accounting layer for every tier (fleet
engine, worker pool, service, gateway), so its semantics are pinned
here in isolation: bounded reservoirs with exact count/sum, nearest-rank
percentiles, snapshot merging with count/sum correction for dropped
samples, and the construction-time enable/disable switch that keeps the
disabled path branch-free.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    STATS_SCHEMA,
    TELEMETRY_SCHEMA,
    new_registry,
    obs_enabled,
    percentile,
    set_obs_enabled,
)


@pytest.fixture(autouse=True)
def _restore_obs_switch():
    previous = obs_enabled()
    yield
    set_obs_enabled(previous)


class TestInstruments:
    def test_counter_accumulates_and_is_idempotently_named(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.counter("hits") is registry.counter("hits")
        assert registry.snapshot()["counters"]["hits"] == 5

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert registry.snapshot()["gauges"]["depth"] == 1.5

    def test_histogram_tracks_exact_count_sum_min_max(self):
        histogram = Histogram()
        for value in (4.0, 1.0, 9.0, 2.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 16.0
        assert snap["min"] == 1.0
        assert snap["max"] == 9.0
        assert snap["mean"] == 4.0

    def test_histogram_reservoir_is_bounded_but_count_is_exact(self):
        histogram = Histogram(max_samples=8)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.total == float(sum(range(100)))
        assert len(histogram.samples) == 8
        # round-robin overwrite keeps a recent-biased window
        assert all(sample >= 84.0 for sample in histogram.samples)

    def test_percentiles_are_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.50) == 51.0
        assert percentile(samples, 0.95) == 96.0
        assert percentile(samples, 0.99) == 100.0
        assert percentile([], 0.99) == 0.0

    def test_span_times_a_with_block_into_a_histogram(self):
        registry = MetricsRegistry()
        with registry.span("work"):
            pass
        snap = registry.snapshot()["histograms"]["work.seconds"]
        assert snap["count"] == 1
        assert snap["min"] >= 0.0


class TestSnapshots:
    def test_snapshot_is_versioned_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        snap = registry.snapshot()
        assert snap["schema"] == TELEMETRY_SCHEMA
        assert snap["enabled"] is True
        assert list(snap["counters"]) == ["a", "b"]

    def test_include_samples_embeds_the_reservoir(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(2.0)
        plain = registry.snapshot()["histograms"]["h"]
        rich = registry.snapshot(include_samples=True)["histograms"]["h"]
        assert "samples" not in plain
        assert rich["samples"] == [2.0]

    def test_merge_adds_counters_and_keeps_gauge_maximum(self):
        a = MetricsRegistry()
        a.counter("ops").inc(3)
        a.gauge("depth").set(2.0)
        b = MetricsRegistry()
        b.counter("ops").inc(5)
        b.gauge("depth").set(7.0)
        registry = MetricsRegistry()
        for snapshot in (a.snapshot(), b.snapshot(), None):
            registry.merge_snapshot(snapshot)
        merged = registry.snapshot()
        assert merged["counters"]["ops"] == 8
        assert merged["gauges"]["depth"] == 7.0

    def test_merge_with_samples_corrects_for_dropped_observations(self):
        # The source histogram saw 20 observations but its reservoir
        # only holds 4; a merge must still report count=20 and the
        # exact sum, not just what the samples add up to.
        source = MetricsRegistry()
        histogram = source.histogram("lat", max_samples=4)
        for value in range(20):
            histogram.observe(float(value))
        merged = MetricsRegistry()
        merged.merge_snapshot(source.snapshot(include_samples=True))
        folded = merged.histogram("lat")
        assert folded.count == 20
        assert folded.total == pytest.approx(float(sum(range(20))))

    def test_merge_without_samples_still_folds_count_sum_bounds(self):
        source = MetricsRegistry()
        histogram = source.histogram("lat")
        for value in (1.0, 5.0, 3.0):
            histogram.observe(value)
        merged = MetricsRegistry()
        merged.merge_snapshot(source.snapshot())  # sample-free snapshot
        folded = merged.histogram("lat")
        assert folded.count == 3
        assert folded.total == 9.0
        assert folded.min == 1.0
        assert folded.max == 5.0


class TestEnableSwitch:
    def test_new_registry_honors_the_process_switch(self):
        set_obs_enabled(True)
        assert isinstance(new_registry(), MetricsRegistry)
        set_obs_enabled(False)
        assert new_registry() is NULL_REGISTRY

    def test_set_obs_enabled_returns_previous_setting(self):
        set_obs_enabled(False)
        assert set_obs_enabled(True) is False
        assert set_obs_enabled(True) is True
        assert obs_enabled() is True

    def test_null_registry_is_inert_but_snapshot_shaped(self):
        registry = NullRegistry()
        registry.counter("x").inc(10)
        registry.gauge("g").set(9.0)
        registry.histogram("h").observe(1.0)
        with registry.span("s"):
            pass
        snap = registry.snapshot()
        assert snap == {
            "schema": TELEMETRY_SCHEMA, "enabled": False,
            "counters": {}, "gauges": {}, "histograms": {},
        }
        registry.merge_snapshot({"counters": {"x": 5}})
        assert registry.snapshot()["counters"] == {}
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry.enabled is True

    def test_env_var_disables_collection(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DISABLE", "1")
        assert obs._env_enabled() is False
        monkeypatch.setenv("REPRO_OBS_DISABLE", "")
        assert obs._env_enabled() is True

    def test_schema_constants_are_distinct(self):
        assert TELEMETRY_SCHEMA != STATS_SCHEMA
        assert TELEMETRY_SCHEMA.startswith("repro-telemetry/")
        assert STATS_SCHEMA.startswith("repro-stats/")
