"""Tests for the link latency models."""

from __future__ import annotations

import pytest

from repro.net.network import LatencyModel, UniformLatency


class TestLatencyModel:
    def test_base_model_is_free_between_any_pair(self):
        model = LatencyModel()
        assert model.latency("a", "b", 0) == 0.0
        assert model.latency("a", "b", 10_000) == 0.0
        assert model.latency("a", "a", 10_000) == 0.0


class TestUniformLatency:
    def test_same_host_is_free(self):
        latency = UniformLatency(base_seconds=0.2)
        assert latency.latency("a", "a", 100) == 0.0
        assert latency.latency("a", "b", 100) == pytest.approx(0.2)

    def test_defaults_are_one_millisecond_and_size_free(self):
        latency = UniformLatency()
        assert latency.latency("a", "b", 0) == pytest.approx(0.001)
        assert latency.latency("a", "b", 1_000_000) == pytest.approx(0.001)

    def test_per_byte_cost_adds_to_the_base(self):
        latency = UniformLatency(base_seconds=0.01, seconds_per_byte=1e-6)
        assert latency.latency("a", "b", 0) == pytest.approx(0.01)
        assert latency.latency("a", "b", 5000) == pytest.approx(0.015)

    def test_same_host_is_free_whatever_the_size(self):
        latency = UniformLatency(base_seconds=0.01, seconds_per_byte=1e-6)
        assert latency.latency("a", "a", 5000) == 0.0

    def test_latency_is_symmetric(self):
        latency = UniformLatency(base_seconds=0.01, seconds_per_byte=1e-6)
        assert latency.latency("a", "b", 700) == latency.latency("b", "a", 700)

    def test_is_a_latency_model(self):
        assert isinstance(UniformLatency(), LatencyModel)
