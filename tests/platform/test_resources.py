"""Tests for host resources, services, and system facilities."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.platform.resources import (
    HostService,
    InputFeedService,
    PriceQuoteService,
    ResourceCatalog,
    StaticDataService,
    SystemFacilities,
)


class TestStaticDataService:
    def test_lookup_and_default(self):
        service = StaticDataService("db", {"a": 1}, default="missing")
        assert service.handle("a") == 1
        assert service.handle("b") == "missing"

    def test_update(self):
        service = StaticDataService("db", {"a": 1})
        service.update("a", 2)
        assert service.handle("a") == 2

    def test_snapshot_is_a_copy(self):
        service = StaticDataService("db", {"a": 1})
        snapshot = service.snapshot()
        service.update("a", 2)
        assert snapshot == {"a": 1}


class TestHostService:
    def test_snapshot_defaults_to_none(self):
        class Echo(HostService):
            def handle(self, request):
                return request

        assert Echo("echo").snapshot() is None


class TestPriceQuoteService:
    def test_prices_are_deterministic_per_host_and_product(self):
        first = PriceQuoteService("shop", "vendor-a")
        second = PriceQuoteService("shop", "vendor-a")
        assert first.handle("flight") == second.handle("flight")

    def test_different_hosts_usually_quote_differently(self):
        a = PriceQuoteService("shop", "vendor-a").handle("flight")
        b = PriceQuoteService("shop", "vendor-b").handle("flight")
        assert a != b

    def test_pinned_price_wins(self):
        service = PriceQuoteService("shop", "vendor-a", catalog={"flight": 99.0})
        assert service.handle("flight") == 99.0

    def test_snapshot_contains_quoted_products(self):
        service = PriceQuoteService("shop", "vendor-a")
        service.handle("flight")
        assert "flight" in service.snapshot()


class TestInputFeedService:
    def test_sequential_elements_and_wraparound(self):
        service = InputFeedService("feed", ("a", "b"))
        assert [service.handle("x") for _ in range(3)] == ["a", "b", "a"]

    def test_empty_feed_returns_none(self):
        assert InputFeedService("feed", ()).handle("x") is None


class TestSystemFacilities:
    def test_random_stream_is_seeded_per_host_name(self):
        assert SystemFacilities("host-a").call("random") == \
            SystemFacilities("host-a").call("random")

    def test_explicit_seed_wins(self):
        assert SystemFacilities("a", seed=7).call("random") == \
            SystemFacilities("b", seed=7).call("random")

    def test_randint_range(self):
        value = SystemFacilities("host-a").call("randint")
        assert 0 <= value < 2 ** 31

    def test_time_counter_increments(self):
        system = SystemFacilities("host-a")
        assert system.call("time") < system.call("time")

    def test_time_source_override(self):
        system = SystemFacilities("host-a", time_source=lambda: 123.0)
        assert system.call("time") == 123.0

    def test_unknown_call_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemFacilities("host-a").call("teleport")


class TestResourceCatalog:
    def test_add_query_and_names(self):
        catalog = ResourceCatalog()
        catalog.add(StaticDataService("db", {"a": 1}))
        assert catalog.query("db", "a") == 1
        assert "db" in catalog
        assert catalog.names() == ("db",)

    def test_duplicate_service_rejected(self):
        catalog = ResourceCatalog()
        catalog.add(StaticDataService("db", {}))
        with pytest.raises(ConfigurationError):
            catalog.add(StaticDataService("db", {}))

    def test_unknown_service_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceCatalog().query("nope", "x")

    def test_snapshot_covers_all_services(self):
        catalog = ResourceCatalog()
        catalog.add(StaticDataService("db", {"a": 1}))
        catalog.add(InputFeedService("feed", ("x",)))
        snapshot = catalog.snapshot()
        assert snapshot["db"] == {"a": 1}
        assert snapshot["feed"] == ["x"]
