"""Tests for itineraries and route records."""

from __future__ import annotations

import pytest

from repro.agents.itinerary import Itinerary, RouteEntry, RouteRecord
from repro.crypto.keys import Identity, KeyStore
from repro.crypto.signing import Signer
from repro.exceptions import ItineraryError


class TestItinerary:
    def test_basic_navigation(self):
        itinerary = Itinerary(hosts=["home", "vendor", "archive"])
        assert itinerary.home == "home"
        assert itinerary.final == "archive"
        assert itinerary.host_at(1) == "vendor"
        assert itinerary.previous_host(1) == "home"
        assert itinerary.previous_host(0) is None
        assert itinerary.is_last_hop(2)
        assert not itinerary.is_last_hop(0)
        assert len(itinerary) == 3

    def test_empty_itinerary_rejected(self):
        with pytest.raises(ItineraryError):
            Itinerary(hosts=[])

    def test_out_of_range_hop_rejected(self):
        itinerary = Itinerary(hosts=["home"])
        with pytest.raises(ItineraryError):
            itinerary.host_at(1)
        with pytest.raises(ItineraryError):
            itinerary.host_at(-1)

    def test_canonical_round_trip(self):
        itinerary = Itinerary(hosts=["home", "vendor"], fixed=True)
        restored = Itinerary.from_canonical(itinerary.to_canonical())
        assert restored.hosts == ["home", "vendor"]
        assert restored.fixed is True

    def test_repeated_hosts_allowed(self):
        itinerary = Itinerary(hosts=["home", "shop", "home"])
        assert itinerary.final == "home"
        assert itinerary.previous_host(2) == "shop"


class TestRouteRecord:
    def _signers(self):
        keystore = KeyStore()
        signers = {}
        for name in ("home", "vendor", "archive"):
            identity = Identity.generate(name)
            keystore.register_identity(identity)
            signers[name] = Signer(identity, keystore)
        return keystore, signers

    def _record_journey(self, signers):
        record = RouteRecord()
        record.append(signers["home"], RouteEntry(0, "home", None))
        record.append(signers["vendor"], RouteEntry(1, "vendor", "home"))
        record.append(signers["archive"], RouteEntry(2, "archive", "vendor"))
        return record

    def test_valid_chain_verifies(self):
        keystore, signers = self._signers()
        record = self._record_journey(signers)
        assert record.hosts() == ("home", "vendor", "archive")
        assert record.verify(keystore)

    def test_entry_signed_by_wrong_host_fails(self):
        keystore, signers = self._signers()
        record = RouteRecord()
        record.append(signers["home"], RouteEntry(0, "home", None))
        # vendor's entry is signed by archive: a host trying to hide itself.
        record.append(signers["archive"], RouteEntry(1, "vendor", "home"))
        assert not record.verify(keystore)

    def test_gap_in_hop_indices_fails(self):
        keystore, signers = self._signers()
        record = RouteRecord()
        record.append(signers["home"], RouteEntry(0, "home", None))
        record.append(signers["archive"], RouteEntry(2, "archive", "home"))
        assert not record.verify(keystore)

    def test_wrong_arrival_chain_fails(self):
        keystore, signers = self._signers()
        record = RouteRecord()
        record.append(signers["home"], RouteEntry(0, "home", None))
        record.append(signers["vendor"], RouteEntry(1, "vendor", "archive"))
        assert not record.verify(keystore)

    def test_canonical_round_trip(self):
        keystore, signers = self._signers()
        record = self._record_journey(signers)
        restored = RouteRecord.from_canonical(record.to_canonical())
        assert restored.verify(keystore)
        assert restored.hosts() == record.hosts()
