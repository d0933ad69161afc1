"""Tests for the weak migration engine."""

from __future__ import annotations

import pytest

from repro.agents.agent import AgentCodeRegistry, default_registry
from repro.agents.itinerary import Itinerary
from repro.agents.migration import MigrationEngine
from repro.agents.state import AgentState
from repro.crypto.canonical import canonical_decode, canonical_encode
from repro.exceptions import MigrationError
from repro.net.transport import AgentTransfer

from tests.helpers import CounterAgent


@pytest.fixture
def engine():
    return MigrationEngine(default_registry)


@pytest.fixture
def travelling_agent():
    agent = CounterAgent(owner="alice")
    agent.data["counter"] = 5
    agent.execution.hop_index = 1
    return agent


class TestPacking:
    def test_pack_snapshots_the_state(self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = engine.pack(travelling_agent, itinerary, hop_index=1)
        travelling_agent.data["counter"] = 999  # later mutation
        # The transfer carries the captured snapshot object itself.
        assert isinstance(transfer.state, AgentState)
        assert transfer.state.data["counter"] == 5
        assert transfer.agent_class == "test-counter-agent"
        assert transfer.owner == "alice"
        assert transfer.hop_index == 1

    def test_pack_includes_protocol_data(self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = engine.pack(travelling_agent, itinerary, 1,
                               protocol_data={"mechanism": "x"})
        assert transfer.protocol_data == {"mechanism": "x"}


class TestUnpacking:
    def test_pack_unpack_round_trip(self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = engine.pack(travelling_agent, itinerary, 1, {"note": "hi"})
        wire = canonical_encode(transfer.to_canonical())
        received = AgentTransfer.from_canonical(canonical_decode(wire))
        unpacked = engine.unpack(received)
        assert isinstance(unpacked.agent, CounterAgent)
        assert unpacked.agent.data["counter"] == 5
        assert unpacked.agent.owner == "alice"
        assert unpacked.agent.agent_id == travelling_agent.agent_id
        assert unpacked.itinerary.hosts == ["home", "vendor"]
        assert unpacked.hop_index == 1
        assert unpacked.protocol_data == {"note": "hi"}

    def test_unknown_code_rejected(self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = engine.pack(travelling_agent, itinerary, 1)
        transfer.agent_class = "not-registered-anywhere"
        with pytest.raises(MigrationError):
            engine.unpack(transfer)

    def test_malformed_state_rejected(self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = engine.pack(travelling_agent, itinerary, 1)
        transfer.state = {"bogus": True}
        with pytest.raises(MigrationError):
            engine.unpack(transfer)

    def test_malformed_itinerary_rejected(self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = engine.pack(travelling_agent, itinerary, 1)
        transfer.itinerary = {"hosts": []}
        with pytest.raises(MigrationError):
            engine.unpack(transfer)

    def test_isolated_registry_is_honoured(self, travelling_agent):
        lonely = MigrationEngine(AgentCodeRegistry())
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = MigrationEngine(default_registry).pack(travelling_agent, itinerary, 1)
        with pytest.raises(MigrationError):
            lonely.unpack(transfer)


class TestInProcessHandOff:
    def test_engine_exposes_its_registry(self, engine):
        assert engine.registry is default_registry

    def test_packed_state_encodes_like_its_canonical_dict(
            self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = engine.pack(travelling_agent, itinerary, 1)
        as_dict = transfer.to_canonical()
        as_dict["state"] = transfer.state.to_canonical()
        assert canonical_encode(transfer.to_canonical()) == canonical_encode(as_dict)

    def test_unpack_without_the_wire(self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        unpacked = engine.unpack(engine.pack(travelling_agent, itinerary, 1))
        assert isinstance(unpacked.agent, CounterAgent)
        assert unpacked.agent.data["counter"] == 5
        assert unpacked.agent.execution.hop_index == 1
        assert unpacked.protocol_data is None

    def test_unpacked_agent_does_not_share_the_transfer_state(
            self, engine, travelling_agent):
        itinerary = Itinerary(hosts=["home", "vendor"])
        transfer = engine.pack(travelling_agent, itinerary, 1)
        unpacked = engine.unpack(transfer)
        unpacked.agent.data["counter"] = 42
        assert transfer.state.data["counter"] == 5
        assert engine.unpack(transfer).agent.data["counter"] == 5
