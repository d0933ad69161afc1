"""Tests for the host registry and the journey driver (AgentSystem)."""

from __future__ import annotations

import pytest

from repro.agents.itinerary import Itinerary
from repro.crypto.canonical import canonical_decode, canonical_encode
from repro.exceptions import ConfigurationError, HostNotFoundError
from repro.platform.host import Host
from repro.platform.registry import AgentSystem, HostRegistry, ProtectionMechanism

from tests.helpers import CounterAgent, FaultyAgent


class TestHostRegistry:
    def test_add_get_contains(self, keystore):
        registry = HostRegistry()
        host = Host("home", keystore=keystore, trusted=True)
        registry.add(host)
        assert registry.get("home") is host
        assert "home" in registry and len(registry) == 1
        assert registry.get("home").trusted

    def test_duplicate_registration_rejected(self, keystore):
        registry = HostRegistry()
        registry.add(Host("home", keystore=keystore))
        with pytest.raises(ConfigurationError):
            registry.add(Host("home", keystore=keystore))

    def test_unknown_host_raises(self):
        with pytest.raises(HostNotFoundError):
            HostRegistry().get("ghost")

    def test_names_and_hosts_sorted(self, keystore):
        registry = HostRegistry()
        for name in ("zeta", "alpha"):
            registry.add(Host(name, keystore=keystore))
        assert registry.names() == ("alpha", "zeta")
        assert [host.name for host in registry.hosts()] == ["alpha", "zeta"]


class _CountingMechanism(ProtectionMechanism):
    """Mechanism that records which hooks fired, for ordering tests."""

    name = "counting"

    def __init__(self):
        self.calls = []

    def prepare_launch(self, agent, itinerary, home_host):
        self.calls.append(("prepare", home_host.name))
        return {"hops": []}

    def on_arrival(self, host, agent, itinerary, hop_index, protocol_data):
        self.calls.append(("arrival", host.name, hop_index))
        return [], protocol_data

    def after_session(self, host, agent, itinerary, hop_index, record, protocol_data):
        self.calls.append(("after_session", host.name, hop_index))
        protocol_data["hops"].append(host.name)
        return protocol_data

    def after_task(self, host, agent, itinerary, protocol_data):
        self.calls.append(("after_task", host.name))
        return [{"is_attack": False, "hops": list(protocol_data["hops"])}]


class TestAgentSystem:
    def test_plain_journey_executes_every_hop(self, three_host_setup):
        agent = CounterAgent()
        result = three_host_setup["system"].launch(agent, three_host_setup["itinerary"])
        assert result.hops == 3
        assert result.visited_hosts == ("home", "vendor", "archive")
        assert result.final_state.data["counter"] == 3  # +1 per hop
        assert result.final_state.execution["finished"] is True
        assert len(result.transfer_sizes) == 2
        assert result.total_transfer_bytes > 0
        assert not result.detected_attack()
        assert result.transfer_signature_failures == []

    def test_agent_instance_is_reinstantiated_per_hop(self, three_host_setup):
        agent = CounterAgent()
        result = three_host_setup["system"].launch(agent, three_host_setup["itinerary"])
        # the original object only saw the first session; the journey's
        # final agent is a different instance carrying the full state
        assert agent.data["counter"] == 1
        assert result.agent is not agent
        assert result.agent.data["counter"] == 3

    def test_mechanism_hooks_fire_in_order(self, three_host_setup):
        mechanism = _CountingMechanism()
        result = three_host_setup["system"].launch(
            CounterAgent(), three_host_setup["itinerary"], protection=mechanism
        )
        assert mechanism.calls == [
            ("prepare", "home"),
            ("after_session", "home", 0),
            ("arrival", "vendor", 1),
            ("after_session", "vendor", 1),
            ("arrival", "archive", 2),
            ("after_session", "archive", 2),
            ("after_task", "archive"),
        ]
        # protocol data survives the wire round trips
        assert result.verdicts[-1]["hops"] == ["home", "vendor", "archive"]
        assert result.final_protocol_data["hops"] == ["home", "vendor", "archive"]

    def test_route_recording(self, three_host_setup):
        system = AgentSystem(three_host_setup["registry"], record_route=True)
        result = system.launch(CounterAgent(), three_host_setup["itinerary"])
        assert result.route_record is not None
        assert result.route_record.hosts() == ("home", "vendor", "archive")
        assert result.route_record.verify(three_host_setup["keystore"])

    def test_unsigned_transfers_can_be_requested(self, three_host_setup):
        system = AgentSystem(three_host_setup["registry"], sign_transfers=False)
        result = system.launch(CounterAgent(), three_host_setup["itinerary"])
        assert result.hops == 3

    def test_single_host_itinerary(self, three_host_setup):
        result = three_host_setup["system"].launch(
            CounterAgent(), Itinerary(hosts=["home"])
        )
        assert result.hops == 1
        assert result.transfer_sizes == []

    def test_failing_agent_still_completes_journey_records(self, three_host_setup):
        result = three_host_setup["system"].launch(
            FaultyAgent(), three_host_setup["itinerary"]
        )
        assert result.hops == 3
        assert all(record.error is not None for record in result.records)

    def test_journey_result_bookkeeping_helpers(self, three_host_setup):
        result = three_host_setup["system"].launch(
            CounterAgent(), three_host_setup["itinerary"]
        )
        assert result.blamed_hosts() == ()
        result.verdicts.append({"is_attack": True, "blamed_host": "vendor"})
        assert result.detected_attack()
        assert result.blamed_hosts() == ("vendor",)


class TestMigrationHandOff:
    """``_migrate`` hands the receiver what the wire would have delivered."""

    def _migrate(self, setup, agent, protocol_data):
        hosts = setup["hosts"]
        return setup["system"]._migrate(
            hosts["home"], hosts["vendor"], agent, setup["itinerary"], 1,
            protocol_data,
        )

    def test_receiver_protocol_data_is_independent_of_the_sender(
            self, three_host_setup):
        sent = {"log": [1, 2], "nested": {"seen": ["home"]}}
        _, received, size, signature_ok = self._migrate(
            three_host_setup, CounterAgent(), sent
        )
        assert signature_ok and size > 0
        assert received == canonical_decode(canonical_encode(sent))
        sent["log"].append(3)
        sent["nested"]["seen"].append("forged")
        sent["extra"] = True
        assert received == {"log": [1, 2], "nested": {"seen": ["home"]}}

    def test_tuples_in_agent_data_arrive_as_lists(self, three_host_setup):
        agent = CounterAgent()
        agent.data["pair"] = (1, ("a", 2.5))
        received_agent, received, _, _ = self._migrate(
            three_host_setup, agent, {"hops": ("home",)}
        )
        assert type(received_agent.data["pair"]) is list
        assert received_agent.data["pair"] == [1, ["a", 2.5]]
        assert received == {"hops": ["home"]}

    def test_receiver_state_is_independent_of_the_sender(self, three_host_setup):
        agent = CounterAgent()
        agent.data["history"] = [7]
        received_agent, _, _, _ = self._migrate(three_host_setup, agent, None)
        agent.data["history"].append(8)
        assert received_agent.data["history"] == [7]
        received_agent.data["history"].append(9)
        assert agent.data["history"] == [7, 8]
