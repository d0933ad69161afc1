"""Tests for hosts: execution, accessors (Fig. 5), and timed signing."""

from __future__ import annotations

import pytest

from repro.agents.itinerary import Itinerary
from repro.bench.metrics import TimingCollector
from repro.crypto.keys import KeyStore
from repro.exceptions import ProtocolError
from repro.platform.host import Host

from tests.helpers import CounterAgent, make_number_service


@pytest.fixture
def host(keystore):
    host = Host("vendor", keystore=keystore, trusted=False)
    host.add_service(make_number_service(5))
    return host


class TestExecution:
    def test_execute_agent_records_session(self, host):
        agent = CounterAgent()
        itinerary = Itinerary(hosts=["vendor", "archive"])
        record = host.execute_agent(agent, itinerary, hop_index=0)
        assert record.host == "vendor"
        assert record.resulting_state.data["counter"] == 5
        assert len(host.sessions) == 1

    def test_host_data_reaches_agents(self, keystore):
        host = Host("vendor", keystore=keystore)
        host.add_service(make_number_service(1))
        host.set_host_data("greeting", "hello")
        # the counter agent ignores host data, but the environment must carry it
        environment = host._build_environment()
        assert environment.provide("host-data", "vendor", "greeting") == "hello"

    def test_perform_action_acknowledges(self, host):
        from repro.agents.context import OutwardAction

        ack = host.perform_action(OutwardAction(sequence=0, kind="purchase", payload={}))
        assert ack["status"] == "accepted"
        assert len(host.performed_actions) == 1


class TestAccessors:
    def test_framework_accessors_return_last_session_data(self, host):
        agent = CounterAgent()
        itinerary = Itinerary(hosts=["vendor"])
        record = host.execute_agent(agent, itinerary, hop_index=0)
        assert host.get_initial_state().equals(record.initial_state)
        assert host.get_resulting_state().equals(record.resulting_state)
        assert len(host.get_input()) == len(record.input_log)
        assert host.get_execution_log().matches(record.execution_log)
        assert host.get_resource() == record.resources_snapshot

    def test_accessors_by_agent_id(self, host):
        first = CounterAgent()
        second = CounterAgent()
        itinerary = Itinerary(hosts=["vendor"])
        host.execute_agent(first, itinerary, 0)
        host.execute_agent(second, itinerary, 0)
        assert host.get_resulting_state(first.agent_id).data["counter"] == 5
        assert host.session_for(second.agent_id).agent_id == second.agent_id

    def test_accessors_without_sessions_raise(self, keystore):
        empty = Host("idle", keystore=keystore)
        with pytest.raises(ProtocolError):
            empty.last_session
        with pytest.raises(ProtocolError):
            empty.get_initial_state()
        with pytest.raises(ProtocolError):
            empty.session_for("unknown-agent")


class TestSigning:
    def test_sign_and_verify_round_trip(self, keystore):
        signer_host = Host("vendor", keystore=keystore)
        verifier_host = Host("archive", keystore=keystore)
        envelope = signer_host.sign({"state": 1})
        assert verifier_host.verify(envelope, expected_signer="vendor")
        assert not verifier_host.verify(envelope, expected_signer="archive")

    def test_signing_is_charged_to_categories(self, keystore):
        metrics = TimingCollector()
        host = Host("vendor", keystore=keystore, metrics=metrics)
        host.sign({"x": 1})                                # protocol crypto
        host.sign({"x": 1}, category="sign_verify")        # whole-message
        assert metrics.count("protocol_crypto") == 1
        assert metrics.count("sign_verify") == 1
        assert metrics.total("protocol_crypto") > 0.0

    def test_host_registers_its_identity(self, keystore):
        Host("fresh-host", keystore=keystore)
        assert "fresh-host" in keystore

    def test_deterministic_identity_per_name(self):
        first = Host("stable", keystore=KeyStore())
        second = Host("stable", keystore=KeyStore())
        assert first.identity.public_key.y == second.identity.public_key.y
