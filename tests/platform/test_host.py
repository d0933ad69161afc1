"""Tests for hosts: execution and timed signing."""

from __future__ import annotations

import pytest

from repro.agents.itinerary import Itinerary
from repro.bench.metrics import TimingCollector
from repro.crypto.keys import KeyStore
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

    def test_acknowledgement_names_the_action_and_host(self, host):
        from repro.agents.context import OutwardAction

        ack = host.perform_action(OutwardAction(sequence=7, kind="purchase", payload={}))
        assert ack == {"status": "accepted", "sequence": 7, "host": "vendor"}


class TestSessionRecord:
    def _run(self, host, hosts=("vendor", "archive"), hop_index=0):
        agent = CounterAgent()
        record = host.execute_agent(agent, Itinerary(hosts=list(hosts)), hop_index)
        return agent, record

    def test_record_holds_the_initial_and_resulting_state(self, host):
        _, record = self._run(host)
        assert record.initial_state.data["counter"] == 0
        assert record.resulting_state.data["counter"] == 5

    def test_record_logs_the_service_input(self, host):
        _, record = self._run(host)
        logged = [(item.kind, item.source, item.key, item.value)
                  for item in record.input_log]
        assert logged == [("service", "numbers", "increment", 5)]

    def test_record_snapshots_the_offered_resources(self, host):
        _, record = self._run(host)
        assert record.resources_snapshot == {"numbers": {"increment": 5}}
        assert record.resources_snapshot == host.resources.snapshot()

    def test_record_names_the_agent(self, host):
        agent, record = self._run(host)
        assert record.agent_id == agent.agent_id
        assert record.code_name == "test-counter-agent"
        assert record.owner == "owner"
        assert record.hop_index == 0
        assert record.error is None

    def test_final_hop_flag_follows_the_itinerary(self, host):
        _, first = self._run(host, hop_index=0)
        _, last = self._run(host, hop_index=1)
        assert not first.is_final_hop
        assert last.is_final_hop

    def test_each_execution_returns_its_own_record(self, host):
        first_agent, first = self._run(host)
        second_agent, second = self._run(host)
        assert first.agent_id == first_agent.agent_id
        assert second.agent_id == second_agent.agent_id
        assert first.agent_id != second.agent_id
        assert second.resulting_state.data["counter"] == 5


class TestSigning:
    def test_sign_and_verify_round_trip(self, keystore):
        signer_host = Host("vendor", keystore=keystore)
        verifier_host = Host("archive", keystore=keystore)
        envelope = signer_host.sign({"state": 1})
        assert verifier_host.verify(envelope, expected_signer="vendor")
        assert not verifier_host.verify(envelope, expected_signer="archive")

    def test_statements_and_recoverable_envelopes_verify(self, keystore):
        signer_host = Host("vendor", keystore=keystore)
        verifier_host = Host("archive", keystore=keystore)
        statement = signer_host.sign_statement({"state": 1})
        assert verifier_host.verify(statement, expected_signer="vendor")
        assert statement.payload() == {"state": 1}
        recoverable = signer_host.sign_recoverable({"state": 2})
        assert recoverable.verify(keystore)

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
