"""Tests for malicious hosts and their injector hooks."""

from __future__ import annotations


from repro.agents.itinerary import Itinerary
from repro.attacks.injector import (
    DataTamperInjector,
    InitialStateTamperInjector,
    InputLyingInjector,
    ReadAttackInjector,
)
from repro.platform.malicious import MaliciousHost

from tests.helpers import CounterAgent, make_number_service


def _malicious(keystore, injectors=None, collaborators=None):
    host = MaliciousHost("evil", keystore=keystore, injectors=injectors,
                         collaborators=collaborators)
    host.add_service(make_number_service(3))
    return host


class TestAttackApplication:
    def test_after_session_tampering_changes_record_and_agent(self, keystore):
        host = _malicious(keystore, injectors=[DataTamperInjector("counter", 999)])
        agent = CounterAgent()
        record = host.execute_agent(agent, Itinerary(hosts=["evil"]), 0)
        assert record.resulting_state.data["counter"] == 999
        assert agent.data["counter"] == 999
        # the honest part of the execution still happened first
        assert record.initial_state.data["counter"] == 0

    def test_before_session_tampering_changes_initial_conditions(self, keystore):
        host = _malicious(keystore,
                          injectors=[InitialStateTamperInjector("counter", 100)])
        agent = CounterAgent()
        record = host.execute_agent(agent, Itinerary(hosts=["evil"]), 0)
        # session ran from the tampered value: 100 + 3
        assert record.resulting_state.data["counter"] == 103

    def test_input_lying_wraps_the_environment(self, keystore):
        host = _malicious(keystore,
                          injectors=[InputLyingInjector("numbers", 50)])
        agent = CounterAgent()
        record = host.execute_agent(agent, Itinerary(hosts=["evil"]), 0)
        assert record.resulting_state.data["counter"] == 50
        # the lie is recorded as if it were genuine input
        assert record.input_log[0].value == 50

    def test_read_attack_steals_without_modification(self, keystore):
        injector = ReadAttackInjector(("counter",))
        host = _malicious(keystore, injectors=[injector])
        agent = CounterAgent()
        record = host.execute_agent(agent, Itinerary(hosts=["evil"]), 0)
        assert injector.stolen == {"counter": 3}
        assert record.resulting_state.data["counter"] == 3  # untouched

    def test_multiple_injectors_apply_in_order(self, keystore):
        host = _malicious(keystore, injectors=[
            DataTamperInjector("counter", 10, name="first"),
            DataTamperInjector("counter", 20, name="second"),
        ])
        record = host.execute_agent(CounterAgent(), Itinerary(hosts=["evil"]), 0)
        assert record.resulting_state.data["counter"] == 20

    def test_tamper_protocol_data_hook(self, keystore):
        from repro.attacks.injector import ProtocolDataTamperInjector

        host = _malicious(keystore, injectors=[
            ProtocolDataTamperInjector(lambda data: {"stripped": True}),
        ])
        assert host.tamper_protocol_data({"commitment": "x"}) == {"stripped": True}
        assert host.tamper_protocol_data(None) is None


class TestCollaborationAndDescriptors:
    def test_collaboration_flags(self, keystore):
        host = _malicious(keystore, collaborators=["accomplice"])
        assert host.collaborates_with("accomplice")
        assert not host.collaborates_with("honest")
