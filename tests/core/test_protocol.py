"""Tests for the example mechanism (per-session next-host checking)."""

from __future__ import annotations

import pytest

from repro.attacks.injector import (
    DataTamperInjector,
    DropInputRecordInjector,
    IncorrectExecutionInjector,
    InitialStateTamperInjector,
    InputLyingInjector,
    ProtocolDataTamperInjector,
    ReadAttackInjector,
)
from repro.attacks.scenarios import _fabricate_inflated_state
from repro.core.protocol import ReferenceStateProtocol
from repro.core.verdict import VerdictStatus
from repro.workloads.generators import build_generic_scenario, build_shopping_scenario


def _protocol(scenario, **kwargs):
    return ReferenceStateProtocol(
        code_registry=scenario.system.code_registry,
        trusted_hosts=scenario.trusted_host_names,
        **kwargs,
    )


def _run_shopping(injectors=None, collaborating_next_shop=False, num_shops=3,
                  malicious_shop=None, **protocol_kwargs):
    scenario, agent = build_shopping_scenario(
        num_shops=num_shops,
        malicious_shop=malicious_shop,
        injectors=injectors,
        collaborating_next_shop=collaborating_next_shop,
    )
    protocol = _protocol(scenario, **protocol_kwargs)
    return scenario.system.launch(agent, scenario.itinerary, protection=protocol)


class TestHonestJourneys:
    def test_honest_generic_run_is_clean(self):
        scenario, agent = build_generic_scenario(cycles=2, input_elements=3,
                                                 protected_agent=True)
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=_protocol(scenario))
        assert not result.detected_attack()
        assert result.final_state.data["visits"] == 3
        summary = result.verdicts[-1]
        assert summary.moment.value == "after-task"
        assert summary.status is VerdictStatus.OK

    def test_honest_shopping_run_is_clean(self):
        result = _run_shopping()
        assert not result.detected_attack()
        assert result.final_state.data["order_placed"] is True

    def test_trusted_hosts_are_not_checked(self):
        scenario, agent = build_generic_scenario(protected_agent=True)
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=_protocol(scenario))
        by_host = {v.checked_host: v for v in result.verdicts
                   if v.moment.value == "after-session"}
        assert by_host["home"].status is VerdictStatus.SKIPPED
        assert by_host["vendor"].status is VerdictStatus.OK

    def test_check_trusted_hosts_can_be_forced(self):
        scenario, agent = build_generic_scenario(protected_agent=True)
        protocol = _protocol(scenario, check_trusted_hosts=True)
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=protocol)
        by_host = {v.checked_host: v for v in result.verdicts
                   if v.moment.value == "after-session"}
        assert by_host["home"].status is VerdictStatus.OK

    def test_protocol_data_travels_with_the_agent(self):
        result = _run_shopping()
        payload = result.final_protocol_data
        assert payload["mechanism"] == "reference-state-protocol"
        assert len(payload["verdict_history"]) >= len(result.records) - 1


class TestDetectedAttacks:
    def test_result_tampering_is_detected_and_blamed(self):
        result = _run_shopping(
            malicious_shop=2,
            injectors=[DataTamperInjector("cheapest_total", 1.0)],
        )
        assert result.detected_attack()
        assert result.blamed_hosts() == ("shop-2",)
        # the verdict carries the structured state difference as evidence
        attack = next(v for v in result.verdicts if v.is_attack)
        assert attack.state_difference is not None
        assert "cheapest_total" in attack.state_difference["changed"]

    def test_initial_state_tampering_is_detected(self):
        result = _run_shopping(
            malicious_shop=2,
            injectors=[InitialStateTamperInjector("budget", 1.0)],
        )
        assert result.detected_attack()
        assert "shop-2" in result.blamed_hosts()

    def test_incorrect_execution_is_detected(self):
        result = _run_shopping(
            malicious_shop=2,
            injectors=[IncorrectExecutionInjector(_fabricate_inflated_state)],
        )
        assert result.detected_attack()
        assert "shop-2" in result.blamed_hosts()

    def test_suppressed_input_records_are_detected(self):
        result = _run_shopping(
            malicious_shop=2,
            injectors=[DropInputRecordInjector(drop_from=0)],
        )
        assert result.detected_attack()
        assert "shop-2" in result.blamed_hosts()

    def test_stripped_protocol_payload_is_detected(self):
        result = _run_shopping(
            malicious_shop=2,
            injectors=[ProtocolDataTamperInjector(lambda data: None)],
        )
        assert result.detected_attack()
        assert "shop-2" in result.blamed_hosts()

    def test_task_summary_reports_the_attack(self):
        result = _run_shopping(
            malicious_shop=2,
            injectors=[DataTamperInjector("cheapest_total", 1.0)],
        )
        summary = result.verdicts[-1]
        assert summary.moment.value == "after-task"
        assert summary.is_attack
        assert summary.checked_host == "shop-2"


class TestAcceptedLimitations:
    """Attacks the paper concedes cannot be detected (Section 4.2 / 5.1)."""

    def test_lying_about_input_is_not_detected(self):
        result = _run_shopping(
            malicious_shop=2,
            injectors=[InputLyingInjector("shop", 1.0)],
        )
        assert not result.detected_attack()
        # the attack nevertheless worked: the fake quote became the best offer
        assert result.final_state.data["cheapest_total"] == 1.0

    def test_read_attacks_are_not_detected(self):
        injector = ReadAttackInjector()
        result = _run_shopping(malicious_shop=2, injectors=[injector])
        assert not result.detected_attack()
        assert injector.stolen  # the spying itself succeeded

    def test_collaborating_consecutive_hosts_are_not_detected(self):
        result = _run_shopping(
            malicious_shop=1,
            injectors=[DataTamperInjector("cheapest_total", 1.0)],
            collaborating_next_shop=True,
        )
        # shop-2 collaborates with shop-1 and skips the check, so the
        # manipulation passes through unnoticed at the session level ...
        session_verdicts = [v for v in result.verdicts
                            if v.checked_host == "shop-1"
                            and v.moment.value == "after-session"]
        assert session_verdicts[0].status is VerdictStatus.SKIPPED
        # ... but note the damage persists only until an honest host checks
        # the *collaborator's* session; the tampering happened before the
        # collaborator executed, so re-executing the collaborator's session
        # from its (already tampered) initial state looks consistent.
        assert not any(v.is_attack and v.checked_host == "shop-1"
                       for v in result.verdicts)


class TestRobustness:
    def test_unprotected_sender_triggers_missing_payload_verdict(self):
        # Launch without prepare: simulate by running the protocol only from
        # the second hop on (protocol data absent on first arrival).
        scenario, agent = build_generic_scenario(protected_agent=True)

        class LateProtocol(ReferenceStateProtocol):
            def prepare_launch(self, agent, itinerary, home_host):
                return None  # nothing prepared, nothing transported

            def after_session(self, host, agent, itinerary, hop_index, record,
                              protocol_data):
                if hop_index == 0:
                    return None  # home "forgets" to produce protocol data
                return super().after_session(host, agent, itinerary, hop_index,
                                             record, protocol_data)

        protocol = LateProtocol(code_registry=scenario.system.code_registry,
                                trusted_hosts=scenario.trusted_host_names)
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=protocol)
        missing = [v for v in result.verdicts
                   if v.is_attack and v.checked_host == "home"]
        assert missing

    def test_verdict_history_is_signed_by_the_checking_hosts(self):
        scenario, agent = build_shopping_scenario()
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=_protocol(scenario))
        history = result.final_protocol_data["verdict_history"]
        # One manifest per session, signed by the host that ran it; each
        # verdict after the first session rides in the checking host's
        # manifest.
        assert [entry.signer for entry in history] == list(
            result.visited_hosts)
        assert all(entry.verify(scenario.keystore) for entry in history)
        verdicts = [entry.payload()["verdict"] for entry in history]
        assert verdicts[0] is None
        assert all(verdict["checking_host"] == entry.signer
                   for verdict, entry in zip(verdicts[1:], history[1:]))


def _replace_prev_session(data):
    data["prev_session"] = "not a session"
    return data


def _replace_initial_state(data):
    data["prev_session"]["initial_state"] = "not a state"
    return data


def _replace_input(data):
    data["prev_session"]["input"] = {"records": "not an input log"}
    return data


def _replace_history(data):
    data["verdict_history"] = "not a history"
    return data


def _replace_own_manifest(data):
    data["verdict_history"][-1] = "not a manifest"
    return data


def _replace_sender_manifest(data):
    data["verdict_history"][-2] = {"payload": {}, "signer": ["x"]}
    return data


class TestMalformedProtocolPayload:
    """A payload field of the wrong type is an attack, never a crash.

    The malicious host hands over a payload whose statements or fields
    have the wrong type; the next host must finish the journey and blame
    exactly the host that handed the payload over.
    """

    @pytest.mark.parametrize("mutator", [
        _replace_prev_session,
        _replace_initial_state,
        _replace_input,
        _replace_history,
        _replace_own_manifest,
        _replace_sender_manifest,
    ])
    def test_is_blamed_on_the_host_that_handed_it_over(self, mutator):
        result = _run_shopping(
            num_shops=4, malicious_shop=1,
            injectors=[ProtocolDataTamperInjector(mutator)],
        )
        assert len(result.records) == len(result.itinerary.hosts)
        assert result.detected_attack()
        assert result.blamed_hosts() == ("shop-1",)


class TestDetachedCheck:
    def _session(self):
        from repro.sim import FleetConfig, journey_request_stream

        stream = journey_request_stream(
            FleetConfig(num_agents=4, num_hosts=4, seed=5)
        )
        # A check of a session after the first, so both manifests exist.
        return next(
            request.payload for request in stream.session_requests
            if request.payload["prev_session"]["hop_index"] > 0
        )

    @pytest.mark.parametrize("field", [
        "manifest", "sender_manifest", "initial_state", "input", "hop_index",
    ])
    def test_a_malformed_statement_field_is_an_attack(self, field):
        from repro.core.protocol import check_session_payload
        from repro.service.server import build_service_keystore

        payload = self._session()
        prev_session = dict(payload["prev_session"], **{field: "x"})
        verdict = check_session_payload(
            prev_session,
            payload["observed_state"],
            payload["checked_host"],
            checking_host=payload["checking_host"],
            keystore=build_service_keystore(4),
        )
        assert verdict.status is VerdictStatus.ATTACK_DETECTED
        assert verdict.checked_host == payload["checked_host"]


def _claim_trust(data):
    """A host marks its own session trusted in the unsigned payload."""
    data["prev_session"]["trusted"] = True
    return data


class TestTrustComesFromConfiguration:
    @pytest.mark.parametrize("trusted_hosts", [None, ("home",)])
    def test_a_self_declared_trusted_session_is_still_checked(
            self, trusted_hosts):
        scenario, agent = build_shopping_scenario(
            num_shops=3,
            malicious_shop=1,
            injectors=[DataTamperInjector("cheapest_total", 1.0),
                       ProtocolDataTamperInjector(_claim_trust)],
        )
        protocol = ReferenceStateProtocol(
            code_registry=scenario.system.code_registry,
            trusted_hosts=trusted_hosts,
        )
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=protocol)
        assert result.detected_attack()
        assert result.blamed_hosts() == ("shop-1",)

    def test_without_configuration_no_host_is_trusted(self):
        scenario, agent = build_generic_scenario(protected_agent=True)
        protocol = ReferenceStateProtocol(
            code_registry=scenario.system.code_registry
        )
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=protocol)
        by_host = {v.checked_host: v for v in result.verdicts
                   if v.moment.value == "after-session"}
        assert by_host["home"].status is VerdictStatus.OK
        assert not result.detected_attack()
