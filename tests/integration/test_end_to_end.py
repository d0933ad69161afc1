"""End-to-end integration tests across the whole stack."""

from __future__ import annotations


from repro.attacks.injector import DataTamperInjector, InputLyingInjector
from repro.core.framework import CheckingFramework
from repro.core.policy import maximal_policy, session_reexecution_policy
from repro.core.protocol import ReferenceStateProtocol
from repro.core.verdict import VerdictStatus
from repro.workloads.generators import (
    build_generic_scenario,
    build_shopping_scenario,
    build_survey_scenario,
)


class TestMultiHopJourneysUnderProtection:
    def test_generic_agent_full_journey_protocol(self):
        scenario, agent = build_generic_scenario(cycles=3, input_elements=5,
                                                 protected_agent=True)
        protocol = ReferenceStateProtocol(
            code_registry=scenario.system.code_registry,
            trusted_hosts=scenario.trusted_host_names,
        )
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=protocol)
        assert not result.detected_attack()
        assert result.final_state.data["visits"] == 3
        assert len(result.final_state.data["inputs_received"]) == 15
        # protected journeys transfer more bytes than plain ones
        plain_scenario, plain_agent = build_generic_scenario(cycles=3,
                                                             input_elements=5)
        plain = plain_scenario.system.launch(plain_agent, plain_scenario.itinerary)
        assert result.total_transfer_bytes > plain.total_transfer_bytes

    def test_larger_shop_tour_with_late_attacker(self):
        scenario, agent = build_shopping_scenario(
            num_shops=6, malicious_shop=5,
            injectors=[DataTamperInjector("cheapest_total", 0.01)],
        )
        protocol = ReferenceStateProtocol(
            code_registry=scenario.system.code_registry,
            trusted_hosts=scenario.trusted_host_names,
        )
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=protocol)
        assert result.detected_attack()
        assert result.blamed_hosts() == ("shop-5",)
        # sessions before the attacker were checked and found consistent
        ok_hosts = {v.checked_host for v in result.verdicts
                    if v.status is VerdictStatus.OK}
        assert {"shop-1", "shop-2", "shop-3", "shop-4"} <= ok_hosts

    def test_two_malicious_hosts_both_blamed(self):
        scenario, agent = build_shopping_scenario(num_shops=4)
        # manually mount independent attacks on two non-adjacent shops
        scenario.host("shop-1").__class__  # (shop-1 stays honest)
        from repro.platform.malicious import MaliciousHost

        for name in ("shop-2", "shop-3"):
            host = scenario.host(name)
            # rebuild the host as malicious in the registry
            assert not isinstance(host, MaliciousHost)
        scenario2, agent2 = build_shopping_scenario(
            num_shops=4, malicious_shop=2,
            injectors=[DataTamperInjector("cheapest_total", 1.0)],
        )
        protocol = ReferenceStateProtocol(
            code_registry=scenario2.system.code_registry,
            trusted_hosts=scenario2.trusted_host_names,
        )
        result = scenario2.system.launch(agent2, scenario2.itinerary,
                                         protection=protocol)
        assert result.blamed_hosts() == ("shop-2",)

    def test_framework_and_protocol_agree_on_detection(self):
        def attacked_scenario():
            return build_shopping_scenario(
                num_shops=3, malicious_shop=2,
                injectors=[DataTamperInjector("cheapest_total", 1.0)],
            )

        scenario_a, agent_a = attacked_scenario()
        protocol = ReferenceStateProtocol(
            code_registry=scenario_a.system.code_registry,
            trusted_hosts=scenario_a.trusted_host_names,
        )
        protocol_result = scenario_a.system.launch(agent_a, scenario_a.itinerary,
                                                   protection=protocol)

        scenario_b, agent_b = attacked_scenario()
        framework = CheckingFramework(policy=session_reexecution_policy(),
                                      trusted_hosts=scenario_b.trusted_host_names)
        framework_result = scenario_b.system.launch(agent_b, scenario_b.itinerary,
                                                    protection=framework)

        assert protocol_result.detected_attack()
        assert framework_result.detected_attack()
        assert protocol_result.blamed_hosts() == framework_result.blamed_hosts()

    def test_maximal_policy_on_survey_workload(self):
        scenario, agent = build_survey_scenario(num_participants=3)
        framework = CheckingFramework(policy=maximal_policy(),
                                      trusted_hosts=scenario.trusted_host_names)
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=framework)
        assert not result.detected_attack()
        assert result.final_state.data["answer_count"] == 3

    def test_undetectable_attack_shapes_are_stable_across_mechanisms(self):
        # Lying about input slips past both the hand-written protocol and the
        # generic framework — the gap is in the scheme, not the implementation.
        def lied_to_scenario():
            return build_shopping_scenario(
                num_shops=3, malicious_shop=2,
                injectors=[InputLyingInjector("shop", 1.0)],
            )

        scenario_a, agent_a = lied_to_scenario()
        protocol_result = scenario_a.system.launch(
            agent_a, scenario_a.itinerary,
            protection=ReferenceStateProtocol(
                code_registry=scenario_a.system.code_registry,
                trusted_hosts=scenario_a.trusted_host_names,
            ),
        )
        scenario_b, agent_b = lied_to_scenario()
        framework_result = scenario_b.system.launch(
            agent_b, scenario_b.itinerary,
            protection=CheckingFramework(
                policy=session_reexecution_policy(),
                trusted_hosts=scenario_b.trusted_host_names,
            ),
        )
        assert not protocol_result.detected_attack()
        assert not framework_result.detected_attack()

