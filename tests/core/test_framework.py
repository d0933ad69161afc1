"""Tests for the policy-driven checking framework (Section 5)."""

from __future__ import annotations


from repro.attacks.injector import DataTamperInjector, ProtocolDataTamperInjector
from repro.core.checkers.rules import Rule, var
from repro.core.framework import CheckingFramework
from repro.core.policy import (
    maximal_policy,
    minimal_policy,
    session_reexecution_policy,
)
from repro.core.verdict import VerdictStatus
from repro.workloads.generators import build_generic_scenario, build_shopping_scenario
from repro.workloads.shopping import shopping_rules


def _run(scenario, agent, framework):
    return scenario.system.launch(agent, scenario.itinerary, protection=framework)


class TestHonestJourneys:
    def test_session_policy_accepts_honest_generic_run(self):
        scenario, agent = build_generic_scenario(cycles=1, input_elements=2,
                                                 protected_agent=True)
        framework = CheckingFramework(policy=session_reexecution_policy(),
                                      trusted_hosts=scenario.trusted_host_names)
        result = _run(scenario, agent, framework)
        assert not result.detected_attack()
        # the untrusted vendor session was actually checked (status OK)
        checked = [v for v in result.verdicts if v.checked_host == "vendor"]
        assert checked and checked[0].status is VerdictStatus.OK

    def test_trusted_hosts_are_skipped(self):
        scenario, agent = build_generic_scenario(cycles=1, input_elements=1,
                                                 protected_agent=True)
        framework = CheckingFramework(policy=session_reexecution_policy(),
                                      trusted_hosts=scenario.trusted_host_names)
        result = _run(scenario, agent, framework)
        home_verdicts = [v for v in result.verdicts if v.checked_host == "home"]
        assert home_verdicts and home_verdicts[0].status is VerdictStatus.SKIPPED

    def test_minimal_policy_accepts_honest_shopping_run(self):
        scenario, agent = build_shopping_scenario(num_shops=3)
        framework = CheckingFramework(policy=minimal_policy(shopping_rules()))
        result = _run(scenario, agent, framework)
        assert not result.detected_attack()

    def test_maximal_policy_accepts_honest_run(self):
        scenario, agent = build_shopping_scenario(num_shops=2)
        framework = CheckingFramework(policy=maximal_policy(),
                                      trusted_hosts=scenario.trusted_host_names)
        result = _run(scenario, agent, framework)
        assert not result.detected_attack()
        # after-task checking produced per-session verdicts as well
        task_verdicts = [v for v in result.verdicts
                         if v.moment.value == "after-task"]
        assert task_verdicts


class TestAttackDetection:
    def test_session_policy_detects_tampering_and_blames_the_shop(self):
        scenario, agent = build_shopping_scenario(
            num_shops=3, malicious_shop=2,
            injectors=[DataTamperInjector("cheapest_total", 1.0)],
        )
        framework = CheckingFramework(policy=session_reexecution_policy(),
                                      trusted_hosts=scenario.trusted_host_names)
        result = _run(scenario, agent, framework)
        assert result.detected_attack()
        assert result.blamed_hosts() == ("shop-2",)

    def test_minimal_policy_misses_subtle_tampering(self):
        # The tampered total still satisfies every rule, so the weak end of
        # the bandwidth does not notice — exactly the paper's point.
        scenario, agent = build_shopping_scenario(
            num_shops=3, malicious_shop=2,
            injectors=[DataTamperInjector("cheapest_total", 1.0)],
        )
        framework = CheckingFramework(policy=minimal_policy(shopping_rules()))
        result = _run(scenario, agent, framework)
        assert not result.detected_attack()

    def test_minimal_policy_catches_rule_violations(self):
        scenario, agent = build_shopping_scenario(
            num_shops=3, malicious_shop=2,
            injectors=[DataTamperInjector("cheapest_total", 10_000_000.0)],
        )
        framework = CheckingFramework(policy=minimal_policy(shopping_rules()))
        result = _run(scenario, agent, framework)
        assert result.detected_attack()

    def test_stripped_protocol_data_is_flagged(self):
        scenario, agent = build_generic_scenario(
            cycles=1, input_elements=1, protected_agent=True,
            middle_host_injectors=[
                ProtocolDataTamperInjector(lambda data: None,
                                           name="drop-everything"),
            ],
        )
        # The injector replaces the payload with None when the agent leaves
        # the vendor, so the archive host cannot check the vendor's session.
        framework = CheckingFramework(policy=session_reexecution_policy(),
                                      trusted_hosts=scenario.trusted_host_names)
        result = _run(scenario, agent, framework)
        assert result.detected_attack()
        assert "vendor" in result.blamed_hosts()


class TestProtectionRulesHook:
    def test_protection_rules_hook_feeds_the_framework(self):
        from repro.workloads.shopping import ShoppingAgent

        class RuleCarryingAgent(ShoppingAgent):
            code_name = "rule-carrying-shopping-agent"

            def protection_rules(self):
                return [Rule("impossible", var("cheapest_total") < 0)]

        from repro.agents.agent import default_registry

        default_registry.register(RuleCarryingAgent)
        scenario, _ = build_shopping_scenario(num_shops=2)
        agent = RuleCarryingAgent.for_products(["flight"])
        framework = CheckingFramework(policy=session_reexecution_policy(),
                                      trusted_hosts=scenario.trusted_host_names)
        result = _run(scenario, agent, framework)
        # The impossible rule fails on every checked session, so the agent's
        # own rules are demonstrably part of the check.
        assert result.detected_attack()


class TestTrustComesFromConfiguration:
    def test_a_self_declared_trusted_session_is_still_checked(self):
        def claim_trust(data):
            data["prev_session"]["trusted"] = True
            return data

        scenario, agent = build_shopping_scenario(
            num_shops=3,
            malicious_shop=1,
            injectors=[DataTamperInjector("cheapest_total", 1.0),
                       ProtocolDataTamperInjector(claim_trust)],
        )
        framework = CheckingFramework(policy=session_reexecution_policy())
        result = _run(scenario, agent, framework)
        assert result.detected_attack()
        assert result.blamed_hosts() == ("shop-1",)

    def test_without_configuration_no_host_is_trusted(self):
        scenario, agent = build_generic_scenario(cycles=1, input_elements=1,
                                                 protected_agent=True)
        framework = CheckingFramework(policy=session_reexecution_policy())
        result = _run(scenario, agent, framework)
        home_verdicts = [v for v in result.verdicts if v.checked_host == "home"]
        assert home_verdicts and home_verdicts[0].status is VerdictStatus.OK
