"""Tests for the rule DSL and the rule checker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.state import AgentState
from repro.core.checkers.base import CheckContext
from repro.core.checkers.rules import (
    Const,
    Rule,
    RuleChecker,
    RuleSet,
    build_rule_environment,
    var,
)
from repro.core.reference_data import ReferenceDataSet
from repro.core.verdict import VerdictStatus
from repro.exceptions import CheckingError


class TestExpressions:
    def test_arithmetic_and_comparison(self):
        expression = (var("spent") + var("rest")) == var("initial.money")
        assert expression.evaluate({"spent": 40, "rest": 60, "initial.money": 100})
        assert not expression.evaluate({"spent": 40, "rest": 50, "initial.money": 100})

    def test_subtraction_multiplication_division(self):
        assert (var("a") - 1).evaluate({"a": 3}) == 2
        assert (var("a") * 2).evaluate({"a": 3}) == 6
        assert (var("a") / 2).evaluate({"a": 3}) == 1.5

    def test_boolean_connectives(self):
        expression = (var("x") > 0) & (var("x") < 10)
        assert expression.evaluate({"x": 5})
        assert not expression.evaluate({"x": 50})
        either = (var("x") < 0) | (var("x") > 10)
        assert either.evaluate({"x": 50})
        negation = ~(var("x") > 0)
        assert negation.evaluate({"x": -1})

    def test_unknown_variable_raises(self):
        with pytest.raises(CheckingError):
            var("missing").evaluate({})

    def test_type_error_is_wrapped(self):
        with pytest.raises(CheckingError):
            (var("a") + var("b")).evaluate({"a": 1, "b": "text"})

    def test_division_by_zero_is_wrapped(self):
        with pytest.raises(CheckingError):
            (var("a") / 0).evaluate({"a": 1})


class TestRuleSet:
    def test_evaluate_reports_pass_fail_and_error(self):
        ruleset = RuleSet()
        ruleset.add(Rule("passes", var("x") > 0))
        ruleset.add(Rule("fails", var("x") < 0))
        ruleset.add(Rule("errors", var("missing") > 0))
        outcomes = ruleset.evaluate({"x": 1})
        assert [passed for _rule, passed, _err in outcomes] == [True, False, None]
        assert outcomes[2][2] is not None
        assert len(ruleset) == 3


def _context(observed_data, initial_data=None):
    reference = ReferenceDataSet(
        session_host="vendor", hop_index=1, agent_id="a", code_name="c",
        owner="o",
        initial_state=(AgentState(data=initial_data, execution={})
                       if initial_data is not None else None),
        resulting_state=AgentState(data=observed_data, execution={}),
    )
    return CheckContext(
        reference_data=reference,
        observed_state=AgentState(data=observed_data, execution={"hop_index": 1}),
        checked_host="vendor", checking_host="archive", hop_index=1,
    )


class TestRuleEnvironment:
    def test_environment_exposes_all_namespaces(self):
        context = _context({"money": 60}, initial_data={"money": 100})
        environment = build_rule_environment(context)
        assert environment["money"] == 60
        assert environment["initial.money"] == 100
        assert environment["execution.hop_index"] == 1


class TestRuleChecker:
    def test_passing_rules_yield_ok(self):
        checker = RuleChecker([Rule("positive", var("money") >= 0)])
        result = checker.check(_context({"money": 60}))
        assert result.status is VerdictStatus.OK

    def test_failing_rule_yields_attack(self):
        checker = RuleChecker([Rule("conservation",
                                    var("money") == var("initial.money"))])
        result = checker.check(_context({"money": 60}, initial_data={"money": 100}))
        assert result.status is VerdictStatus.ATTACK_DETECTED
        assert result.details["failed_rules"] == ["conservation"]

    def test_unevaluable_rule_yields_inconclusive(self):
        checker = RuleChecker([Rule("needs-initial",
                                    var("initial.money") == 100)])
        result = checker.check(_context({"money": 60}))  # no initial state
        assert result.status is VerdictStatus.INCONCLUSIVE

    def test_missing_state_yields_inconclusive(self):
        reference = ReferenceDataSet(session_host="v", hop_index=0, agent_id="a",
                                     code_name="c", owner="o")
        context = CheckContext(reference_data=reference, observed_state=None,
                               checked_host="v", checking_host="w", hop_index=0)
        result = RuleChecker([Rule("any", Const(True))]).check(context)
        assert result.status is VerdictStatus.INCONCLUSIVE


class TestRuleProperties:
    @given(spent=st.integers(0, 1000), rest=st.integers(0, 1000))
    @settings(max_examples=100)
    def test_money_conservation_rule_is_exact(self, spent, rest):
        rule = Rule("conservation",
                    (var("spent") + var("rest")) == var("initial.total"))
        environment = {"spent": spent, "rest": rest, "initial.total": spent + rest}
        assert rule.holds(environment)
        environment["initial.total"] = spent + rest + 1
        assert not rule.holds(environment)
