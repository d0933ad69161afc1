"""Tests for protection policies and their presets."""

from __future__ import annotations

import pytest

from repro.core.attributes import CheckerKind, CheckMoment, ReferenceDataKind
from repro.core.checkers.arbitrary import ArbitraryProgramChecker
from repro.core.checkers.rules import Const, Rule, RuleChecker, var
from repro.core.policy import (
    ProtectionPolicy,
    maximal_policy,
    minimal_policy,
    session_reexecution_policy,
)
from repro.exceptions import ConfigurationError


class TestPolicyValidation:
    def test_policy_needs_a_moment(self):
        with pytest.raises(ConfigurationError):
            ProtectionPolicy(name="broken", moments=frozenset(),
                             checkers=(RuleChecker([]),))

    def test_policy_needs_a_checker(self):
        with pytest.raises(ConfigurationError):
            ProtectionPolicy(name="broken",
                             moments=frozenset({CheckMoment.AFTER_TASK}),
                             checkers=())


class TestMinimalPolicy:
    def test_matches_the_lower_end_of_the_bandwidth(self):
        policy = minimal_policy([Rule("non-negative", var("total") >= 0)])
        assert policy.checks_after_task()
        assert not policy.checks_after_session()
        assert [c.kind for c in policy.checkers] == [CheckerKind.RULES]
        assert ReferenceDataKind.RESULTING_STATE in policy.required_data_kinds()
        assert ReferenceDataKind.INPUT not in policy.required_data_kinds()
        assert not policy.sign_reference_data


class TestSessionReexecutionPolicy:
    def test_matches_the_example_mechanism_configuration(self):
        policy = session_reexecution_policy()
        assert policy.checks_after_session()
        assert not policy.checks_after_task()
        assert [c.kind for c in policy.checkers] == [CheckerKind.RE_EXECUTION]
        required = policy.required_data_kinds()
        assert {ReferenceDataKind.INITIAL_STATE, ReferenceDataKind.INPUT,
                ReferenceDataKind.RESULTING_STATE} <= required
        assert policy.skip_trusted_hosts
        assert policy.sign_reference_data


class TestMaximalPolicy:
    def test_covers_both_moments_and_all_data(self):
        policy = maximal_policy()
        assert policy.checks_after_session() and policy.checks_after_task()
        assert policy.required_data_kinds() == frozenset(ReferenceDataKind)
        assert policy.attach_proofs

    def test_extra_checkers_are_included(self):
        extra = ArbitraryProgramChecker(lambda ctx: True, name="extra")
        policy = maximal_policy(extra_checkers=[extra])
        assert any(checker.name == "extra" for checker in policy.checkers)


class TestPolicyIntrospection:
    def test_describe_is_canonical_friendly(self):
        description = session_reexecution_policy().describe()
        assert description["name"] == "session-reexecution"
        assert description["moments"] == ["after-session"]
        assert "re-execution" in description["checkers"]
        assert isinstance(description["data_kinds"], list)

    def test_required_kinds_include_proof_needs(self):
        policy = ProtectionPolicy(
            name="proofy",
            moments=frozenset({CheckMoment.AFTER_TASK}),
            checkers=(RuleChecker([Rule("always", Const(True))]),),
            attach_proofs=True,
        )
        required = policy.required_data_kinds()
        assert ReferenceDataKind.EXECUTION_LOG in required
        assert ReferenceDataKind.RESULTING_STATE in required
