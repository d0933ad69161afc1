"""Tests for the re-execution, proof, and arbitrary-program checkers."""

from __future__ import annotations

import pytest

from repro.agents.agent import default_registry
from repro.agents.execution_log import ExecutionLog
from repro.agents.input import INPUT_KIND_MESSAGE, INPUT_KIND_SERVICE, InputLog
from repro.agents.messaging import MessageBoard
from repro.agents.state import AgentState
from repro.core.checkers.arbitrary import (
    ArbitraryProgramChecker,
    partner_confirmation_program,
    state_equality_program,
)
from repro.core.checkers.base import CheckContext, Checker
from repro.core.checkers.proofs import ExecutionProof, ProofChecker, build_proof
from repro.core.checkers.reexecution import ReExecutionChecker
from repro.core.reference_data import ReferenceDataSet
from repro.core.verdict import CheckResult, VerdictStatus
from repro.crypto.keys import Identity, KeyStore
from repro.crypto.signing import Signer


# ---------------------------------------------------------------------------
# fixtures building an honest counter-agent session
# ---------------------------------------------------------------------------


def _counter_session(increment=4, counter_before=10):
    initial = AgentState(data={"counter": counter_before, "history": []},
                         execution={"hop_index": 1, "finished": False})
    input_log = InputLog()
    input_log.record(INPUT_KIND_SERVICE, "numbers", "increment", increment)
    resulting = AgentState(
        data={
            "counter": counter_before + increment,
            "history": [{"host": "vendor", "value": increment}],
        },
        execution={"hop_index": 1, "finished": False},
    )
    execution_log = ExecutionLog()
    execution_log.append(None, {"increment": increment})
    return initial, input_log, resulting, execution_log


def _reference(initial=None, resulting=None, input_log=None, execution_log=None):
    return ReferenceDataSet(
        session_host="vendor", hop_index=1, agent_id="owner/x",
        code_name="test-counter-agent", owner="owner",
        initial_state=initial, resulting_state=resulting,
        input_log=input_log, execution_log=execution_log,
    )


def _context(reference, observed=None, extras=None):
    return CheckContext(
        reference_data=reference, observed_state=observed,
        checked_host="vendor", checking_host="archive", hop_index=1,
        code_registry=default_registry, extras=extras or {},
    )


# ---------------------------------------------------------------------------
# re-execution checker
# ---------------------------------------------------------------------------


class TestReExecutionChecker:
    def test_honest_session_passes(self):
        initial, input_log, resulting, _ = _counter_session()
        result = ReExecutionChecker().check(
            _context(_reference(initial, resulting, input_log), observed=resulting)
        )
        assert result.status is VerdictStatus.OK

    def test_tampered_resulting_state_detected(self):
        initial, input_log, resulting, _ = _counter_session()
        tampered = AgentState(data=dict(resulting.data, counter=999),
                              execution=dict(resulting.execution))
        result = ReExecutionChecker().check(
            _context(_reference(initial, tampered, input_log), observed=tampered)
        )
        assert result.status is VerdictStatus.ATTACK_DETECTED
        assert "state_difference" in result.details

    def test_tampered_initial_state_detected(self):
        initial, input_log, resulting, _ = _counter_session()
        forged_initial = AgentState(data=dict(initial.data, counter=0),
                                    execution=dict(initial.execution))
        result = ReExecutionChecker().check(
            _context(_reference(forged_initial, resulting, input_log),
                     observed=resulting)
        )
        assert result.status is VerdictStatus.ATTACK_DETECTED

    def test_truncated_input_log_detected(self):
        initial, _input_log, resulting, _ = _counter_session()
        result = ReExecutionChecker().check(
            _context(_reference(initial, resulting, InputLog()), observed=resulting)
        )
        assert result.status is VerdictStatus.ATTACK_DETECTED
        assert "replay_error" in result.details

    def test_arrived_state_differs_from_committed_state(self):
        initial, input_log, resulting, _ = _counter_session()
        arrived = AgentState(data=dict(resulting.data, counter=-1),
                             execution=dict(resulting.execution))
        result = ReExecutionChecker().check(
            _context(_reference(initial, resulting, input_log), observed=arrived)
        )
        assert result.status is VerdictStatus.ATTACK_DETECTED

    def test_missing_reference_data_is_inconclusive(self):
        _, _, resulting, _ = _counter_session()
        result = ReExecutionChecker().check(
            _context(_reference(resulting=resulting), observed=resulting)
        )
        assert result.status is VerdictStatus.INCONCLUSIVE

    def test_execution_log_comparison_can_be_enabled(self):
        initial, input_log, resulting, execution_log = _counter_session()
        forged_log = ExecutionLog()
        forged_log.append(None, {"increment": 12345})
        checker = ReExecutionChecker(compare_execution_log=True)
        result = checker.check(
            _context(_reference(initial, resulting, input_log, forged_log),
                     observed=resulting)
        )
        assert result.status is VerdictStatus.ATTACK_DETECTED

    def test_padded_input_is_reported_but_ok(self):
        initial, input_log, resulting, _ = _counter_session()
        padded = input_log.copy()
        padded.record(INPUT_KIND_SERVICE, "numbers", "increment", 999)
        result = ReExecutionChecker().check(
            _context(_reference(initial, resulting, padded), observed=resulting)
        )
        assert result.status is VerdictStatus.OK
        assert result.details["unused_input_entries"] == 1


# ---------------------------------------------------------------------------
# proof checker
# ---------------------------------------------------------------------------


class TestProofChecker:
    def _proof_setup(self):
        initial, input_log, resulting, execution_log = _counter_session()
        proof = build_proof(initial, resulting, execution_log)
        reference = _reference(initial, resulting, input_log, execution_log)
        return proof, reference, resulting

    def test_valid_proof_passes(self):
        proof, reference, resulting = self._proof_setup()
        result = ProofChecker().check(
            _context(reference, observed=resulting, extras={"proof": proof})
        )
        assert result.status is VerdictStatus.OK

    def test_canonical_proof_form_accepted(self):
        proof, reference, resulting = self._proof_setup()
        result = ProofChecker().check(
            _context(reference, observed=resulting,
                     extras={"proof": proof.to_canonical()})
        )
        assert result.status is VerdictStatus.OK

    def test_missing_proof_is_inconclusive(self):
        _, reference, resulting = self._proof_setup()
        result = ProofChecker().check(_context(reference, observed=resulting))
        assert result.status is VerdictStatus.INCONCLUSIVE

    def test_state_not_bound_to_proof_detected(self):
        proof, reference, resulting = self._proof_setup()
        other = AgentState(data=dict(resulting.data, counter=0),
                           execution=dict(resulting.execution))
        result = ProofChecker().check(
            _context(reference, observed=other, extras={"proof": proof})
        )
        assert result.status is VerdictStatus.ATTACK_DETECTED

    def test_trace_tampering_after_commitment_detected(self):
        proof, reference, resulting = self._proof_setup()
        reference.execution_log.append(None, {"injected": True})
        result = ProofChecker().check(
            _context(reference, observed=resulting, extras={"proof": proof})
        )
        assert result.status is VerdictStatus.ATTACK_DETECTED

    def test_malformed_proof_detected(self):
        _, reference, resulting = self._proof_setup()
        result = ProofChecker().check(
            _context(reference, observed=resulting,
                     extras={"proof": {"not": "a proof"}})
        )
        assert result.status is VerdictStatus.ATTACK_DETECTED

    def test_proof_round_trip(self):
        proof, _, _ = self._proof_setup()
        assert ExecutionProof.from_canonical(proof.to_canonical()) == proof


# ---------------------------------------------------------------------------
# arbitrary-program checker
# ---------------------------------------------------------------------------


class TestArbitraryProgramChecker:
    def test_boolean_return_values(self):
        _, reference, resulting = TestProofChecker()._proof_setup()
        context = _context(reference, observed=resulting)
        assert ArbitraryProgramChecker(lambda ctx: True).check(context).status \
            is VerdictStatus.OK
        assert ArbitraryProgramChecker(lambda ctx: False).check(context).status \
            is VerdictStatus.ATTACK_DETECTED

    def test_check_result_passthrough(self):
        _, reference, resulting = TestProofChecker()._proof_setup()
        custom = CheckResult(checker="custom", status=VerdictStatus.OK)
        result = ArbitraryProgramChecker(lambda ctx: custom).check(
            _context(reference, observed=resulting)
        )
        assert result is custom

    def test_none_and_exceptions_are_inconclusive(self):
        _, reference, resulting = TestProofChecker()._proof_setup()
        context = _context(reference, observed=resulting)
        assert ArbitraryProgramChecker(lambda ctx: None).check(context).status \
            is VerdictStatus.INCONCLUSIVE

        def boom(ctx):
            raise ValueError("bad check")

        assert ArbitraryProgramChecker(boom).check(context).status \
            is VerdictStatus.INCONCLUSIVE

    def test_dict_return_value(self):
        _, reference, resulting = TestProofChecker()._proof_setup()
        context = _context(reference, observed=resulting)
        result = ArbitraryProgramChecker(
            lambda ctx: {"ok": False, "note": "nope"}
        ).check(context)
        assert result.status is VerdictStatus.ATTACK_DETECTED
        assert result.details["note"] == "nope"

    def test_state_equality_program_ignores_named_variables(self):
        initial, input_log, resulting, _ = _counter_session()
        observed = AgentState(data=dict(resulting.data, counter=0),
                              execution=dict(resulting.execution))
        context = _context(_reference(initial, resulting, input_log),
                           observed=observed)
        strict = ArbitraryProgramChecker(state_equality_program())
        lenient = ArbitraryProgramChecker(state_equality_program(["counter"]))
        assert strict.check(context).status is VerdictStatus.ATTACK_DETECTED
        assert lenient.check(context).status is VerdictStatus.OK

    def test_partner_confirmation_program(self):
        keystore = KeyStore()
        partner = Identity.generate("airline")
        keystore.register_identity(partner)
        board = MessageBoard()
        signed = board.deposit("airline", "offers", {"price": 9},
                               signer=Signer(partner, keystore))
        unsigned = board.deposit("airline", "offers", {"price": 8})

        def make_context(message):
            log = InputLog()
            log.record(INPUT_KIND_MESSAGE, "offers", "offers", message.to_canonical())
            reference = _reference(input_log=log)
            context = _context(reference)
            context.keystore = keystore
            return context

        checker = ArbitraryProgramChecker(partner_confirmation_program(),
                                          name="partner-confirmation")
        assert checker.check(make_context(signed)).status is VerdictStatus.OK
        assert checker.check(make_context(unsigned)).status \
            is VerdictStatus.ATTACK_DETECTED


# ---------------------------------------------------------------------------
# base checker
# ---------------------------------------------------------------------------


class TestBaseChecker:
    def test_base_checker_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Checker().check(None)
