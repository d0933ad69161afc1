"""Tests for the survey workload (partner messages as input)."""

from __future__ import annotations

import pytest

from repro.core.checkers.arbitrary import (
    ArbitraryProgramChecker,
    partner_confirmation_program,
)
from repro.core.checkers.base import CheckContext
from repro.core.protocol import ReferenceStateProtocol
from repro.core.reference_data import ReferenceDataSet
from repro.core.verdict import VerdictStatus
from repro.workloads.generators import build_survey_scenario


class TestSurveyJourney:
    def test_answers_are_collected_and_aggregated(self):
        scenario, agent = build_survey_scenario(num_participants=3,
                                                answers=[2.0, 4.0, 9.0])
        result = scenario.system.launch(agent, scenario.itinerary)
        final = result.final_state.data
        assert final["answer_count"] == 3
        assert final["answer_sum"] == pytest.approx(15.0)
        assert final["answer_min"] == 2.0
        assert final["answer_max"] == 9.0
        assert set(final["answers"]) == {
            "participant-host-1", "participant-host-2", "participant-host-3",
        }

    def test_home_host_contributes_no_answer(self):
        scenario, agent = build_survey_scenario(num_participants=2,
                                                answers=[1.0, 1.0])
        result = scenario.system.launch(agent, scenario.itinerary)
        assert result.final_state.data["answer_count"] == 2

    def test_signed_answers_are_marked(self):
        scenario, agent = build_survey_scenario(num_participants=2,
                                                sign_answers=True)
        result = scenario.system.launch(agent, scenario.itinerary)
        answers = result.final_state.data["answers"]
        assert all(entry["signed"] for entry in answers.values())

    def test_unsigned_answers_are_marked(self):
        scenario, agent = build_survey_scenario(num_participants=2,
                                                sign_answers=False)
        result = scenario.system.launch(agent, scenario.itinerary)
        answers = result.final_state.data["answers"]
        assert all(not entry["signed"] for entry in answers.values())

    def test_answers_are_summed(self):
        scenario, agent = build_survey_scenario(num_participants=2,
                                                answers=[4.0, 8.0])
        result = scenario.system.launch(agent, scenario.itinerary)
        assert result.agent.data["answer_count"] == 2
        assert result.agent.data["answer_sum"] == pytest.approx(12.0)


class TestSurveyUnderProtection:
    def test_protocol_accepts_honest_survey(self):
        scenario, agent = build_survey_scenario(num_participants=3)
        protocol = ReferenceStateProtocol(
            code_registry=scenario.system.code_registry,
            trusted_hosts=scenario.trusted_host_names,
        )
        result = scenario.system.launch(agent, scenario.itinerary,
                                        protection=protocol)
        assert not result.detected_attack()
        assert result.final_state.data["answer_count"] == 3

    def test_partner_confirmation_validates_signed_answers(self):
        scenario, agent = build_survey_scenario(num_participants=2,
                                                sign_answers=True)
        result = scenario.system.launch(agent, scenario.itinerary)
        # Build a check context for the first participant's session and run
        # the Section 4.3 extension checker against its recorded input.
        record = result.records[1]
        reference = ReferenceDataSet.from_session_record(record)
        context = CheckContext(
            reference_data=reference,
            observed_state=record.resulting_state,
            checked_host=record.host,
            checking_host="home",
            hop_index=record.hop_index,
            keystore=scenario.keystore,
        )
        checker = ArbitraryProgramChecker(partner_confirmation_program(),
                                          name="partner-confirmation")
        assert checker.check(context).status is VerdictStatus.OK

    def test_partner_confirmation_flags_unsigned_answers(self):
        scenario, agent = build_survey_scenario(num_participants=2,
                                                sign_answers=False)
        result = scenario.system.launch(agent, scenario.itinerary)
        record = result.records[1]
        reference = ReferenceDataSet.from_session_record(record)
        context = CheckContext(
            reference_data=reference,
            observed_state=record.resulting_state,
            checked_host=record.host,
            checking_host="home",
            hop_index=record.hop_index,
            keystore=scenario.keystore,
        )
        checker = ArbitraryProgramChecker(partner_confirmation_program(),
                                          name="partner-confirmation")
        assert checker.check(context).status is VerdictStatus.ATTACK_DETECTED
