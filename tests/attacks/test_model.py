"""Tests for the attack model (Figure 2 areas and descriptors)."""

from __future__ import annotations

from repro.attacks.model import (
    AttackArea,
    AttackDescriptor,
    BLACKBOX_SET,
    Detectability,
)


class TestAttackAreas:
    def test_there_are_twelve_areas(self):
        assert len(AttackArea) == 12

    def test_area_numbers_match_the_paper(self):
        assert AttackArea.SPYING_OUT_DATA.value == 2
        assert AttackArea.MANIPULATION_OF_DATA.value == 5
        assert AttackArea.INCORRECT_EXECUTION_OF_CODE.value == 7
        assert AttackArea.DENIAL_OF_EXECUTION.value == 9
        assert AttackArea.WRONG_SYSTEM_CALL_RESULTS.value == 12

    def test_every_area_has_a_description(self):
        for area in AttackArea:
            assert isinstance(area.description, str) and area.description

    def test_blackbox_set_is_areas_2_and_4_to_7(self):
        assert {area.value for area in BLACKBOX_SET} == {2, 4, 5, 6, 7}

    def test_detectability_classification_matches_the_paper(self):
        # Modification / incorrect execution: detected via state difference.
        for area in (AttackArea.MANIPULATION_OF_CODE,
                     AttackArea.MANIPULATION_OF_DATA,
                     AttackArea.MANIPULATION_OF_CONTROL_FLOW,
                     AttackArea.INCORRECT_EXECUTION_OF_CODE):
            assert area.detectability is Detectability.STATE_DIFFERENCE
        # Read attacks: outside the scheme.
        for area in (AttackArea.SPYING_OUT_CODE, AttackArea.SPYING_OUT_DATA,
                     AttackArea.SPYING_OUT_CONTROL_FLOW,
                     AttackArea.SPYING_OUT_INTERACTION):
            assert area.detectability is Detectability.NOT_DETECTABLE
        # Not preventable at all.
        assert AttackArea.DENIAL_OF_EXECUTION.detectability is Detectability.NOT_PREVENTABLE
        assert AttackArea.WRONG_SYSTEM_CALL_RESULTS.detectability is Detectability.NOT_PREVENTABLE
        # Section 4.3 extensions.
        assert AttackArea.MANIPULATION_OF_INTERACTION.detectability is Detectability.EXTENSION_REQUIRED
        assert AttackArea.MASQUERADING_OF_THE_HOST.detectability is Detectability.EXTENSION_REQUIRED


class TestAttackDescriptor:
    def test_state_changing_manipulation_is_expected_detected(self):
        descriptor = AttackDescriptor(
            name="tamper", area=AttackArea.MANIPULATION_OF_DATA,
            target_host="evil", changes_resulting_state=True,
        )
        assert descriptor.expected_detected_by_reference_states

    def test_read_attack_is_not_expected_detected(self):
        descriptor = AttackDescriptor(
            name="spy", area=AttackArea.SPYING_OUT_DATA,
            target_host="evil", changes_resulting_state=False,
        )
        assert not descriptor.expected_detected_by_reference_states

    def test_state_preserving_manipulation_is_not_expected_detected(self):
        descriptor = AttackDescriptor(
            name="noop-tamper", area=AttackArea.MANIPULATION_OF_DATA,
            target_host="evil", changes_resulting_state=False,
        )
        assert not descriptor.expected_detected_by_reference_states

    def test_interaction_manipulation_needs_extension(self):
        descriptor = AttackDescriptor(
            name="lie", area=AttackArea.MANIPULATION_OF_INTERACTION,
            target_host="evil", changes_resulting_state=True,
        )
        assert not descriptor.expected_detected_by_reference_states
