"""Tests for the generic mechanism attributes (Section 3.5)."""

from __future__ import annotations

from repro.core.attributes import (
    ALL_REFERENCE_DATA,
    CheckerKind,
    CheckMoment,
    ReferenceDataKind,
)


class TestCheckMoment:
    def test_two_moments(self):
        assert len(CheckMoment) == 2

    def test_callback_names_match_figure_4(self):
        assert CheckMoment.AFTER_SESSION.callback_name == "checkAfterSession"
        assert CheckMoment.AFTER_TASK.callback_name == "checkAfterTask"


class TestReferenceDataKind:
    def test_five_kinds(self):
        assert len(ReferenceDataKind) == 5
        assert len(ALL_REFERENCE_DATA) == 5


class TestCheckerKind:

    def test_required_data_per_kind(self):
        assert CheckerKind.RULES.required_data == (ReferenceDataKind.RESULTING_STATE,)
        assert ReferenceDataKind.INPUT in CheckerKind.RE_EXECUTION.required_data
        assert ReferenceDataKind.INITIAL_STATE in CheckerKind.RE_EXECUTION.required_data
        assert ReferenceDataKind.EXECUTION_LOG in CheckerKind.PROOFS.required_data
        assert set(CheckerKind.ARBITRARY_PROGRAM.required_data) == set(ALL_REFERENCE_DATA)
