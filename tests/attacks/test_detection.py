"""Tests for detection bookkeeping and coverage metrics."""

from __future__ import annotations

import pytest

from repro.attacks.detection import DetectionOutcome, DetectionReport
from repro.attacks.model import AttackArea, AttackDescriptor


def _attack(name="tamper", area=AttackArea.MANIPULATION_OF_DATA, host="evil"):
    return AttackDescriptor(name=name, area=area, target_host=host,
                            changes_resulting_state=True)


class TestDetectionOutcome:
    def test_honest_run_correct_when_not_detected(self):
        outcome = DetectionOutcome(mechanism="m", attack=None, detected=False)
        assert outcome.is_honest_run and outcome.correct

    def test_honest_run_incorrect_when_flagged(self):
        outcome = DetectionOutcome(mechanism="m", attack=None, detected=True)
        assert not outcome.correct

    def test_detected_attack_with_right_blame_is_correct(self):
        outcome = DetectionOutcome(
            mechanism="m", attack=_attack(), detected=True,
            blamed_hosts=("evil",), expected_detection=True,
        )
        assert outcome.correct

    def test_detected_attack_with_wrong_blame_is_incorrect(self):
        outcome = DetectionOutcome(
            mechanism="m", attack=_attack(), detected=True,
            blamed_hosts=("innocent",), expected_detection=True,
        )
        assert not outcome.correct

    def test_expected_miss_is_correct(self):
        outcome = DetectionOutcome(
            mechanism="m", attack=_attack(), detected=False,
            expected_detection=False,
        )
        assert outcome.correct

    def test_unexpected_miss_is_incorrect(self):
        outcome = DetectionOutcome(
            mechanism="m", attack=_attack(), detected=False,
            expected_detection=True,
        )
        assert not outcome.correct


class TestDetectionReport:
    def _populated_report(self):
        report = DetectionReport()
        report.add(DetectionOutcome("m", _attack("a"), True, ("evil",), True))
        report.add(DetectionOutcome("m", _attack("b"), False, (), True))
        report.add(DetectionOutcome(
            "m",
            AttackDescriptor("read", AttackArea.SPYING_OUT_DATA, "evil", False),
            False, (), False,
        ))
        report.add(DetectionOutcome("m", None, False))
        report.add(DetectionOutcome("m", None, True))
        return report

    def test_confusion_matrix_counts(self):
        report = self._populated_report()
        assert report.true_positives == 1
        assert report.false_negatives == 1
        assert report.accepted_misses == 1
        assert report.false_positives == 1
        assert report.honest_runs == 2
        assert report.attack_runs == 3

    def test_rates(self):
        report = self._populated_report()
        assert report.detection_rate == pytest.approx(0.5)
        assert report.false_positive_rate == pytest.approx(0.5)
        assert report.blame_accuracy == pytest.approx(1.0)

    def test_perfect_empty_report(self):
        report = DetectionReport()
        assert report.detection_rate == 1.0
        assert report.false_positive_rate == 0.0
        assert report.conforms_to_expectation

    def test_conformance_flag(self):
        report = DetectionReport()
        report.add(DetectionOutcome("m", _attack(), True, ("evil",), True))
        assert report.conforms_to_expectation
        report.add(DetectionOutcome("m", _attack(), False, (), True))
        assert not report.conforms_to_expectation

    def test_by_area_breakdown(self):
        report = self._populated_report()
        by_area = report.by_area()
        data_bucket = by_area[AttackArea.MANIPULATION_OF_DATA]
        assert data_bucket == {"mounted": 2, "detected": 1, "expected": 2}
        assert by_area[AttackArea.SPYING_OUT_DATA]["expected"] == 0

    def test_summary_keys(self):
        summary = self._populated_report().summary()
        assert set(summary) == {
            "attacks", "honest_runs", "true_positives", "false_negatives",
            "accepted_misses", "bonus_detections", "false_positives",
            "detection_rate", "false_positive_rate", "blame_accuracy",
        }
