"""Detection bookkeeping: did the mechanism catch what it should?

Sections 3 and 4 of the paper are, at their core, statements about
*detection coverage*: which attack classes a mechanism built on
reference states detects, which it misses by design, and which it could
catch with extensions.  This module turns those statements into
measurable quantities: every scenario run produces
:class:`DetectionOutcome` records, and a :class:`DetectionReport`
aggregates them into a confusion matrix plus per-attack-area coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.attacks.model import AttackArea, AttackDescriptor, Detectability

__all__ = ["DetectionOutcome", "DetectionReport"]


@dataclass(frozen=True)
class DetectionOutcome:
    """What happened for one attack (or honest run) under one mechanism.

    Attributes
    ----------
    mechanism:
        Name of the protection mechanism that was active.
    attack:
        The attack that was mounted, or ``None`` for an honest baseline
        run (used to measure false positives).
    detected:
        Whether the mechanism reported an attack.
    blamed_hosts:
        Which hosts the mechanism blamed (empty when nothing detected).
    expected_detection:
        Whether, per the paper's analysis, the mechanism should have
        detected this attack.
    """

    mechanism: str
    attack: Optional[AttackDescriptor]
    detected: bool
    blamed_hosts: Tuple[str, ...] = ()
    expected_detection: bool = False

    @property
    def is_honest_run(self) -> bool:
        """Whether this outcome comes from a run without any attack."""
        return self.attack is None

    @property
    def correct(self) -> bool:
        """Whether the observed behaviour matches the expectation.

        For honest runs, correct means "not detected" (no false alarm).
        For attacks, correct means detection matches the expectation
        *and*, when detected, the blamed host is the attacking host.
        """
        if self.is_honest_run:
            return not self.detected
        if self.detected != self.expected_detection:
            return False
        if self.detected and self.attack is not None:
            return self.attack.target_host in self.blamed_hosts
        return True


@dataclass
class DetectionReport:
    """Aggregates detection outcomes into coverage metrics."""

    outcomes: List[DetectionOutcome] = field(default_factory=list)

    def add(self, outcome: DetectionOutcome) -> None:
        """Record one outcome."""
        self.outcomes.append(outcome)

    # -- confusion matrix -------------------------------------------------------

    @property
    def true_positives(self) -> int:
        """Attacks that should be detected and were detected."""
        return sum(
            1 for o in self.outcomes
            if not o.is_honest_run and o.expected_detection and o.detected
        )

    @property
    def false_negatives(self) -> int:
        """Attacks that should be detected but were missed."""
        return sum(
            1 for o in self.outcomes
            if not o.is_honest_run and o.expected_detection and not o.detected
        )

    @property
    def accepted_misses(self) -> int:
        """Attacks the paper concedes are undetectable and were missed."""
        return sum(
            1 for o in self.outcomes
            if not o.is_honest_run and not o.expected_detection and not o.detected
        )

    @property
    def bonus_detections(self) -> int:
        """Attacks detected although not expected to be (extra coverage)."""
        return sum(
            1 for o in self.outcomes
            if not o.is_honest_run and not o.expected_detection and o.detected
        )

    @property
    def false_positives(self) -> int:
        """Honest runs that were wrongly flagged as attacks."""
        return sum(1 for o in self.outcomes if o.is_honest_run and o.detected)

    @property
    def honest_runs(self) -> int:
        """Number of honest baseline runs."""
        return sum(1 for o in self.outcomes if o.is_honest_run)

    @property
    def attack_runs(self) -> int:
        """Number of runs in which an attack was mounted."""
        return sum(1 for o in self.outcomes if not o.is_honest_run)

    # -- derived rates -------------------------------------------------------------

    @property
    def detection_rate(self) -> float:
        """Detected / expected-detectable attacks (recall)."""
        expected = self.true_positives + self.false_negatives
        if expected == 0:
            return 1.0
        return self.true_positives / expected

    @property
    def false_positive_rate(self) -> float:
        """Wrong alarms / honest runs."""
        if self.honest_runs == 0:
            return 0.0
        return self.false_positives / self.honest_runs

    @property
    def blame_accuracy(self) -> float:
        """Fraction of detections that blamed (at least) the attacking host."""
        detections = [
            o for o in self.outcomes if not o.is_honest_run and o.detected
        ]
        if not detections:
            return 1.0
        correct = sum(
            1 for o in detections
            if o.attack is not None and o.attack.target_host in o.blamed_hosts
        )
        return correct / len(detections)

    @property
    def conforms_to_expectation(self) -> bool:
        """Whether every single outcome matches the paper's expectation."""
        return all(outcome.correct for outcome in self.outcomes)

    # -- breakdowns ----------------------------------------------------------------

    def by_area(self) -> Dict[AttackArea, Dict[str, int]]:
        """Per-attack-area counts of mounted / detected attacks."""
        table: Dict[AttackArea, Dict[str, int]] = {}
        for outcome in self.outcomes:
            if outcome.attack is None:
                continue
            bucket = table.setdefault(
                outcome.attack.area, {"mounted": 0, "detected": 0, "expected": 0}
            )
            bucket["mounted"] += 1
            bucket["detected"] += int(outcome.detected)
            bucket["expected"] += int(outcome.expected_detection)
        return table

    def by_detectability(self) -> Dict[Detectability, Dict[str, int]]:
        """Per-detectability-class counts of mounted / detected attacks.

        This is the aggregation behind the campaign detectability
        matrix.  Detectability is a pure function of the area
        (Sections 2.3, 4.1, 4.2), so the class buckets are folds of
        :meth:`by_area`.
        """
        table: Dict[Detectability, Dict[str, int]] = {}
        for area, counts in self.by_area().items():
            bucket = table.setdefault(
                area.detectability,
                {"mounted": 0, "detected": 0, "expected": 0},
            )
            for key, value in counts.items():
                bucket[key] += value
        return table

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by benchmarks and reports."""
        return {
            "attacks": float(self.attack_runs),
            "honest_runs": float(self.honest_runs),
            "true_positives": float(self.true_positives),
            "false_negatives": float(self.false_negatives),
            "accepted_misses": float(self.accepted_misses),
            "bonus_detections": float(self.bonus_detections),
            "false_positives": float(self.false_positives),
            "detection_rate": self.detection_rate,
            "false_positive_rate": self.false_positive_rate,
            "blame_accuracy": self.blame_accuracy,
        }
