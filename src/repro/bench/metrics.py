"""Timing metrics: decomposing execution cost like the paper's tables.

Tables 1 and 2 report, per agent configuration, the time spent on

* ``sign & verify`` — computing and verifying message signatures,
* ``cycle`` — the agent's summation cycles,
* ``remainder`` — everything else (state comparison, per-state signing
  of the protocol, serialization, bookkeeping),
* ``overall`` — from the start of the execution on the first host to
  the end of the execution on the last host.

The :class:`TimingCollector` is a category → accumulated-seconds map
with a context-manager interface; hosts charge signature work to
``sign_verify`` and the generic agent charges its summation loop to
``cycle``.  The harness measures ``overall`` around the whole journey
and derives ``remainder`` by subtraction, exactly as the paper does.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

__all__ = ["TimingCollector", "TimingBreakdown", "CATEGORY_SIGN_VERIFY",
           "CATEGORY_CYCLE"]

#: Category name for signature computation and verification.
CATEGORY_SIGN_VERIFY = "sign_verify"
#: Category name for the agent's computation cycles.
CATEGORY_CYCLE = "cycle"


class TimingCollector:
    """Accumulates wall-clock time per category."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def measure(self, category: str) -> Iterator[None]:
        """Context manager charging the elapsed time to ``category``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(category, time.perf_counter() - start)

    def add(self, category: str, seconds: float) -> None:
        """Charge ``seconds`` to ``category`` directly."""
        self._totals[category] = self._totals.get(category, 0.0) + seconds
        self._counts[category] = self._counts.get(category, 0) + 1

    def total(self, category: str) -> float:
        """Accumulated seconds for ``category`` (0.0 if never charged)."""
        return self._totals.get(category, 0.0)

    def count(self, category: str) -> int:
        """How many intervals were charged to ``category``."""
        return self._counts.get(category, 0)

    def merge(self, other: "TimingCollector") -> None:
        """Add another collector's totals into this one."""
        for category, seconds in other._totals.items():
            self._totals[category] = self._totals.get(category, 0.0) + seconds
        for category, count in other._counts.items():
            self._counts[category] = self._counts.get(category, 0) + count


@dataclass(frozen=True)
class TimingBreakdown:
    """One row of Table 1 / Table 2: the per-category milliseconds."""

    label: str
    sign_verify_ms: float
    cycle_ms: float
    remainder_ms: float
    overall_ms: float

    @classmethod
    def from_collector(cls, label: str, collector: TimingCollector,
                       overall_seconds: float) -> "TimingBreakdown":
        """Derive a breakdown from a collector plus the overall wall time.

        ``remainder`` is overall minus the explicitly attributed
        categories, floored at zero (timer granularity can make the sum
        of parts marginally exceed the whole for very short runs).
        """
        sign_verify = collector.total(CATEGORY_SIGN_VERIFY)
        cycle = collector.total(CATEGORY_CYCLE)
        remainder = max(0.0, overall_seconds - sign_verify - cycle)
        return cls(
            label=label,
            sign_verify_ms=sign_verify * 1000.0,
            cycle_ms=cycle * 1000.0,
            remainder_ms=remainder * 1000.0,
            overall_ms=overall_seconds * 1000.0,
        )

    def overhead_factors(self, baseline: "TimingBreakdown") -> Dict[str, Optional[float]]:
        """Per-column overhead factors relative to a baseline breakdown.

        Columns whose baseline is (close to) zero yield ``None`` instead
        of an explosion — the paper's tables face the same issue for the
        tiny cycle columns and simply report small absolute numbers.
        """
        def factor(ours: float, theirs: float) -> Optional[float]:
            if theirs <= 1e-9:
                return None
            return ours / theirs

        return {
            "sign_verify": factor(self.sign_verify_ms, baseline.sign_verify_ms),
            "cycle": factor(self.cycle_ms, baseline.cycle_ms),
            "remainder": factor(self.remainder_ms, baseline.remainder_ms),
            "overall": factor(self.overall_ms, baseline.overall_ms),
        }

    def as_dict(self) -> Dict[str, float]:
        """Plain dictionary form (reports, JSON dumps)."""
        return {
            "label": self.label,
            "sign_verify_ms": self.sign_verify_ms,
            "cycle_ms": self.cycle_ms,
            "remainder_ms": self.remainder_ms,
            "overall_ms": self.overall_ms,
        }
