"""Clock abstractions.

The discrete-event simulation needs a *virtual* clock it can advance
instantly; it is expressed through the :class:`Clock` interface so that
components do not care which clock they are running against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["Clock", "VirtualClock"]


class Clock(ABC):
    """Minimal clock interface: read the current time in seconds."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in (possibly virtual) seconds."""


class VirtualClock(Clock):
    """A manually advanced clock for discrete-event simulation.

    The clock never moves on its own; the simulator advances it to the
    timestamp of the next scheduled event.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp``.

        Raises
        ------
        ValueError
            If ``timestamp`` is in the past; virtual time is monotonic.
        """
        if timestamp < self._now:
            raise ValueError(
                "cannot move virtual clock backwards (%.6f < %.6f)"
                % (timestamp, self._now)
            )
        self._now = float(timestamp)
