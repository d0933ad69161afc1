"""A small discrete-event simulator.

The fleet's agent sessions and migrations are modelled as events on a
virtual timeline.  The simulator is intentionally minimal: a priority
queue of ``(timestamp, sequence, callback)`` entries drained in order,
with the sequence number breaking ties deterministically (events
scheduled first fire first).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.net.clock import VirtualClock

__all__ = ["Event", "EventSimulator"]


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events compare by ``(timestamp, sequence)`` so the heap pops them in
    schedule order; the callback itself is excluded from comparison.
    """

    timestamp: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)


class EventSimulator:
    """Drains scheduled events in timestamp order on a virtual clock."""

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock or VirtualClock()
        self._queue: List[Event] = []
        self._sequence = 0
        self._processed = 0

    @property
    def processed(self) -> int:
        """Number of events that have been executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        event = Event(
            timestamp=self.clock.now() + delay,
            sequence=self._sequence,
            callback=callback,
        )
        self._sequence += 1
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, timestamp: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute virtual timestamp."""
        return self.schedule(max(0.0, timestamp - self.clock.now()), callback)

    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty.
        """
        if not self._queue:
            return False
        event = heapq.heappop(self._queue)
        self.clock.advance_to(event.timestamp)
        event.callback()
        self._processed += 1
        return True

    def run(self, max_events: Optional[int] = None,
            until: Optional[float] = None) -> int:
        """Run events until the queue drains (or a limit is hit).

        Parameters
        ----------
        max_events:
            Optional cap on the number of events to execute.
        until:
            Optional virtual timestamp; events scheduled after it are
            left in the queue.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            if until is not None and self._queue[0].timestamp > until:
                break
            self.step()
            executed += 1
        return executed
