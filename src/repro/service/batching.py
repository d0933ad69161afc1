"""Batch windows that close at the end of the event-loop tick.

The cluster gateway coalesces the verify items bound for one backend
into windows and ships each window as one ``verify-batch`` frame, so
the gateway⇄verifier hop costs one round trip per window.  A
:class:`MicroBatcher` is that window.  A window closes when it reaches
``max_batch`` items, inside the ``submit`` that filled it, or at the
end of the event-loop iteration in which its first item arrived: the
first ``submit`` schedules one ``loop.call_soon`` flush.  No timer
holds a window open, so a lone request never waits, while every item
that becomes ready in the same tick (all items of one frame, all
frames read in one socket read) still shares a window.  What closing a
window *does* is the caller's **settle step**: an awaitable function
from the window's items to one result per item (a shipment).  A settle
step that raises fails every waiter's future.

The verifier itself settles every signature inline, one by one; the
window amortizes the wire, not the arithmetic.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import (
    Any, Awaitable, Callable, Dict, List, Optional, Sequence, Set,
)

from repro.exceptions import ServiceError

__all__ = ["MicroBatcher", "Settled"]

#: A settle step: the window's items in, an awaitable of one result per
#: item out.
SettleStep = Callable[[List[Any]], Awaitable[Sequence[Any]]]


@dataclass(frozen=True)
class Settled:
    """What one settled item tells the response path."""

    value: Any
    batch_size: int
    queue_wait: float


@dataclass
class _Waiting:
    item: Any
    future: "asyncio.Future[Settled]"
    enqueued_at: float


class MicroBatcher:
    """Coalesces awaited items into bounded windows settled by one step.

    Parameters
    ----------
    settle:
        The settle step (see the module docstring).
    max_batch:
        Window size that triggers an immediate flush; ``1`` disables
        coalescing entirely (every submit flushes at once).  A window
        that stays smaller closes at the end of the loop iteration in
        which its first item arrived.
    """

    def __init__(
        self,
        settle: SettleStep,
        max_batch: int = 256,
    ) -> None:
        self.settle = settle
        self.max_batch = max(1, int(max_batch))
        self._waiting: List[_Waiting] = []
        #: The end-of-tick flush of the forming window, once scheduled.
        self._closing: Optional[asyncio.Handle] = None
        #: Awaited settle steps still running (the loop holds tasks
        #: only weakly).
        self._settling: Set["asyncio.Future[None]"] = set()
        #: Aggregate statistics: windows closed, items in them, and the
        #: batch-size histogram ``{window size: windows}``.
        self.batches = 0
        self.items = 0
        self.batch_histogram: Dict[int, int] = {}
        self.queue_wait_total = 0.0
        self.queue_wait_max = 0.0

    @property
    def pending(self) -> int:
        """Items waiting in the currently forming window."""
        return len(self._waiting)

    def submit(self, item: Any) -> "asyncio.Future[Settled]":
        """Queue one item; the future resolves when its window settles."""
        loop = asyncio.get_event_loop()
        future: "asyncio.Future[Settled]" = loop.create_future()
        self._waiting.append(_Waiting(item, future, loop.time()))
        if len(self._waiting) >= self.max_batch:
            self.flush()
        elif self._closing is None:
            self._closing = loop.call_soon(self.flush)
        return future

    def flush(self) -> int:
        """Close the forming window now; returns the window size.

        The window's futures resolve when its settle step completes.
        """
        if self._closing is not None:
            self._closing.cancel()
            self._closing = None
        if not self._waiting:
            return 0
        window, self._waiting = self._waiting, []
        size = len(window)
        self.batches += 1
        self.items += size
        self.batch_histogram[size] = self.batch_histogram.get(size, 0) + 1
        task = asyncio.ensure_future(self._settle(window))
        self._settling.add(task)
        task.add_done_callback(self._settling.discard)
        return size

    async def _settle(self, window: List[_Waiting]) -> None:
        try:
            results = await self.settle([entry.item for entry in window])
        except asyncio.CancelledError:
            for entry in window:
                entry.future.cancel()
            raise
        except Exception as exc:  # noqa: BLE001 - handed to every waiter
            self._fail(window, exc)
            return
        self._resolve(window, results)

    def _resolve(self, window: List[_Waiting],
                 results: Sequence[Any]) -> None:
        if len(results) != len(window):
            self._fail(window, ServiceError(
                "settle step answered %d results for %d items"
                % (len(results), len(window))
            ))
            return
        now = asyncio.get_event_loop().time()
        size = len(window)
        for entry, value in zip(window, results):
            wait = max(0.0, now - entry.enqueued_at)
            self.queue_wait_total += wait
            self.queue_wait_max = max(self.queue_wait_max, wait)
            if not entry.future.done():
                entry.future.set_result(Settled(value, size, wait))

    @staticmethod
    def _fail(window: List[_Waiting], exc: Exception) -> None:
        for entry in window:
            if not entry.future.done():
                entry.future.set_exception(exc)

    def stats(self) -> Dict[str, Any]:
        """Aggregate window statistics for the metrics endpoint."""
        return {
            "batches": self.batches,
            "items": self.items,
            "pending": self.pending,
            "max_batch": self.max_batch,
            "mean_batch_size": (
                self.items / self.batches if self.batches else 0.0
            ),
            "batch_histogram": {
                str(size): count
                for size, count in sorted(self.batch_histogram.items())
            },
            "queue_wait_total": self.queue_wait_total,
            "queue_wait_max": self.queue_wait_max,
        }
