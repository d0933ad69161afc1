"""Batch windows that close at the end of the event-loop tick.

Both service tiers coalesce concurrent work into windows: the verifier
settles signature verifications with one randomized batch equation
(:func:`repro.crypto.dsa.batch_verify`), and the cluster gateway ships
verify items to a backend as one ``verify-batch`` frame.  A
:class:`MicroBatcher` is the window both use.  A window closes when it
reaches ``max_batch`` items, inside the ``submit`` that filled it, or
at the end of the event-loop iteration in which its first item
arrived: the first ``submit`` schedules one ``loop.call_soon`` flush.
No timer holds a window open, so a lone request never waits, while
every item that becomes ready in the same tick (all items of one
``verify-batch`` frame, all frames read in one socket read) still
shares a window.  What closing a window *does* is the caller's
**settle step**: a function from the window's items to one result per
item, either returned directly (settled inline) or awaited (a
shipment).  A settle step that raises fails every waiter's future.

:func:`~repro.crypto.batch.verify_window` is the verifier's settle
step; it lives in :mod:`repro.crypto.batch` because the fleet's
deferred transfer check settles through it too.  ``max_batch=1`` is
the honest no-batching baseline the batching speed gate compares
against: a window of one item takes the plain
:meth:`verify_recoverable` path, not a degenerate batch equation.

Inline settlement runs on the event loop.  That is a deliberate choice
for a CPU-bound single-process service: while a window settles, the
kernel socket buffers absorb arrivals, and everything read in the next
tick forms the next window.
"""

from __future__ import annotations

import asyncio
import inspect
from dataclasses import dataclass
from typing import (
    Any, Awaitable, Callable, Dict, List, Optional, Sequence, Set, Union,
)

from repro.exceptions import ServiceError

__all__ = ["MicroBatcher", "Settled"]

#: A settle step: the window's items in, one result per item out —
#: returned directly or through an awaitable.
SettleStep = Callable[
    [List[Any]], Union[Sequence[Any], Awaitable[Sequence[Any]]]
]


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

        An inline settle step has resolved every future by the time
        this returns; an awaitable one resolves them when it completes.
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
        try:
            results = self.settle([entry.item for entry in window])
        except Exception as exc:  # noqa: BLE001 - handed to every waiter
            self._fail(window, exc)
            return size
        if inspect.isawaitable(results):
            task = asyncio.ensure_future(self._settle_later(window, results))
            self._settling.add(task)
            task.add_done_callback(self._settling.discard)
        else:
            self._resolve(window, results)
        return size

    async def _settle_later(self, window: List[_Waiting],
                            pending: Awaitable[Sequence[Any]]) -> None:
        try:
            results = await pending
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
