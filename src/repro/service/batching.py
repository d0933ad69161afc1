"""Time- and size-bounded batch windows, one mechanism for both tiers.

Both service tiers coalesce concurrent work into windows: the verifier
settles signature verifications with one randomized batch equation
(:func:`repro.crypto.dsa.batch_verify`), and the cluster gateway ships
verify items to a backend as one ``verify-batch`` frame.  A
:class:`MicroBatcher` is the window both use.  A window closes when it
reaches ``max_batch`` items **or** when ``max_delay`` seconds have
passed since its first item — whichever comes first — so throughput
never buys unbounded latency.  What closing a window *does* is the
caller's **settle step**: a function from the window's items to one
result per item, either returned directly (settled inline) or awaited
(a shipment).  A settle step that raises fails every waiter's future.

:func:`verify_window` is the verifier's settle step.  A window of one
item takes the plain :meth:`verify_recoverable` path (the single-item
batch equation costs *more* than individual verification: it adds the
small-exponent commitment power on top of the two exponentiations
individual verification needs).  This is also what ``max_batch=1``
means: the honest no-batching baseline the batching speed gate
compares against, not a degenerate batch equation.

Inline settlement runs on the event loop.  That is a deliberate choice
for a CPU-bound single-process service: a window of 256 signatures
settles in ~15 ms, during which the loop's readers simply let the
kernel socket buffers absorb arrivals — the next window is already
forming the moment settlement returns.
"""

from __future__ import annotations

import asyncio
import inspect
from dataclasses import dataclass
from random import Random, SystemRandom
from typing import (
    Any, Awaitable, Callable, Dict, List, Optional, Sequence, Set, Union,
)

from repro.crypto.dsa import batch_verify, find_invalid
from repro.exceptions import ServiceError

__all__ = ["MicroBatcher", "Settled", "verify_window"]

#: A settle step: the window's items in, one result per item out —
#: returned directly or through an awaitable.
SettleStep = Callable[
    [List[Any]], Union[Sequence[Any], Awaitable[Sequence[Any]]]
]

_SYSTEM_RANDOM = SystemRandom()


def verify_window(
    items: Sequence[Any], rng: Optional[Random] = None
) -> List[bool]:
    """Settle ``(public_key, message, signature)`` items; one verdict each.

    Two or more items go through one batch equation, and
    :func:`~repro.crypto.dsa.find_invalid` names the bad ones when it
    fails.  ``rng`` is the source of the random batch exponents; the
    default, :class:`random.SystemRandom`, is what the batch test's
    soundness against adversarial streams requires, so pass a seeded
    generator only to reproduce non-adversarial benchmarks.
    """
    if len(items) == 1:
        public_key, message, signature = items[0]
        return [public_key.verify_recoverable(message, signature)]
    if batch_verify(items, rng=rng if rng is not None else _SYSTEM_RANDOM):
        return [True] * len(items)
    bad = set(find_invalid(items))
    return [index not in bad for index in range(len(items))]


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
        coalescing entirely (every submit flushes at once).
    max_delay:
        Seconds after the window's *first* item at which the window is
        flushed regardless of fill — the latency bound.
    """

    def __init__(
        self,
        settle: SettleStep,
        max_batch: int = 256,
        max_delay: float = 0.002,
    ) -> None:
        self.settle = settle
        self.max_batch = max(1, int(max_batch))
        self.max_delay = max(0.0, float(max_delay))
        self._waiting: List[_Waiting] = []
        self._timer: Optional[asyncio.TimerHandle] = None
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
        elif self._timer is None:
            self._timer = loop.call_later(self.max_delay, self.flush)
        return future

    def flush(self) -> int:
        """Close the forming window now; returns the window size.

        An inline settle step has resolved every future by the time
        this returns; an awaitable one resolves them when it completes.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
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
            "max_delay": self.max_delay,
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
