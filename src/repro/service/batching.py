"""Time- and size-bounded micro-batching of signature verifications.

The server does not verify requests one by one: concurrent requests are
coalesced into windows and settled with one randomized batch equation
(:func:`repro.crypto.dsa.batch_verify`), which amortizes the full-size
per-signer exponentiations across every signature of the window.  A
window closes when it reaches ``max_batch`` items **or** when
``max_delay`` seconds have passed since its first item — whichever
comes first — so throughput never buys unbounded latency.

A window of one item takes the plain :meth:`verify_recoverable` path
(the single-item batch equation costs *more* than individual
verification: it adds the small-exponent commitment power on top of the
two exponentiations individual verification needs).  This is also what
``max_batch=1`` means: the honest no-batching baseline the batching
speed gate compares against, not a degenerate batch equation.

Settlement runs inline on the event loop.  That is a deliberate choice
for a CPU-bound single-process service: a window of 256 signatures
settles in ~15 ms, during which the loop's readers simply let the
kernel socket buffers absorb arrivals — the next window is already
forming the moment settlement returns.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from random import Random, SystemRandom
from typing import Any, Dict, List, Optional

from repro.crypto.dsa import (
    DSAPublicKey,
    RecoverableSignature,
    batch_verify,
    find_invalid,
)

__all__ = ["MicroBatcher", "SettledVerification"]


@dataclass(frozen=True)
class SettledVerification:
    """What one settled verification tells the response path."""

    verdict: bool
    batch_size: int
    queue_wait: float


@dataclass
class _Waiting:
    public_key: DSAPublicKey
    message: bytes
    signature: RecoverableSignature
    future: "asyncio.Future[SettledVerification]"
    enqueued_at: float


class MicroBatcher:
    """Coalesces awaited verifications into bounded batch windows.

    Parameters
    ----------
    max_batch:
        Window size that triggers an immediate flush; ``1`` disables
        coalescing entirely (every submit settles synchronously).
    max_delay:
        Seconds after the window's *first* item at which the window is
        flushed regardless of fill — the latency bound.
    rng:
        Source of the random batch exponents.  Defaults to
        :class:`random.SystemRandom`; the batch test's soundness against
        adversarial streams requires unpredictable exponents, so pass a
        seeded generator only to reproduce non-adversarial benchmarks.
    """

    def __init__(
        self,
        max_batch: int = 256,
        max_delay: float = 0.002,
        rng: Optional[Random] = None,
    ) -> None:
        self.max_batch = max(1, int(max_batch))
        self.max_delay = max(0.0, float(max_delay))
        self.rng = rng if rng is not None else SystemRandom()
        self._waiting: List[_Waiting] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        #: Aggregate statistics: windows settled, items settled, and the
        #: batch-size histogram ``{window size: windows}``.
        self.batches = 0
        self.items = 0
        self.batch_histogram: Dict[int, int] = {}
        self.queue_wait_total = 0.0
        self.queue_wait_max = 0.0

    @property
    def pending(self) -> int:
        """Verifications waiting in the currently forming window."""
        return len(self._waiting)

    def submit(
        self,
        public_key: DSAPublicKey,
        message: bytes,
        signature: RecoverableSignature,
    ) -> "asyncio.Future[SettledVerification]":
        """Queue one verification; the future resolves at window close."""
        loop = asyncio.get_event_loop()
        future: "asyncio.Future[SettledVerification]" = loop.create_future()
        entry = _Waiting(
            public_key=public_key,
            message=message,
            signature=signature,
            future=future,
            enqueued_at=loop.time(),
        )
        self._waiting.append(entry)
        if len(self._waiting) >= self.max_batch:
            self.flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.max_delay, self.flush)
        return future

    def flush(self) -> int:
        """Settle the forming window now; returns the window size."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._waiting:
            return 0
        window, self._waiting = self._waiting, []
        size = len(window)
        if size == 1:
            entry = window[0]
            outcomes = [entry.public_key.verify_recoverable(
                entry.message, entry.signature
            )]
        else:
            items = [(w.public_key, w.message, w.signature) for w in window]
            if batch_verify(items, rng=self.rng):
                outcomes = [True] * size
            else:
                bad = set(find_invalid(items))
                outcomes = [index not in bad for index in range(size)]
        now = asyncio.get_event_loop().time()
        self.batches += 1
        self.items += size
        self.batch_histogram[size] = self.batch_histogram.get(size, 0) + 1
        for entry, verdict in zip(window, outcomes):
            wait = max(0.0, now - entry.enqueued_at)
            self.queue_wait_total += wait
            self.queue_wait_max = max(self.queue_wait_max, wait)
            if not entry.future.done():
                entry.future.set_result(SettledVerification(
                    verdict=verdict, batch_size=size, queue_wait=wait,
                ))
        return size

    def stats(self) -> Dict[str, Any]:
        """Aggregate batching statistics for the metrics endpoint."""
        return {
            "batches": self.batches,
            "items": self.items,
            "pending": self.pending,
            "max_batch": self.max_batch,
            "max_delay": self.max_delay,
            "mean_batch_size": (self.items / self.batches) if self.batches else 0.0,
            "batch_histogram": {
                str(size): count
                for size, count in sorted(self.batch_histogram.items())
            },
            "queue_wait_total": self.queue_wait_total,
            "queue_wait_max": self.queue_wait_max,
        }
