"""Typed retry policy: a deadline and jittered exponential backoff.

The stack used to retry in two ad-hoc ways — a fixed-interval dial loop
(since removed) and no request retry at all, so a single connection
reset during a backend restart failed an entire parity run.
:class:`RetryPolicy` replaces both: one immutable value describing
*how long* to keep trying (``deadline``), *how fast* to back off
(``base_delay`` × ``multiplier`` capped at ``max_delay``), and *how
much* to jitter so a thousand clients retrying the same dead backend do
not stampede it in lockstep.

Retry is only sound for idempotent operations.  Everything the
verification service exposes is a pure function of its request —
verify, check-session, stats, ping — so the policy retries on the
transport-level transients (``retryable``) and nothing else: a typed
error response is an *answer*, not an outage.

Determinism: pass ``seed`` to pin the jitter sequence (tests, replay);
without it the module-level RNG supplies honest desynchronisation.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Optional, Tuple, Type

from repro.exceptions import (
    ConfigurationError,
    RetryExhausted,
    ServiceUnavailable,
)

__all__ = ["DEFAULT_RETRYABLE", "RetryPolicy"]

#: Transport-level transients worth retrying: connection resets and
#: refusals (``OSError`` covers ``ConnectionError``), torn reads
#: (``EOFError`` covers :class:`asyncio.IncompleteReadError`), and the
#: service's typed backpressure shed.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    OSError,
    EOFError,
    ServiceUnavailable,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How to keep trying a transient-failure-prone operation.

    ``deadline`` bounds the *total* wall time spent, attempts included
    — a policy never turns one slow failure into an unbounded hang.
    Attempt ``n`` sleeps ``base_delay * multiplier**n`` (capped at
    ``max_delay``), jittered uniformly down by up to ``jitter`` of
    itself.  A sleep that would overrun the deadline is clipped to it;
    once the deadline has passed, :class:`RetryExhausted` is raised
    with the last underlying error chained.
    """

    deadline: float = 10.0
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE

    def validate(self) -> None:
        if self.deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        if self.base_delay <= 0:
            raise ConfigurationError("base_delay must be positive")
        if self.max_delay < self.base_delay:
            raise ConfigurationError("max_delay must be >= base_delay")
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1.0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigurationError("jitter must fall inside [0, 1]")
        if not self.retryable:
            raise ConfigurationError(
                "a policy with nothing retryable cannot retry"
            )

    def delay(self, attempt: int,
              rng: Optional[random.Random] = None) -> float:
        """The backoff before retry ``attempt`` (0-based), jittered."""
        step = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        draw = (rng or random).random()
        return step * (1.0 - self.jitter * draw)

    async def call(
        self,
        operation: Callable[[], Awaitable[Any]],
        describe: str = "operation",
    ) -> Any:
        """Run ``operation`` until it succeeds or the deadline passes.

        ``operation`` is a zero-argument coroutine factory — each
        attempt gets a fresh coroutine.  Non-retryable exceptions
        propagate immediately; retryable ones are swallowed and
        retried until the deadline, then surfaced inside a typed
        :class:`~repro.exceptions.RetryExhausted`.
        """
        self.validate()
        rng = random.Random(self.seed) if self.seed is not None else None
        loop = asyncio.get_event_loop()
        deadline = loop.time() + self.deadline
        attempt = 0
        while True:
            try:
                return await operation()
            except self.retryable as exc:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise RetryExhausted(
                        "%s still failing after %d attempt(s) over %.1fs: %s"
                        % (describe, attempt + 1, self.deadline, exc),
                        attempts=attempt + 1,
                        last_error=exc,
                    ) from exc
                await asyncio.sleep(
                    min(self.delay(attempt, rng), remaining)
                )
                attempt += 1
