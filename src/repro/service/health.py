"""Backend health for the verification cluster gateway.

One state machine per verifier backend decides whether the gateway may
route to it.  It answers three questions:

* **is it up?** — a backend is marked down after ``failure_threshold``
  consecutive probe failures (one flaky ping never evicts a node), or
  immediately when the request path sees its connection die (the
  request path is evidence enough: waiting K probe intervals to notice
  a dead peer would strand every in-flight request that long).  A
  downed backend whose probe succeeds again is marked up.
* **is it held?** — a *flapping* backend answers every probe yet fails
  real requests, so probe health alone keeps routing to it and burns a
  failover round trip on each flap.  A second streak counts request-path
  failures, and only a request-path success resets it: neither a probe
  nor a fresh connection's ``hello`` does.  After ``failure_threshold``
  such failures the backend is held out of routing for
  :data:`HOLD_SECONDS`.  A hold that starts within
  :data:`FLAP_WINDOW_SECONDS` of the previous hold's end doubles, up to
  :data:`MAX_HOLD_SECONDS`.  The streak outlives the hold, so once a
  hold expires the first further failure holds the backend again.
* **did it restart?** — each server process announces a random
  ``instance`` id in its ping (:mod:`repro.service.server`); a changed
  id means a new process behind the same address, which fires the
  restart callback so the gateway can invalidate every cached verdict
  attributed to the old process.

:meth:`HealthMonitor.avoid` joins the answers into the set routing
skips.  The monitor itself is transport-agnostic: it drives an async
``probe`` callable per backend (the gateway supplies one that pings over
the wire), and its clock is injectable, so every edge of the state
machine is unit-testable without sockets or sleeps
(``tests/service/test_health.py``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BackendState",
    "FLAP_WINDOW_SECONDS",
    "HOLD_SECONDS",
    "HealthMonitor",
    "MAX_HOLD_SECONDS",
    "ProbeResult",
]

#: What a probe reports back: the peer's instance id and wire version.
ProbeResult = Dict[str, Any]

#: The first hold of a flapping backend.
HOLD_SECONDS = 1.0
#: The cap the doubling hold never exceeds.
MAX_HOLD_SECONDS = 30.0
#: A hold starting this soon after the previous one ended doubles it.
FLAP_WINDOW_SECONDS = 10.0


@dataclass
class BackendState:
    """The monitor's view of one backend."""

    name: str
    up: bool = False
    #: Consecutive probe failures since the last successful probe.
    consecutive_failures: int = 0
    #: Consecutive request-path failures since the last request-path
    #: success.
    request_failures: int = 0
    #: Routing holds the backend out until this clock reading.
    held_until: float = 0.0
    #: Length in seconds of the latest hold (0 before the first).
    hold: float = 0.0
    #: The ``instance`` id the backend last announced, or ``None``
    #: before the first successful probe.
    instance: Optional[str] = None
    probes: int = 0
    failures: int = 0
    restarts: int = 0
    holds: int = 0

    def snapshot(self) -> Dict[str, Any]:
        return dict(self.__dict__)


class HealthMonitor:
    """Periodic prober and the up/down/held state machine for backends.

    Parameters
    ----------
    probe:
        ``async probe(name) -> ProbeResult`` — must raise on failure
        and return a mapping containing at least ``instance``.
    interval:
        Seconds between probe rounds.
    failure_threshold:
        Consecutive probe failures before a backend is marked down, and
        consecutive request-path failures before it is held.
    on_down / on_restart:
        Synchronous transition callbacks.  ``on_restart(state, old)``
        fires when a backend announces a new instance id (``old`` is
        the previous id).
    clock:
        Monotonic seconds; the hold timers read it.
    """

    def __init__(
        self,
        probe: Callable[[str], Awaitable[ProbeResult]],
        *,
        interval: float = 0.5,
        failure_threshold: int = 3,
        on_down: Optional[Callable[[BackendState], None]] = None,
        on_restart: Optional[Callable[[BackendState, str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self._probe = probe
        self.interval = float(interval)
        self.failure_threshold = int(failure_threshold)
        self._on_down = on_down
        self._on_restart = on_restart
        self._clock = clock
        self._backends: Dict[str, BackendState] = {}
        self._task: Optional["asyncio.Task[None]"] = None

    # -- membership --------------------------------------------------------------

    def add(self, name: str) -> BackendState:
        """Track ``name`` (idempotent); starts down until a probe lands."""
        state = self._backends.get(name)
        if state is None:
            state = BackendState(name=name)
            self._backends[name] = state
        return state

    def get(self, name: str) -> Optional[BackendState]:
        return self._backends.get(name)

    def up_backends(self) -> Tuple[str, ...]:
        """Names currently considered up, sorted."""
        return tuple(sorted(
            name for name, state in self._backends.items() if state.up
        ))

    def avoid(self) -> Tuple[List[str], int]:
        """The backends routing must skip, and how many are only held.

        Down backends are always skipped.  Held ones are skipped only
        while that leaves at least one routable backend: with every up
        backend held, routing falls back to probe health alone instead
        of refusing requests that the backends might still answer.
        """
        now = self._clock()
        down: List[str] = []
        held: List[str] = []
        for name, state in self._backends.items():
            if not state.up:
                down.append(name)
            elif now < state.held_until:
                held.append(name)
        if held and len(down) + len(held) < len(self._backends):
            return down + held, len(held)
        return down, 0

    # -- probe results -----------------------------------------------------------

    def record_success(self, name: str,
                       result: ProbeResult) -> BackendState:
        """Apply one successful probe (a fresh connection's ``hello``
        counts as one too).  It never ends a hold."""
        state = self.add(name)
        state.probes += 1
        state.consecutive_failures = 0
        instance = result.get("instance")
        previous = state.instance
        restarted = (
            previous is not None and instance is not None
            and instance != previous
        )
        state.instance = instance if instance is not None else previous
        state.up = True
        # Restart fires after up: a rejoin under a new instance id is
        # both transitions, and invalidation must follow re-admission.
        if restarted:
            state.restarts += 1
            if self._on_restart is not None:
                self._on_restart(state, previous)
        return state

    def record_failure(self, name: str) -> BackendState:
        """Apply one failed probe."""
        state = self.add(name)
        state.probes += 1
        state.failures += 1
        state.consecutive_failures += 1
        if state.consecutive_failures >= self.failure_threshold:
            self._mark_down(state)
        return state

    # -- request-path results ----------------------------------------------------

    def record_request_success(self, name: str) -> None:
        """A routed request succeeded: the request streak restarts."""
        self.add(name).request_failures = 0

    def record_request_failure(self, name: str) -> bool:
        """A routed request failed on transport; returns whether this
        failure started a hold.

        The backend is marked down on the spot — a connection that died
        under a real request is not a maybe.  Failures while a hold
        runs do not count: they cannot stack holds.
        """
        state = self.add(name)
        state.failures += 1
        self._mark_down(state)
        now = self._clock()
        if now < state.held_until:
            return False
        state.request_failures += 1
        if state.request_failures < self.failure_threshold:
            return False
        if state.holds and now - state.held_until <= FLAP_WINDOW_SECONDS:
            state.hold = min(MAX_HOLD_SECONDS, state.hold * 2.0)
        else:
            state.hold = HOLD_SECONDS
        state.held_until = now + state.hold
        state.holds += 1
        return True

    def _mark_down(self, state: BackendState) -> None:
        if state.up:
            state.up = False
            if self._on_down is not None:
                self._on_down(state)

    # -- background loop ---------------------------------------------------------

    async def probe_once(self) -> None:
        """One probe round over every tracked backend, concurrently."""
        names = list(self._backends)

        async def _probe(name: str) -> None:
            try:
                result = await self._probe(name)
            except Exception:  # noqa: BLE001 - any failure is a failed probe
                self.record_failure(name)
            else:
                self.record_success(name, result or {})

        if names:
            await asyncio.gather(*(_probe(name) for name in names))

    def start(self) -> None:
        """Start the periodic probe loop on the running event loop."""
        if self._task is None or self._task.done():
            self._task = asyncio.ensure_future(self._run())

    async def _run(self) -> None:
        while True:
            await self.probe_once()
            await asyncio.sleep(self.interval)

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def stats(self) -> Dict[str, Any]:
        now = self._clock()
        return {
            "interval": self.interval,
            "failure_threshold": self.failure_threshold,
            "backends": {
                name: dict(state.snapshot(), held=now < state.held_until)
                for name, state in self._backends.items()
            },
        }
