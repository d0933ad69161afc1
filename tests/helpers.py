"""Shared test helpers: small agents, scenario shortcuts, a settle hold,
and an eagerly settling fleet engine.

The agent classes defined here are registered in the process-wide code
registry exactly once (this module is imported by ``tests/conftest.py``),
so every test that needs a deterministic, quick-to-execute agent can use
them without re-registering.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

from repro.agents.agent import MobileAgent, register_agent
from repro.agents.context import ExecutionContext
from repro.core.requesters import (
    ExecutionLogRequester,
    InitialStateRequester,
    InputRequester,
    ResultingStateRequester,
)
from repro.crypto.batch import BatchedTransferVerifier
from repro.sim import FleetEngine


@register_agent
class CounterAgent(MobileAgent):
    """Adds one host-provided number to a running counter per session.

    The agent asks the host's ``numbers`` service for the value under the
    key ``increment`` and adds it to ``counter``.  Deterministic given
    the recorded input, so it re-executes exactly.
    """

    code_name = "test-counter-agent"

    def __init__(self, initial_data: Optional[Dict[str, Any]] = None,
                 owner: str = "owner", agent_id: Optional[str] = None) -> None:
        super().__init__(initial_data, owner=owner, agent_id=agent_id)
        self.data.set_default("counter", 0)
        self.data.set_default("history", [])

    def run(self, context: ExecutionContext) -> None:
        increment = context.query_service("numbers", "increment")
        value = int(increment) if increment is not None else 0
        self.data["counter"] = self.data["counter"] + value
        history = list(self.data["history"])
        history.append({"host": context.host_name, "value": value})
        self.data["history"] = history
        self.execution["finished"] = context.is_final_hop


@register_agent
class ProtectedCounterAgent(CounterAgent, InitialStateRequester,
                            ResultingStateRequester, InputRequester,
                            ExecutionLogRequester):
    """Counter agent declaring every requester interface."""

    code_name = "test-protected-counter-agent"


@register_agent
class RandomConsumerAgent(MobileAgent):
    """Consumes a random number and the host time (system-call inputs)."""

    code_name = "test-random-consumer-agent"

    def __init__(self, initial_data: Optional[Dict[str, Any]] = None,
                 owner: str = "owner", agent_id: Optional[str] = None) -> None:
        super().__init__(initial_data, owner=owner, agent_id=agent_id)
        self.data.set_default("randoms", [])
        self.data.set_default("times", [])

    def run(self, context: ExecutionContext) -> None:
        randoms = list(self.data["randoms"])
        randoms.append(context.random())
        self.data["randoms"] = randoms
        times = list(self.data["times"])
        times.append(context.current_time())
        self.data["times"] = times
        self.execution["finished"] = context.is_final_hop


@register_agent
class ActingAgent(MobileAgent):
    """Performs one outward action per session (used for replay tests)."""

    code_name = "test-acting-agent"

    def __init__(self, initial_data: Optional[Dict[str, Any]] = None,
                 owner: str = "owner", agent_id: Optional[str] = None) -> None:
        super().__init__(initial_data, owner=owner, agent_id=agent_id)
        self.data.set_default("acknowledgements", 0)

    def run(self, context: ExecutionContext) -> None:
        ack = context.act("notify", {"host": context.host_name})
        if ack is not None:
            self.data["acknowledgements"] = self.data["acknowledgements"] + 1
        self.execution["finished"] = context.is_final_hop


@register_agent
class FaultyAgent(MobileAgent):
    """An agent whose run method raises (error-path tests)."""

    code_name = "test-faulty-agent"

    def run(self, context: ExecutionContext) -> None:
        raise RuntimeError("this agent always fails")


def make_number_service(value: int = 1):
    """A ``numbers`` service handing out a fixed increment."""
    from repro.platform.resources import StaticDataService

    return StaticDataService("numbers", {"increment": value})


def hold_settle(service: Any) -> Tuple[asyncio.Event, asyncio.Event]:
    """Hold a verifier's verify items until released, so they stay in
    flight for as long as a test needs.

    Returns ``(entered, release)``: ``entered`` is set once the first
    item is held; setting ``release`` lets every held item settle.
    Call it on the running event loop.
    """
    entered = asyncio.Event()
    release = asyncio.Event()
    verify_item = service._verify_item

    async def held(item):
        entered.set()
        await release.wait()
        return await verify_item(item)

    service._verify_item = held
    return entered, release


class EagerTransferVerifier(BatchedTransferVerifier):
    """Settles each transfer as it is queued and returns its verdict.

    Every check is a window of one, which
    :func:`~repro.crypto.batch.verify_window` settles through
    ``verify_recoverable`` before the hop goes on, as the eager
    sign-and-verify pair of
    :class:`~repro.platform.registry.JourneyRunner` does.
    """

    def verify_transfer(self, *args: Any, **kwargs: Any) -> bool:
        failed = self.failed
        super().verify_transfer(*args, **kwargs)
        self.flush()
        return self.failed == failed


class EagerFleetEngine(FleetEngine):
    """The fleet engine with :class:`EagerTransferVerifier`, the oracle
    that batched settling changes cost and never outcomes."""

    def _build_transfer_verifier(self) -> EagerTransferVerifier:
        return EagerTransferVerifier(self._keystore)
