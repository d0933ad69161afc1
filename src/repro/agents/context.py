"""Execution contexts: how agent code touches the outside world.

The reference-states idea only works if *everything* external to the
agent flows through a recordable interface.  Agent code therefore never
calls ``random``, reads the clock, queries a database, or talks to a
communication partner directly; it goes through the
:class:`ExecutionContext` handed to :meth:`repro.agents.agent.MobileAgent.run`.

The same context class serves both live execution (inputs come from the
host environment and are recorded) and re-execution (inputs are replayed
from the recorded log and outward actions are suppressed), differing
only in the :class:`~repro.agents.input.InputSource` and the output
handler that are plugged in.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.agents.execution_log import ExecutionLog
from repro.agents.input import (
    INPUT_KIND_HOST_DATA,
    INPUT_KIND_MESSAGE,
    INPUT_KIND_SERVICE,
    INPUT_KIND_SYSTEM,
    InputSource,
)

__all__ = ["NullMetrics", "OutwardAction", "ExecutionContext"]


#: ``nullcontext`` keeps no state, so one instance serves every call.
_NO_MEASUREMENT = nullcontext()


class NullMetrics:
    """No-op stand-in for a timing collector.

    The benchmark harness substitutes a real
    :class:`repro.bench.metrics.TimingCollector`; everywhere else this
    null object keeps agent code free of ``if metrics is not None``
    checks.
    """

    def measure(self, category: str) -> nullcontext:
        """Context manager that measures nothing (one shared instance)."""
        return _NO_MEASUREMENT

    def add(self, category: str, seconds: float) -> None:
        """Discard a manually reported duration."""


@dataclass(frozen=True)
class OutwardAction:
    """An outward-facing action the agent asked the host to perform.

    Examples: sending a message to a communication partner, committing
    to a purchase.  During re-execution these are recorded but *not*
    performed ("output actions can be suppressed as they are not needed
    for checking the execution", Section 5).
    """

    sequence: int
    kind: str
    payload: Any

    def to_canonical(self) -> Dict[str, Any]:
        return {"sequence": self.sequence, "kind": self.kind, "payload": self.payload}


class ExecutionContext:
    """The agent's window onto its current host during one session.

    Parameters
    ----------
    host_name:
        Name of the executing host.
    hop_index:
        Zero-based hop number along the itinerary.
    is_final_hop:
        Whether this session is the last one of the agent's task.
    input_source:
        Where input values come from (live environment or replay).
    execution_log:
        Trace log that input-dependent assignments are appended to.
    output_handler:
        Callable invoked for outward actions during live execution;
        ``None`` suppresses actions (re-execution mode).
    metrics:
        Timing collector used by instrumented agents (benchmarks).
    """

    def __init__(
        self,
        host_name: str,
        hop_index: int,
        is_final_hop: bool,
        input_source: InputSource,
        execution_log: Optional[ExecutionLog] = None,
        output_handler: Optional[Callable[[OutwardAction], Any]] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.host_name = host_name
        self.hop_index = hop_index
        self.is_final_hop = is_final_hop
        self.metrics = metrics if metrics is not None else NullMetrics()
        self._input_source = input_source
        self._execution_log = execution_log if execution_log is not None else ExecutionLog()
        self._output_handler = output_handler
        self._actions: List[OutwardAction] = []

    # -- input ---------------------------------------------------------------

    def get_input(self, key: str, source: Optional[str] = None) -> Any:
        """Receive a data element handed to the agent by the host."""
        return self._fetch(INPUT_KIND_HOST_DATA, source or self.host_name, key)

    def query_service(self, service: str, request: str) -> Any:
        """Query a host-provided service (database, quote service, ...)."""
        return self._fetch(INPUT_KIND_SERVICE, service, request)

    def receive_message(self, mailbox: str) -> Any:
        """Receive the next message from a communication partner."""
        return self._fetch(INPUT_KIND_MESSAGE, mailbox, mailbox)

    def system_call(self, name: str) -> Any:
        """Issue a system call (``random``, ``time``, ...)."""
        return self._fetch(INPUT_KIND_SYSTEM, self.host_name, name)

    def random(self) -> float:
        """Convenience wrapper for the ``random`` system call."""
        return self.system_call("random")

    def _fetch(self, kind: str, source: str, key: str) -> Any:
        value = self._input_source.fetch(kind, source, key)
        # Every input-dependent assignment lands in the execution log so
        # the trace format of Section 3.3 is available as reference data.
        self._execution_log.append(statement=None, assignments={key: value})
        return value

    # -- output --------------------------------------------------------------

    def act(self, kind: str, payload: Any) -> Any:
        """Perform an outward action (message send, purchase, ...).

        Returns whatever the host's action handler returns during live
        execution, or ``None`` during re-execution where outward actions
        are suppressed.
        """
        action = OutwardAction(sequence=len(self._actions), kind=kind, payload=payload)
        self._actions.append(action)
        if self._output_handler is not None:
            return self._output_handler(action)
        return None

    # -- tracing -------------------------------------------------------------

    def trace(self, statement: Optional[str] = None, **assignments: Any) -> None:
        """Explicitly append a trace entry (manual instrumentation)."""
        self._execution_log.append(statement=statement, assignments=assignments)

    # -- introspection ---------------------------------------------------------

    @property
    def execution_log(self) -> ExecutionLog:
        """Trace entries recorded so far in this session."""
        return self._execution_log

    @property
    def actions(self) -> Tuple[OutwardAction, ...]:
        """Outward actions requested so far in this session."""
        return tuple(self._actions)
