"""Execution sessions: one agent visit at one host.

An *execution session* (Section 2.1) starts when a host takes the
initial agent state and runs the agent code with some input, and ends
when the agent migrates or dies.  The session captures everything the
checking framework may later need as reference data:

* the initial state,
* the resulting state,
* the input log,
* the execution log (trace),
* the outward actions the agent performed,
* wall-clock timing of the session.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.agents.agent import MobileAgent
from repro.agents.context import ExecutionContext, OutwardAction
from repro.agents.execution_log import ExecutionLog
from repro.agents.input import (
    EnvironmentInputSource,
    INPUT_KIND_HOST_DATA,
    INPUT_KIND_MESSAGE,
    INPUT_KIND_SERVICE,
    INPUT_KIND_SYSTEM,
    InputLog,
)
from repro.agents.messaging import MessageBoard
from repro.agents.state import AgentState
from repro.exceptions import ConfigurationError, ExecutionError
from repro.platform.resources import ResourceCatalog, SystemFacilities

__all__ = ["SessionEnvironment", "SessionRecord", "ExecutionSession"]


class SessionEnvironment:
    """Adapts a host's facilities to the input-source interface.

    The live :class:`~repro.agents.input.EnvironmentInputSource` calls
    :meth:`provide` whenever the agent asks for input; the environment
    routes the request to the right host facility and returns the value,
    which the input source then records.
    """

    def __init__(
        self,
        host_name: str,
        resources: ResourceCatalog,
        message_board: MessageBoard,
        system: SystemFacilities,
        host_data: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._host_name = host_name
        self._resources = resources
        self._message_board = message_board
        self._system = system
        self._host_data = dict(host_data or {})

    def provide(self, kind: str, source: str, key: str) -> Any:
        """Produce the input value for one request."""
        if kind == INPUT_KIND_SERVICE:
            return self._resources.query(source, key)
        if kind == INPUT_KIND_MESSAGE:
            return self._message_board.take(source).to_canonical()
        if kind == INPUT_KIND_SYSTEM:
            return self._system.call(key)
        if kind == INPUT_KIND_HOST_DATA:
            return self._host_data.get(key)
        raise ConfigurationError("unknown input kind %r" % kind)

    def set_host_data(self, key: str, value: Any) -> None:
        """Expose a data element to agents via ``context.get_input``."""
        self._host_data[key] = value


@dataclass
class SessionRecord:
    """Everything recorded about one execution session.

    This is the host-side raw material from which the checking framework
    assembles the reference data the agent requested.
    """

    host: str
    hop_index: int
    agent_id: str
    code_name: str
    owner: str
    initial_state: AgentState
    resulting_state: AgentState
    input_log: InputLog
    execution_log: ExecutionLog
    actions: Tuple[OutwardAction, ...]
    resources_snapshot: Dict[str, Any] = field(default_factory=dict)
    is_final_hop: bool = False
    started_at: float = 0.0
    ended_at: float = 0.0
    error: Optional[str] = None

    def to_canonical(self) -> Dict[str, Any]:
        """Canonical form (used when a session record must be signed)."""
        return {
            "host": self.host,
            "hop_index": self.hop_index,
            "agent_id": self.agent_id,
            "code_name": self.code_name,
            "owner": self.owner,
            "is_final_hop": self.is_final_hop,
            "initial_state": self.initial_state.to_canonical(),
            "resulting_state": self.resulting_state.to_canonical(),
            "input_log": self.input_log.to_canonical(),
            "execution_log": self.execution_log.to_canonical(),
            "actions": [action.to_canonical() for action in self.actions],
            "error": self.error,
        }


class ExecutionSession:
    """Runs one agent session on behalf of a host.

    Parameters
    ----------
    host_name:
        Name of the executing host (recorded in the session record).
    environment:
        The live input environment for this session.
    metrics:
        Optional timing collector passed through to the agent context.
    """

    def __init__(self, host_name: str, environment: SessionEnvironment,
                 metrics: Optional[Any] = None) -> None:
        self._host_name = host_name
        self._environment = environment
        self._metrics = metrics

    def execute(
        self,
        agent: MobileAgent,
        hop_index: int,
        is_final_hop: bool,
        output_handler=None,
        resources_snapshot: Optional[Dict[str, Any]] = None,
        raise_on_error: bool = False,
    ) -> SessionRecord:
        """Run ``agent.run`` once and capture the session record.

        The agent object is mutated in place (its data/execution state
        after the call is the resulting state); the record contains
        immutable snapshots of both initial and resulting states.
        """
        initial_state = agent.capture_state()
        input_source = EnvironmentInputSource(self._environment)
        context = ExecutionContext(
            host_name=self._host_name,
            hop_index=hop_index,
            is_final_hop=is_final_hop,
            input_source=input_source,
            output_handler=output_handler,
            metrics=self._metrics,
        )
        started = time.perf_counter()
        error: Optional[str] = None
        try:
            agent.run(context)
        except Exception as exc:  # noqa: BLE001 - agent code is user code
            error = "%s: %s" % (type(exc).__name__, exc)
            if raise_on_error:
                raise ExecutionError(error) from exc
        ended = time.perf_counter()

        return SessionRecord(
            host=self._host_name,
            hop_index=hop_index,
            agent_id=agent.agent_id,
            code_name=agent.get_code_name(),
            owner=agent.owner,
            initial_state=initial_state,
            resulting_state=agent.capture_state(),
            input_log=input_source.log,
            execution_log=context.execution_log,
            actions=context.actions,
            resources_snapshot=dict(resources_snapshot or {}),
            is_final_hop=is_final_hop,
            started_at=started,
            ended_at=ended,
            error=error,
        )
