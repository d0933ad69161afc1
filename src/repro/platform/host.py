"""Hosts (agent platforms / places).

A host executes agent sessions, offers services and system calls,
maintains mailboxes for partner communication, and — for the protection
framework — exposes the reference data of past sessions through the
accessor methods of the paper's Figure 5 (``getInitialState``,
``getResultingState``, ``getInput``, ``getExecutionLog``,
``getResource``).

All signing and verification a host performs is funnelled through
:meth:`Host.sign` / :meth:`Host.verify` so the benchmark harness can
attribute the cost to the "sign & verify" column of Tables 1 and 2.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.agents.agent import AgentCodeRegistry, MobileAgent, default_registry
from repro.agents.context import NullMetrics, OutwardAction
from repro.agents.itinerary import Itinerary
from repro.agents.messaging import MessageBoard
from repro.agents.state import AgentState
from repro.crypto.keys import Identity, KeyStore
from repro.crypto.signing import (
    RecoverableEnvelope,
    SignedEnvelope,
    SignedStatement,
    Signer,
)
from repro.exceptions import ProtocolError
from repro.platform.resources import ResourceCatalog, SystemFacilities
from repro.platform.session import (
    ExecutionSession,
    SessionEnvironment,
    SessionRecord,
)

__all__ = ["Host"]


class Host:
    """An agent platform: executes sessions and serves reference data.

    Parameters
    ----------
    name:
        Globally unique host name (also its network address).
    keystore:
        Shared public-key directory.  The host registers its own public
        key on construction.
    identity:
        The host's signing identity; generated deterministically from
        the name if omitted.
    trusted:
        Whether the agent owner considers this host trusted.  Trusted
        hosts are, by definition, reference hosts; the example protocol
        skips checking their sessions.
    code_registry:
        Registry resolving agent code identities; defaults to the
        process-wide registry.
    metrics:
        Optional timing collector (benchmark harness).
    seed:
        Seed for the host's system random facility.
    """

    def __init__(
        self,
        name: str,
        keystore: Optional[KeyStore] = None,
        identity: Optional[Identity] = None,
        trusted: bool = False,
        code_registry: Optional[AgentCodeRegistry] = None,
        metrics: Optional[Any] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.name = name
        self.trusted = trusted
        self.keystore = keystore if keystore is not None else KeyStore()
        self.identity = identity or Identity.generate(name)
        self.keystore.register_identity(self.identity)
        self.signer = Signer(self.identity, self.keystore)
        self.code_registry = code_registry or default_registry
        self.metrics = metrics if metrics is not None else NullMetrics()

        self.resources = ResourceCatalog()
        self.message_board = MessageBoard()
        self.system = SystemFacilities(host_name=name, seed=seed)
        self._host_data: Dict[str, Any] = {}
        self._sessions: List[SessionRecord] = []
        self._performed_actions: List[OutwardAction] = []

    # -- configuration ---------------------------------------------------------

    def add_service(self, service) -> None:
        """Offer a new service to visiting agents."""
        self.resources.add(service)

    def set_host_data(self, key: str, value: Any) -> None:
        """Expose a data element to agents via ``context.get_input``."""
        self._host_data[key] = value

    # -- execution ---------------------------------------------------------------

    def execute_agent(
        self,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        raise_on_error: bool = False,
    ) -> SessionRecord:
        """Run one execution session of ``agent`` on this host."""
        environment = self._build_environment()
        session = ExecutionSession(self.name, environment, metrics=self.metrics)
        record = session.execute(
            agent,
            hop_index=hop_index,
            is_final_hop=itinerary.is_last_hop(hop_index),
            output_handler=self.perform_action,
            resources_snapshot=self.resources.snapshot(),
            raise_on_error=raise_on_error,
        )
        self._sessions.append(record)
        return record

    def _build_environment(self) -> SessionEnvironment:
        return SessionEnvironment(
            host_name=self.name,
            resources=self.resources,
            message_board=self.message_board,
            system=self.system,
            host_data=self._host_data,
        )

    def perform_action(self, action: OutwardAction) -> Dict[str, Any]:
        """Carry out an outward action requested by an agent.

        The simulation acknowledges actions rather than simulating their
        remote effect; the acknowledgement is deterministic so it can be
        part of reference data if an agent stores it.
        """
        self._performed_actions.append(action)
        return {"status": "accepted", "sequence": action.sequence, "host": self.name}

    # -- session history & framework accessors (Fig. 5) ---------------------------

    @property
    def sessions(self) -> Tuple[SessionRecord, ...]:
        """All sessions executed on this host, oldest first."""
        return tuple(self._sessions)

    @property
    def performed_actions(self) -> Tuple[OutwardAction, ...]:
        """All outward actions this host performed for agents."""
        return tuple(self._performed_actions)

    @property
    def last_session(self) -> SessionRecord:
        """The most recent session record.

        Raises
        ------
        ProtocolError
            If no session has been executed yet.
        """
        if not self._sessions:
            raise ProtocolError("host %r has not executed any session" % self.name)
        return self._sessions[-1]

    def session_for(self, agent_id: str) -> SessionRecord:
        """The most recent session of a specific agent on this host."""
        for record in reversed(self._sessions):
            if record.agent_id == agent_id:
                return record
        raise ProtocolError(
            "host %r has no recorded session for agent %r" % (self.name, agent_id)
        )

    def get_initial_state(self, agent_id: Optional[str] = None) -> AgentState:
        """Framework accessor: initial state of the (last) session."""
        record = self.session_for(agent_id) if agent_id else self.last_session
        return record.initial_state

    def get_resulting_state(self, agent_id: Optional[str] = None) -> AgentState:
        """Framework accessor: resulting state of the (last) session."""
        record = self.session_for(agent_id) if agent_id else self.last_session
        return record.resulting_state

    def get_input(self, agent_id: Optional[str] = None):
        """Framework accessor: input log of the (last) session."""
        record = self.session_for(agent_id) if agent_id else self.last_session
        return record.input_log

    def get_execution_log(self, agent_id: Optional[str] = None):
        """Framework accessor: execution log of the (last) session."""
        record = self.session_for(agent_id) if agent_id else self.last_session
        return record.execution_log

    def get_resource(self, agent_id: Optional[str] = None) -> Dict[str, Any]:
        """Framework accessor: replicable resource snapshot of the session."""
        record = self.session_for(agent_id) if agent_id else self.last_session
        return record.resources_snapshot

    # -- signing helpers (timed) -----------------------------------------------------
    #
    # Timing categories follow the paper's column definitions: the
    # "sign & verify" column of Tables 1/2 covers the *complete message*
    # signature computed when the whole agent is signed/verified at a
    # migration.  Per-state signatures produced by protection protocols
    # are charged to "protocol_crypto", which the tables fold into the
    # "remainder" column (by subtraction), exactly as the paper does
    # ("in the remainder column the protocol has to compare, sign and
    # verify single states").

    def sign(self, payload: Any, category: str = "protocol_crypto",
             message: Optional[bytes] = None) -> SignedEnvelope:
        """Sign a payload; time is charged to the given timing category.

        ``message`` optionally carries the precomputed canonical
        encoding of ``payload`` so hot paths encode each transfer once.
        """
        with self.metrics.measure(category):
            return self.signer.sign(payload, message=message)

    def sign_statement(self, payload: Any,
                       category: str = "protocol_crypto") -> SignedStatement:
        """Sign a payload into a statement that keeps its signed bytes."""
        with self.metrics.measure(category):
            return self.signer.sign_statement(payload)

    def sign_recoverable(self, payload: Any,
                         category: str = "protocol_crypto",
                         message: Optional[bytes] = None) -> RecoverableEnvelope:
        """Sign a payload keeping the nonce commitment (batch path)."""
        with self.metrics.measure(category):
            return self.signer.sign_recoverable(payload, message=message)

    def verify(self, envelope: Union[SignedEnvelope, SignedStatement],
               expected_signer: Optional[str] = None,
               category: str = "protocol_crypto",
               message: Optional[bytes] = None) -> bool:
        """Verify an envelope or statement; time goes to ``category``."""
        with self.metrics.measure(category):
            return self.signer.verify(
                envelope, expected_signer=expected_signer, message=message
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Host %s trusted=%s sessions=%d>" % (
            self.name, self.trusted, len(self._sessions),
        )
