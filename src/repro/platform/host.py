"""Hosts (agent platforms / places).

A host executes agent sessions, offers services and system calls,
maintains mailboxes for partner communication, and — for the protection
framework — returns a :class:`~repro.platform.session.SessionRecord` per
session, which carries the reference data of the paper's Figure 5
(initial state, resulting state, input, execution log, resources).

All signing and verification a host performs is funnelled through
:meth:`Host.sign` / :meth:`Host.verify` so the benchmark harness can
attribute the cost to the "sign & verify" column of Tables 1 and 2.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.agents.agent import AgentCodeRegistry, MobileAgent, default_registry
from repro.agents.context import NullMetrics, OutwardAction
from repro.agents.itinerary import Itinerary
from repro.agents.messaging import MessageBoard
from repro.crypto.keys import Identity, KeyStore
from repro.crypto.signing import (
    RecoverableEnvelope,
    SignedEnvelope,
    SignedStatement,
    Signer,
)
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
        return {"status": "accepted", "sequence": action.sequence, "host": self.name}

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
        return "<Host %s trusted=%s>" % (self.name, self.trusted)
