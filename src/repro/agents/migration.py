"""Weak migration: packing agents for transfer and unpacking them again.

Migration in the weak model means: capture the agent's variable parts
(data + manually encoded execution state), ship them together with the
agent's code identity, and call the start procedure (``run``) on the
next host.  The :class:`MigrationEngine` performs the pack/unpack steps.

A packed transfer carries the captured :class:`AgentState` object
itself, not its canonical dictionary.  Encoding splices the state's
memoized bytes in, and an in-process hand-off
(:meth:`repro.platform.registry.AgentSystem._migrate`) passes the
receiver a :func:`~repro.crypto.canonical.canonical_copy` of the
payload, which shares that same immutable snapshot: the state is copied
once, on capture, and restored once, on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.agents.agent import AgentCodeRegistry, MobileAgent
from repro.agents.itinerary import Itinerary
from repro.agents.state import AgentState
from repro.exceptions import MigrationError
from repro.net.transport import AgentTransfer

__all__ = ["MigrationEngine", "UnpackedAgent"]


@dataclass
class UnpackedAgent:
    """Everything a host reconstructs from an incoming transfer."""

    agent: MobileAgent
    itinerary: Itinerary
    hop_index: int
    protocol_data: Optional[Dict[str, Any]]


class MigrationEngine:
    """Packs agents into transfers and restores them on arrival.

    Parameters
    ----------
    registry:
        The code registry used to resolve code identities back into
        agent classes when unpacking.
    """

    def __init__(self, registry: AgentCodeRegistry) -> None:
        self._registry = registry

    @property
    def registry(self) -> AgentCodeRegistry:
        """The code registry this engine resolves agent classes from."""
        return self._registry

    def pack(
        self,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        protocol_data: Optional[Dict[str, Any]] = None,
    ) -> AgentTransfer:
        """Build the transfer payload for migrating ``agent``.

        The agent's state is snapshotted at pack time, so later mutation
        of the live agent object does not alter what is already "on the
        wire".  The transfer holds that :class:`AgentState` snapshot; it
        encodes exactly as its canonical dictionary would.
        """
        return AgentTransfer(
            agent_class=agent.get_code_name(),
            agent_id=agent.agent_id,
            owner=agent.owner,
            state=agent.capture_state(),
            protocol_data=protocol_data,
            itinerary=itinerary.to_canonical(),
            hop_index=hop_index,
        )

    def unpack(self, transfer: AgentTransfer) -> UnpackedAgent:
        """Reconstruct a live agent from a transfer payload.

        ``transfer.state`` may be a canonical dictionary (decoded from
        the network) or the :class:`AgentState` a local :meth:`pack`
        put there; either way the agent is restored from a copy.

        Raises
        ------
        MigrationError
            If the code identity is unknown or the state snapshot is
            malformed.
        """
        if transfer.agent_class not in self._registry:
            raise MigrationError(
                "cannot unpack agent: code %r is not registered at this host"
                % transfer.agent_class
            )
        try:
            state = AgentState.from_canonical(transfer.state)
        except Exception as exc:
            raise MigrationError("agent transfer carries a malformed state") from exc
        agent = self._registry.instantiate(
            transfer.agent_class,
            state,
            owner=transfer.owner,
            agent_id=transfer.agent_id,
        )
        try:
            itinerary = Itinerary.from_canonical(transfer.itinerary)
        except Exception as exc:
            raise MigrationError("agent transfer carries a malformed itinerary") from exc
        return UnpackedAgent(
            agent=agent,
            itinerary=itinerary,
            hop_index=transfer.hop_index,
            protocol_data=transfer.protocol_data,
        )
