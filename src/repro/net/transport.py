"""What crosses the wire when an agent migrates.

Weak migration ships three things to the next host: the agent's *code
identity* (which class to instantiate — the code itself is assumed to be
available or cacheable at the destination, as discussed in the paper's
Section 5.3), the agent's *data state*, and any *protocol data* the
protection mechanism appended to the agent.  The transfer payload is a
plain dictionary of canonical values so that exactly what is transported
is explicit and measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exceptions import TransportError

__all__ = ["AgentTransfer"]


@dataclass
class AgentTransfer:
    """Everything that crosses the wire when an agent migrates.

    Attributes
    ----------
    agent_class:
        Registered code identity of the agent (see
        :class:`repro.agents.agent.AgentCodeRegistry`).
    agent_id:
        Globally unique identifier of the agent instance.
    owner:
        Name of the agent's owner (home principal).
    state:
        The agent's combined data + execution state: an
        :class:`~repro.agents.state.AgentState` when packed locally, its
        canonical dictionary when decoded from the wire.
    protocol_data:
        Additional data appended by a protection mechanism (signed
        states, input logs, reference data).  ``None`` for plain agents.
    itinerary:
        The agent's route information, as a canonical dictionary.
    hop_index:
        Which hop of the itinerary this transfer corresponds to.
    """

    agent_class: str
    agent_id: str
    owner: str
    state: Any
    protocol_data: Optional[Dict[str, Any]]
    itinerary: Dict[str, Any]
    hop_index: int

    def to_canonical(self) -> dict:
        return {
            "agent_class": self.agent_class,
            "agent_id": self.agent_id,
            "owner": self.owner,
            "state": self.state,
            "protocol_data": self.protocol_data,
            "itinerary": self.itinerary,
            "hop_index": self.hop_index,
        }

    @classmethod
    def from_canonical(cls, data: dict) -> "AgentTransfer":
        try:
            return cls(
                agent_class=data["agent_class"],
                agent_id=data["agent_id"],
                owner=data["owner"],
                state=data["state"],
                protocol_data=data["protocol_data"],
                itinerary=data["itinerary"],
                hop_index=int(data["hop_index"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError("malformed agent transfer payload") from exc
