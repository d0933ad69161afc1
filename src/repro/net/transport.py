"""Agent transfer over the simulated network.

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

from repro.crypto.canonical import canonical_decode, canonical_encode
from repro.exceptions import SerializationError, TransportError
from repro.net.network import Message, Network

__all__ = ["AgentTransfer", "TransferCodec", "AgentTransport", "MSG_KIND_AGENT"]

#: Network message kind used for agent migrations.
MSG_KIND_AGENT = "agent-transfer"
#: Network message kind used for protocol control messages (commitments,
#: trace requests, verdict notifications, ...).
MSG_KIND_CONTROL = "control"


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


class TransferCodec:
    """Serializes transfers to bytes and back using the canonical codec."""

    def encode(self, transfer: AgentTransfer) -> bytes:
        """Serialize a transfer to wire bytes."""
        return canonical_encode(transfer.to_canonical())

    def decode(self, data: bytes) -> AgentTransfer:
        """Deserialize wire bytes back into a transfer.

        Raises
        ------
        TransportError
            If the bytes do not decode into a well-formed transfer.
        """
        try:
            decoded = canonical_decode(data)
        except SerializationError as exc:
            raise TransportError("cannot decode agent transfer bytes") from exc
        if not isinstance(decoded, dict):
            raise TransportError("agent transfer payload is not a dictionary")
        return AgentTransfer.from_canonical(decoded)


class AgentTransport:
    """Endpoint adapter: ships :class:`AgentTransfer` objects over a network.

    Each host owns one :class:`AgentTransport`; incoming transfers are
    handed to the ``on_transfer`` callback the host registered, control
    messages to ``on_control``.
    """

    def __init__(self, name: str, network: Network) -> None:
        self.name = name
        self._network = network
        self._codec = TransferCodec()
        self._on_transfer = None
        self._on_control = None
        network.register(name, self._handle_message)

    def set_handlers(self, on_transfer, on_control=None) -> None:
        """Install the callbacks invoked on incoming traffic."""
        self._on_transfer = on_transfer
        self._on_control = on_control

    def send_agent(self, destination: str, transfer: AgentTransfer) -> int:
        """Send an agent transfer; returns the payload size in bytes."""
        payload = self._codec.encode(transfer)
        self._network.send(
            Message(
                sender=self.name,
                recipient=destination,
                kind=MSG_KIND_AGENT,
                payload=payload,
            )
        )
        return len(payload)

    def send_control(self, destination: str, payload: Any) -> int:
        """Send an arbitrary canonical control payload."""
        encoded = canonical_encode(payload)
        self._network.send(
            Message(
                sender=self.name,
                recipient=destination,
                kind=MSG_KIND_CONTROL,
                payload=encoded,
            )
        )
        return len(encoded)

    def _handle_message(self, message: Message) -> None:
        if message.kind == MSG_KIND_AGENT:
            if self._on_transfer is None:
                raise TransportError(
                    "endpoint %r received an agent transfer but has no handler"
                    % self.name
                )
            transfer = self._codec.decode(message.payload)
            self._on_transfer(message.sender, transfer)
        elif message.kind == MSG_KIND_CONTROL:
            if self._on_control is not None:
                self._on_control(message.sender, canonical_decode(message.payload))
        else:  # pragma: no cover - defensive
            raise TransportError("unknown message kind %r" % message.kind)
