"""Itineraries: the route an agent travels.

Section 3.5 of the paper notes that when checking happens only after the
task, "the route, i.e. the list of visited hosts has to be stored
somewhere in a secure way", either by dynamically recording stations
(appending signed entries to the agent data), by reporting every
migration to the owner, or by an a-priori signed itinerary.  All three
options are modelled here:

* :class:`Itinerary` — the planned route, optionally fixed a priori,
* :class:`RouteRecord` — the dynamically recorded list of visited hosts
  with per-hop signatures,
* owner notification is handled by the platform layer which can forward
  route entries to the home host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.keys import KeyStore
from repro.crypto.signing import SignedEnvelope, Signer
from repro.exceptions import ItineraryError

__all__ = ["Itinerary", "RouteRecord", "RouteEntry"]


@dataclass
class Itinerary:
    """The planned sequence of hosts an agent will visit.

    Attributes
    ----------
    hosts:
        Host names in visiting order.  The first entry is the home host
        (where the agent is created), the last entry is where the task
        finishes (usually the home host again).
    fixed:
        Whether the route is an a-priori itinerary that must not be
        altered (if ``True``, hosts may verify the agent arrived from
        and departs to the expected neighbours).
    """

    hosts: List[str]
    fixed: bool = False

    def __post_init__(self) -> None:
        if not self.hosts:
            raise ItineraryError("an itinerary needs at least one host")

    def __len__(self) -> int:
        return len(self.hosts)

    def host_at(self, hop_index: int) -> str:
        """Host name for a given hop index.

        Raises
        ------
        ItineraryError
            If the hop index is outside the planned route.
        """
        if not 0 <= hop_index < len(self.hosts):
            raise ItineraryError(
                "hop index %d outside itinerary of length %d"
                % (hop_index, len(self.hosts))
            )
        return self.hosts[hop_index]

    def previous_host(self, hop_index: int) -> Optional[str]:
        """Host preceding ``hop_index``, or ``None`` at the first hop."""
        if hop_index > 0:
            return self.hosts[hop_index - 1]
        return None

    def is_last_hop(self, hop_index: int) -> bool:
        """Whether ``hop_index`` is the final hop of the route."""
        return hop_index == len(self.hosts) - 1

    @property
    def home(self) -> str:
        """The agent's home host (first entry of the route)."""
        return self.hosts[0]

    @property
    def final(self) -> str:
        """The host where the task finishes (last entry of the route)."""
        return self.hosts[-1]

    def to_canonical(self) -> Dict[str, Any]:
        return {"hosts": list(self.hosts), "fixed": self.fixed}

    @classmethod
    def from_canonical(cls, data: Dict[str, Any]) -> "Itinerary":
        return cls(hosts=list(data["hosts"]), fixed=bool(data.get("fixed", False)))


@dataclass(frozen=True)
class RouteEntry:
    """One visited station, as recorded in the agent's route record."""

    hop_index: int
    host: str
    arrived_from: Optional[str]

    def to_canonical(self) -> Dict[str, Any]:
        return {
            "hop_index": self.hop_index,
            "host": self.host,
            "arrived_from": self.arrived_from,
        }


class RouteRecord:
    """Dynamically recorded, per-hop signed list of visited hosts.

    Each host appends a signed :class:`RouteEntry` when it starts an
    execution session.  The record travels with the agent, so the owner
    (or the final host) can later reconstruct which hosts to ask for
    reference data, and a host cannot silently remove itself from the
    journey without invalidating the chain of hop indices.
    """

    def __init__(self, entries: Optional[List[Dict[str, Any]]] = None) -> None:
        # Entries are stored in their canonical (signed-envelope) form so
        # the record can travel inside the agent's data state.
        self._entries: List[Dict[str, Any]] = list(entries or [])

    def append(self, signer: Signer, entry: RouteEntry) -> None:
        """Append a new entry signed by the visiting host."""
        envelope = signer.sign(entry.to_canonical())
        self._entries.append(envelope.to_canonical())

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Tuple[Dict[str, Any], ...]:
        """Raw signed entries, in travel order."""
        return tuple(self._entries)

    def hosts(self) -> Tuple[str, ...]:
        """The claimed sequence of visited host names."""
        return tuple(entry["payload"]["host"] for entry in self._entries)

    def verify(self, keystore: KeyStore) -> bool:
        """Verify every entry's signature and the hop-index chain.

        The chain is valid when hop indices are consecutive starting at
        zero, each entry is signed by the host it names, and each
        entry's ``arrived_from`` matches the previous entry's host.
        """
        previous_host: Optional[str] = None
        for expected_index, raw in enumerate(self._entries):
            payload = raw.get("payload", {})
            signer_name = raw.get("signer")
            if payload.get("hop_index") != expected_index:
                return False
            if payload.get("host") != signer_name:
                return False
            if expected_index > 0 and payload.get("arrived_from") != previous_host:
                return False
            from repro.crypto.dsa import DSASignature

            envelope = SignedEnvelope(
                payload=payload,
                signer=signer_name,
                signature=DSASignature.from_canonical(raw["signature"]),
            )
            if not envelope.verify(keystore):
                return False
            previous_host = payload.get("host")
        return True

    def to_canonical(self) -> List[Dict[str, Any]]:
        return list(self._entries)

    @classmethod
    def from_canonical(cls, data: List[Dict[str, Any]]) -> "RouteRecord":
        return cls(list(data))
