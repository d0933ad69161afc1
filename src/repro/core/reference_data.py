"""Reference data sets: what travels with the agent for checking.

Section 5 of the paper: "at the end of an execution session, we have the
needed data in a form that allows to check the execution ... all we have
to do is to include the data in the data part of the agent as this part
is transported automatically."

A :class:`ReferenceDataSet` is exactly that bundle for one execution
session, restricted to the kinds the agent (or the policy) requested.
It converts losslessly to and from canonical dictionaries so it can ride
inside the protocol payload of a migrating agent, and it knows how to
assemble itself from a host's :class:`~repro.platform.session.SessionRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Optional

from repro.agents.execution_log import ExecutionLog
from repro.agents.input import InputLog
from repro.agents.state import AgentState
from repro.core.attributes import ALL_REFERENCE_DATA, ReferenceDataKind
from repro.exceptions import CheckingError
from repro.platform.session import SessionRecord

__all__ = ["ReferenceDataSet"]


@dataclass
class ReferenceDataSet:
    """The reference data of one execution session.

    Fields that were not requested (and therefore not collected) are
    ``None``; checkers that need them report an inconclusive result
    rather than guessing.
    """

    session_host: str
    hop_index: int
    agent_id: str
    code_name: str
    owner: str
    initial_state: Optional[AgentState] = None
    resulting_state: Optional[AgentState] = None
    input_log: Optional[InputLog] = None
    execution_log: Optional[ExecutionLog] = None
    resources: Optional[Dict[str, Any]] = None
    #: Whether the recorded session was the final hop of the agent's task.
    #: Re-execution must replay the session under the same flag, because
    #: agents typically behave differently on their last hop (e.g. placing
    #: the order they have been comparing prices for).
    is_final_hop: bool = False

    # -- assembly ---------------------------------------------------------------

    @classmethod
    def from_session_record(
        cls,
        record: SessionRecord,
        kinds: Iterable[ReferenceDataKind] = ALL_REFERENCE_DATA,
    ) -> "ReferenceDataSet":
        """Collect the requested kinds of reference data from a record."""
        requested = frozenset(kinds)
        return cls(
            session_host=record.host,
            hop_index=record.hop_index,
            agent_id=record.agent_id,
            code_name=record.code_name,
            owner=record.owner,
            initial_state=(
                record.initial_state
                if ReferenceDataKind.INITIAL_STATE in requested else None
            ),
            resulting_state=(
                record.resulting_state
                if ReferenceDataKind.RESULTING_STATE in requested else None
            ),
            input_log=(
                record.input_log.copy()
                if ReferenceDataKind.INPUT in requested else None
            ),
            execution_log=(
                record.execution_log.copy()
                if ReferenceDataKind.EXECUTION_LOG in requested else None
            ),
            resources=(
                dict(record.resources_snapshot)
                if ReferenceDataKind.RESOURCES in requested else None
            ),
            is_final_hop=record.is_final_hop,
        )

    # -- introspection -------------------------------------------------------------

    def available_kinds(self) -> FrozenSet[ReferenceDataKind]:
        """The kinds of reference data actually present in this set."""
        kinds = set()
        if self.initial_state is not None:
            kinds.add(ReferenceDataKind.INITIAL_STATE)
        if self.resulting_state is not None:
            kinds.add(ReferenceDataKind.RESULTING_STATE)
        if self.input_log is not None:
            kinds.add(ReferenceDataKind.INPUT)
        if self.execution_log is not None:
            kinds.add(ReferenceDataKind.EXECUTION_LOG)
        if self.resources is not None:
            kinds.add(ReferenceDataKind.RESOURCES)
        return frozenset(kinds)

    def require(self, *kinds: ReferenceDataKind) -> None:
        """Raise :class:`CheckingError` unless all ``kinds`` are present."""
        missing = [kind for kind in kinds if kind not in self.available_kinds()]
        if missing:
            raise CheckingError(
                "reference data for session at %r is missing: %s"
                % (self.session_host, ", ".join(kind.value for kind in missing))
            )

    # -- transport -----------------------------------------------------------------

    def to_canonical(self) -> Dict[str, Any]:
        return {
            "session_host": self.session_host,
            "hop_index": self.hop_index,
            "agent_id": self.agent_id,
            "code_name": self.code_name,
            "owner": self.owner,
            "is_final_hop": self.is_final_hop,
            "initial_state": (
                self.initial_state.to_canonical() if self.initial_state else None
            ),
            "resulting_state": (
                self.resulting_state.to_canonical() if self.resulting_state else None
            ),
            "input_log": self.input_log.to_canonical() if self.input_log else None,
            "execution_log": (
                self.execution_log.to_canonical() if self.execution_log else None
            ),
            "resources": self.resources,
        }

    @classmethod
    def from_canonical(cls, data: Dict[str, Any]) -> "ReferenceDataSet":
        try:
            return cls(
                session_host=data["session_host"],
                hop_index=int(data["hop_index"]),
                agent_id=data["agent_id"],
                code_name=data["code_name"],
                owner=data["owner"],
                initial_state=(
                    AgentState.from_canonical(data["initial_state"])
                    if data.get("initial_state") is not None else None
                ),
                resulting_state=(
                    AgentState.from_canonical(data["resulting_state"])
                    if data.get("resulting_state") is not None else None
                ),
                input_log=(
                    InputLog.from_canonical(data["input_log"])
                    if data.get("input_log") is not None else None
                ),
                execution_log=(
                    ExecutionLog.from_canonical(data["execution_log"])
                    if data.get("execution_log") is not None else None
                ),
                resources=data.get("resources"),
                is_final_hop=bool(data.get("is_final_hop", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckingError("malformed reference data payload") from exc

    def __setattr__(self, name: str, value: Any) -> None:
        # Assigning any field invalidates the canonical-encoding memo,
        # so digest() and canonical_bytes() can never describe stale contents.
        if name != "_canonical_cache":
            self.__dict__.pop("_canonical_cache", None)
        object.__setattr__(self, name, value)

    def canonical_bytes(self) -> bytes:
        """Canonical encoding of the bundle, memoized per instance.

        The memo is dropped automatically whenever a field is assigned,
        so repeated calls are cheap while mutation stays safe.
        """
        cached = self.__dict__.get("_canonical_cache")
        if cached is None:
            from repro.crypto.canonical import canonical_encode

            cached = canonical_encode(self.to_canonical())
            self._canonical_cache = cached
        return cached

    def digest(self):
        """Secure hash of the bundle (memoized), for signing and logs."""
        from repro.crypto.hashing import hash_bytes

        return hash_bytes(self.canonical_bytes())
