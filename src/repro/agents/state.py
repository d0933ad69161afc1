"""Agent state: the "variable parts" of a mobile agent.

The paper's agent model (Section 2.1) splits an agent into *code*, a
*data state* (e.g. instance variables), and an *execution state*.  With
weak migration — the migration style the framework targets — the
execution state is not captured automatically; the programmer encodes it
manually into variables that are transported with the data state.

:class:`AgentState` is therefore the reproduction's notion of a
**reference state**: the combination of the variable parts of an agent
after an execution session.  States snapshot to plain dictionaries of
canonical values, hash deterministically, and compare exactly.

Copies are made once per state boundary, with
:func:`~repro.crypto.canonical.canonical_copy`: a snapshot is exactly
the canonical value the wire would deliver, so the same snapshot object
can be handed to the next host (see
:mod:`repro.agents.migration`).  A capture taken right after
:meth:`AgentState.restore`, before the agent wrote anything or read a
mutable value, returns the restored snapshot itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

from repro.crypto.canonical import (
    CanonicalSpan,
    canonical_copy,
    canonical_encode,
    canonical_equal,
)
from repro.crypto.hashing import HashCache, StateDigest, hash_bytes
from repro.exceptions import AgentStateError

__all__ = [
    "DataState",
    "ExecutionState",
    "AgentState",
    "state_diff",
]

#: Shared memo for state encodings: snapshots are immutable by
#: contract, so every digest/equality/size check of the same snapshot
#: object reuses one canonical encoding (the hot path of fleet-scale
#: checking).  Entries die with their states via weak references.
_ENCODING_CACHE = HashCache()

#: Values a read can hand out that the caller could mutate in place.
#: Live state that came from :meth:`AgentState.restore` holds canonical
#: copies only, so no other type needs watching.
_MUTABLE = (dict, list, set)


class DataState:
    """The agent's data variables (instance variables in the paper).

    Behaves like a dictionary restricted to canonical values.  Values
    are canonically copied on snapshot so that later mutation by the
    agent (or by a malicious host) cannot retroactively change a
    captured reference state.
    """

    def __init__(self, initial: Optional[Dict[str, Any]] = None) -> None:
        self._variables: Dict[str, Any] = dict(initial or {})
        #: The snapshot these variables were restored from, while they
        #: still equal it and nothing mutable has been handed out.
        self._restored: Optional["AgentState"] = None

    def __getitem__(self, key: str) -> Any:
        try:
            value = self._variables[key]
        except KeyError as exc:
            raise AgentStateError("agent data variable %r is not set" % key) from exc
        if isinstance(value, _MUTABLE):
            self._restored = None
        return value

    def __setitem__(self, key: str, value: Any) -> None:
        if not isinstance(key, str):
            raise AgentStateError("agent data variables must have string names")
        self._restored = None
        self._variables[key] = value

    def __delitem__(self, key: str) -> None:
        self._restored = None
        self._variables.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._variables

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._variables))

    def __len__(self) -> int:
        return len(self._variables)

    def get(self, key: str, default: Any = None) -> Any:
        """Return a variable or ``default`` if it is not set."""
        value = self._variables.get(key, default)
        if isinstance(value, _MUTABLE):
            self._restored = None
        return value

    def set_default(self, key: str, default: Any) -> Any:
        """Set ``key`` to ``default`` if missing; return its value."""
        self._restored = None
        return self._variables.setdefault(key, default)

    def update(self, values: Dict[str, Any]) -> None:
        """Bulk-set variables from a dictionary."""
        for key, value in values.items():
            self[key] = value

    def snapshot(self) -> Dict[str, Any]:
        """Return a canonical copy of the variables as a plain dictionary."""
        return canonical_copy(self._variables)

    def to_canonical(self) -> Dict[str, Any]:
        return self.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DataState(%r)" % (self._variables,)


class ExecutionState:
    """Manually encoded execution state (weak migration).

    The framework only needs two well-known fields — which hop the agent
    is on and whether it considers its task finished — but agents may
    store arbitrary additional fields (e.g. a phase marker for a
    multi-phase protocol).
    """

    def __init__(self, initial: Optional[Dict[str, Any]] = None) -> None:
        self._fields: Dict[str, Any] = {"hop_index": 0, "finished": False}
        if initial:
            self._fields.update(initial)
        #: As :attr:`DataState._restored`.
        self._restored: Optional["AgentState"] = None

    @property
    def hop_index(self) -> int:
        """Zero-based index of the current hop along the itinerary."""
        return int(self._fields["hop_index"])

    @hop_index.setter
    def hop_index(self, value: int) -> None:
        self._restored = None
        self._fields["hop_index"] = int(value)

    @property
    def finished(self) -> bool:
        """Whether the agent has declared its task complete."""
        return bool(self._fields["finished"])

    @finished.setter
    def finished(self, value: bool) -> None:
        self._restored = None
        self._fields["finished"] = bool(value)

    def __getitem__(self, key: str) -> Any:
        value = self._fields[key]
        if isinstance(value, _MUTABLE):
            self._restored = None
        return value

    def __setitem__(self, key: str, value: Any) -> None:
        self._restored = None
        self._fields[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        """Return a field or ``default`` if it is not set."""
        value = self._fields.get(key, default)
        if isinstance(value, _MUTABLE):
            self._restored = None
        return value

    def snapshot(self) -> Dict[str, Any]:
        """Return a canonical copy of all fields."""
        return canonical_copy(self._fields)

    def to_canonical(self) -> Dict[str, Any]:
        return self.snapshot()


@dataclass(frozen=True)
class AgentState:
    """An immutable snapshot of an agent's variable parts.

    This is exactly the object the paper calls a *state* — and, when it
    was produced by a reference host, a *reference state*.  Its two
    dictionaries are canonical copies that nothing mutates, so a
    snapshot may be shared: by the sender and the receiver of a
    migration, and by a restore and the capture that follows it.
    """

    data: Dict[str, Any] = field(default_factory=dict)
    execution: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(cls, data: DataState, execution: ExecutionState) -> "AgentState":
        """Snapshot live data + execution state into an immutable value.

        Live state restored from a snapshot, untouched since, captures
        as that very snapshot.  A fresh snapshot is never reused by the
        next capture: references handed out before it stay live.
        """
        restored = data._restored
        if restored is not None and restored is execution._restored:
            return restored
        return cls(data=data.snapshot(), execution=execution.snapshot())

    def restore(self) -> tuple:
        """Materialize fresh live state objects from this snapshot."""
        data = DataState(canonical_copy(self.data))
        execution = ExecutionState(canonical_copy(self.execution))
        if len(execution._fields) == len(self.execution):
            # No default field was filled in: the live state equals
            # this snapshot until something touches it.
            data._restored = execution._restored = self
        return data, execution

    def to_canonical(self) -> Dict[str, Any]:
        return {"data": self.data, "execution": self.execution}

    @classmethod
    def from_canonical(cls, value: Any) -> "AgentState":
        """Rebuild a snapshot from its canonical form (or pass one through).

        A :class:`~repro.crypto.canonical.CanonicalSpan` stands for its
        decoded value.  When that value is exactly the canonical form,
        ``{"data": dict, "execution": dict}``, the span's bytes are the
        snapshot's encoding and seed :meth:`canonical_bytes`; any other
        form is normalised here and encoded when first needed.
        """
        if isinstance(value, AgentState):
            return value
        encoding = None
        if type(value) is CanonicalSpan:
            encoding, value = value.data, value.decoded()
        try:
            state = cls(
                data=dict(value["data"]), execution=dict(value["execution"])
            )
        except (KeyError, TypeError) as exc:
            raise AgentStateError("malformed agent state snapshot") from exc
        if (encoding is not None and type(value) is dict and len(value) == 2
                and type(value["data"]) is dict
                and type(value["execution"]) is dict):
            _ENCODING_CACHE.encode_object(state, lambda: encoding)
        return state

    def canonical_bytes(self) -> bytes:
        """Canonical encoding of the snapshot, memoized per instance.

        A snapshot is immutable by contract (every producer copies on
        capture, every tampering path builds a *new* state), so the
        encoding is computed once — in the shared
        :class:`~repro.crypto.hashing.HashCache` — and reused by
        :meth:`digest` and :meth:`equals`, the hot comparisons of
        fleet-scale checking.

        The method doubles as the ``__canonical_bytes__`` splice hook of
        :class:`~repro.crypto.canonical.CanonicalEncoder`: a state
        embedded in an enclosing payload (a signed commitment, a packed
        transfer) contributes its memoized bytes instead of being
        re-encoded, which is what keeps per-hop hashing proportional to
        the *delta* a hop produced rather than the whole history the
        agent carries.
        """
        return _ENCODING_CACHE.encode_object(
            self, lambda: canonical_encode(self.to_canonical())
        )

    __canonical_bytes__ = canonical_bytes

    def digest(self) -> StateDigest:
        """Secure hash of the snapshot (what hosts sign and compare)."""
        return hash_bytes(self.canonical_bytes())

    def equals(self, other: "AgentState") -> bool:
        """Exact (canonical) equality with another snapshot."""
        if self is other:
            return True
        return self.canonical_bytes() == other.canonical_bytes()


def state_diff(reference: AgentState, observed: AgentState) -> Dict[str, Any]:
    """Describe how ``observed`` deviates from ``reference``.

    Returns a dictionary with three keys:

    ``missing``
        variables present in the reference state but absent in the
        observed state,
    ``unexpected``
        variables present only in the observed state,
    ``changed``
        variables present in both with differing values, mapped to a
        ``{"reference": ..., "observed": ...}`` pair.

    Execution-state fields are compared under keys prefixed with
    ``"execution."`` so a single report covers both parts.
    """
    report: Dict[str, Any] = {"missing": [], "unexpected": [], "changed": {}}

    def compare(ref: Dict[str, Any], obs: Dict[str, Any], prefix: str) -> None:
        for key in sorted(set(ref) | set(obs)):
            label = prefix + key
            if key not in obs:
                report["missing"].append(label)
            elif key not in ref:
                report["unexpected"].append(label)
            elif not canonical_equal(ref[key], obs[key]):
                report["changed"][label] = {
                    "reference": ref[key],
                    "observed": obs[key],
                }

    compare(reference.data, observed.data, "")
    compare(reference.execution, observed.execution, "execution.")
    return report
