"""Execution logs and Vigna-style traces.

Section 3.3 of the paper describes execution traces: a trace is a list
of pairs ``(n, s)`` where ``n`` identifies the executed statement and
``s`` lists the variable assignments made by statements that used
information *external* to the agent.  The paper then argues (and this
library follows the argument) that the statement identifiers are not
required from a security point of view — only assignments caused by
input matter — so traces can also be recorded without identifiers.

This module provides both flavours:

* :class:`TraceEntry` — a single ``(statement, assignments)`` pair,
* :class:`ExecutionLog` — an append-only list of entries with chain
  hashing, the "execution log" reference data of the framework.

The example in the paper's Figure 3 (a five statement fragment where
``read(x)`` and ``cryptInput`` are external) is reproduced in
``examples/trace_format.py`` and ``tests/agents/test_execution_log.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.crypto.canonical import canonical_encode
from repro.crypto.hashing import DEFAULT_HASH_ALGORITHM, StateDigest

__all__ = ["TraceEntry", "ExecutionLog"]


@dataclass(frozen=True)
class TraceEntry:
    """One entry of an execution trace.

    Attributes
    ----------
    statement:
        Identifier of the executed statement (a line number or label).
        ``None`` when the trace is recorded without identifiers, as the
        paper recommends for efficiency.
    assignments:
        Mapping of variable names to the values they held *after* the
        statement executed, recorded only for statements whose effect
        depends on input from outside the agent.
    """

    statement: Optional[str]
    assignments: Dict[str, Any] = field(default_factory=dict)

    def to_canonical(self) -> Dict[str, Any]:
        return {"statement": self.statement, "assignments": dict(self.assignments)}

    @classmethod
    def from_canonical(cls, data: Dict[str, Any]) -> "TraceEntry":
        return cls(
            statement=data.get("statement"),
            assignments=dict(data.get("assignments", {})),
        )


class ExecutionLog:
    """Append-only log of trace entries for one execution session.

    The log supports the two operations the protection mechanisms need:

    * committing to the log with a chain hash (what a host signs and
      forwards to the next host in the traces approach), and
    * replaying / comparing the recorded input-dependent assignments
      during re-execution.
    """

    def __init__(self, entries: Optional[List[TraceEntry]] = None,
                 record_statements: bool = True) -> None:
        self._entries: List[TraceEntry] = []
        self._record_statements = record_statements
        # Incremental chain digest: the hasher absorbs each entry once,
        # at append time, so committing to the log costs O(delta) per
        # hop instead of re-hashing the whole history (the digest is
        # taken at every migration, the entries never change once
        # appended).  The running state mirrors hash_chain() exactly:
        # length prefix, colon, canonical encoding, per entry.
        self._hasher = hashlib.new(DEFAULT_HASH_ALGORITHM)
        for entry in entries or []:
            self._absorb(self._append_entry(entry))

    def _append_entry(self, entry: TraceEntry) -> TraceEntry:
        self._entries.append(entry)
        return entry

    def _absorb(self, entry: TraceEntry) -> None:
        encoded = canonical_encode(entry.to_canonical())
        self._hasher.update(str(len(encoded)).encode("ascii"))
        self._hasher.update(b":")
        self._hasher.update(encoded)

    def append(self, statement: Optional[str] = None,
               assignments: Optional[Dict[str, Any]] = None) -> TraceEntry:
        """Append a trace entry.

        When the log was created with ``record_statements=False`` the
        statement identifier is discarded, matching the paper's
        optimized trace format.
        """
        entry = TraceEntry(
            statement=statement if self._record_statements else None,
            assignments=dict(assignments or {}),
        )
        self._append_entry(entry)
        self._absorb(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self._entries[index]

    def entries(self) -> Tuple[TraceEntry, ...]:
        """All entries in order."""
        return tuple(self._entries)

    def input_dependent_entries(self) -> Tuple[TraceEntry, ...]:
        """Entries that recorded at least one assignment.

        These correspond to the non-empty lines of the paper's Figure
        3b: statements whose result depends on external input.
        """
        return tuple(entry for entry in self._entries if entry.assignments)

    def digest(self) -> StateDigest:
        """Chain hash over all entries (the trace commitment).

        Equal to ``hash_chain(entry.to_canonical() for entry in log)``
        but O(1): the chain state is maintained incrementally at append
        time, so a log of any length commits in constant time.
        """
        return StateDigest(
            algorithm=DEFAULT_HASH_ALGORITHM,
            digest=self._hasher.copy().digest(),
        )

    def to_canonical(self) -> List[Dict[str, Any]]:
        return [entry.to_canonical() for entry in self._entries]

    @classmethod
    def from_canonical(cls, data: List[Dict[str, Any]]) -> "ExecutionLog":
        entries = [TraceEntry.from_canonical(item) for item in data]
        return cls(entries)

    def strip_statements(self) -> "ExecutionLog":
        """Return a copy without statement identifiers.

        This is the size optimization the paper proposes: the statement
        identifiers prove nothing by themselves (an attacker can always
        fabricate a plausible statement list), so they can be dropped
        and only the input-dependent assignments kept.
        """
        stripped = ExecutionLog(record_statements=False)
        for entry in self._entries:
            stripped.append(statement=None, assignments=entry.assignments)
        return stripped

    def copy(self) -> "ExecutionLog":
        """Return an independent copy of the log (chain state included)."""
        clone = ExecutionLog(record_statements=self._record_statements)
        clone._entries = list(self._entries)
        clone._hasher = self._hasher.copy()
        return clone

    def matches(self, other: "ExecutionLog") -> bool:
        """Whether two logs commit to the same content.

        Comparison is by chain digest, i.e. it is sensitive to entry
        order, assignments, and (when recorded) statement identifiers.
        """
        return self.digest() == other.digest()
