"""Input records and input logs.

Section 2.1 of the paper defines *input* as "all the data injected from
the outside of the agent, i.e. both communication with partners residing
on other hosts and data received directly by or via the current host",
including results of system calls such as random numbers or the current
time.  Results of procedures *inside* the agent are explicitly excluded:
they can be recomputed from the agent code.

The :class:`InputLog` is therefore the central piece of reference data
for re-execution based checking: a reference host that replays the
recorded input log against the initial state must reproduce the
resulting state exactly (for single-threaded agents, which is the agent
model used here and in Mole).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import InputReplayError

__all__ = [
    "InputRecord",
    "InputLog",
    "InputSource",
    "EnvironmentInputSource",
    "ReplayInputSource",
    "INPUT_KIND_SERVICE",
    "INPUT_KIND_MESSAGE",
    "INPUT_KIND_SYSTEM",
    "INPUT_KIND_HOST_DATA",
]

#: Input obtained by querying a host-provided service/resource.
INPUT_KIND_SERVICE = "service"
#: Input received as a message from a communication partner.
INPUT_KIND_MESSAGE = "message"
#: Input produced by a system call (random number, current time, ...).
INPUT_KIND_SYSTEM = "system"
#: Input handed to the agent directly by the host (e.g. start parameters).
INPUT_KIND_HOST_DATA = "host-data"

_VALID_KINDS = (
    INPUT_KIND_SERVICE,
    INPUT_KIND_MESSAGE,
    INPUT_KIND_SYSTEM,
    INPUT_KIND_HOST_DATA,
)


@dataclass(frozen=True)
class InputRecord:
    """One element of input received by the agent during a session.

    Attributes
    ----------
    sequence:
        Position of this input within the session (0-based).
    kind:
        One of the ``INPUT_KIND_*`` constants.
    source:
        Name of the party that produced the input (host name, service
        name, communication partner).
    key:
        The request the agent issued (service query string, message
        mailbox, system call name).
    value:
        The value the agent received.
    """

    sequence: int
    kind: str
    source: str
    key: str
    value: Any

    def to_canonical(self) -> Dict[str, Any]:
        return {
            "sequence": self.sequence,
            "kind": self.kind,
            "source": self.source,
            "key": self.key,
            "value": self.value,
        }

    @classmethod
    def from_canonical(cls, data: Dict[str, Any]) -> "InputRecord":
        return cls(
            sequence=int(data["sequence"]),
            kind=data["kind"],
            source=data["source"],
            key=data["key"],
            value=data["value"],
        )


class InputLog:
    """Ordered record of every input an agent received in one session."""

    def __init__(self, records: Optional[List[InputRecord]] = None) -> None:
        self._records: List[InputRecord] = list(records or [])

    def record(self, kind: str, source: str, key: str, value: Any) -> InputRecord:
        """Append a new input record and return it."""
        if kind not in _VALID_KINDS:
            raise InputReplayError("unknown input kind %r" % kind)
        entry = InputRecord(
            sequence=len(self._records),
            kind=kind,
            source=source,
            key=key,
            value=value,
        )
        self._records.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[InputRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> InputRecord:
        return self._records[index]

    def records(self) -> Tuple[InputRecord, ...]:
        """All records, in order."""
        return tuple(self._records)

    def to_canonical(self) -> List[Dict[str, Any]]:
        return [record.to_canonical() for record in self._records]

    @classmethod
    def from_canonical(cls, data: List[Dict[str, Any]]) -> "InputLog":
        return cls([InputRecord.from_canonical(entry) for entry in data])

    def copy(self) -> "InputLog":
        """Return an independent copy of the log."""
        return InputLog(list(self._records))


class InputSource:
    """Abstract source of input values consumed by an execution context.

    The live execution on a host uses an :class:`EnvironmentInputSource`
    that pulls from the host's services, message queues, and system
    facilities and *records* everything it hands out; re-execution uses
    a :class:`ReplayInputSource` that feeds the recorded values back in
    the recorded order.
    """

    def fetch(self, kind: str, source: str, key: str) -> Any:
        """Return the next input value for the given request."""
        raise NotImplementedError

    @property
    def log(self) -> InputLog:
        """The log of inputs provided so far."""
        raise NotImplementedError


class EnvironmentInputSource(InputSource):
    """Pulls input from a live environment and records it.

    The environment is any object with a
    ``provide(kind, source, key) -> value`` method; the host's execution
    session supplies one that knows about the host's services, the
    agent's mailbox, and system calls.
    """

    def __init__(self, environment) -> None:
        self._environment = environment
        self._log = InputLog()

    def fetch(self, kind: str, source: str, key: str) -> Any:
        value = self._environment.provide(kind, source, key)
        self._log.record(kind, source, key, value)
        return value

    @property
    def log(self) -> InputLog:
        return self._log


class ReplayInputSource(InputSource):
    """Feeds back a recorded input log during re-execution.

    Replay is strict: the re-executed code must ask for inputs in the
    same order, of the same kind, and with the same key as the recorded
    execution.  Any divergence raises :class:`InputReplayError`, because
    it means either the recorded log was tampered with or the code is
    not deterministic with respect to its inputs (both of which the
    checker must surface rather than paper over).
    """

    def __init__(self, recorded: InputLog, strict_keys: bool = True) -> None:
        self._recorded = recorded.copy()
        self._strict_keys = strict_keys
        self._position = 0
        self._log = InputLog()

    def fetch(self, kind: str, source: str, key: str) -> Any:
        if self._position >= len(self._recorded):
            raise InputReplayError(
                "re-execution requested input #%d (%s %r from %r) but the "
                "recorded log only has %d entries"
                % (self._position, kind, key, source, len(self._recorded))
            )
        recorded = self._recorded[self._position]
        if recorded.kind != kind or (
            self._strict_keys and (recorded.key != key or recorded.source != source)
        ):
            raise InputReplayError(
                "re-execution input #%d mismatch: recorded (%s, %r, %r) but "
                "requested (%s, %r, %r)"
                % (
                    self._position,
                    recorded.kind,
                    recorded.source,
                    recorded.key,
                    kind,
                    source,
                    key,
                )
            )
        self._position += 1
        self._log.record(kind, source, key, recorded.value)
        return recorded.value

    @property
    def log(self) -> InputLog:
        return self._log

    @property
    def exhausted(self) -> bool:
        """Whether every recorded input has been consumed."""
        return self._position >= len(self._recorded)

    @property
    def remaining(self) -> int:
        """Number of recorded inputs not yet consumed."""
        return len(self._recorded) - self._position
