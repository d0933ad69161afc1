"""Exception hierarchy for the reference-states reproduction library.

Every exception raised by :mod:`repro` derives from :class:`ReproError`
so that callers can catch library failures with a single ``except``
clause while still being able to distinguish the individual failure
classes (crypto failures, migration failures, protocol violations,
...).  A detected attack is not an exception; it is reported through a
:class:`repro.core.verdict.Verdict`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A component was configured inconsistently or incompletely."""


class SerializationError(ReproError):
    """Canonical serialization of a value failed.

    Raised when a value cannot be represented in the deterministic
    canonical form used for hashing and signing (see
    :mod:`repro.crypto.canonical`).
    """


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyError_(CryptoError):
    """A key could not be found, parsed, or used.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`KeyError`.
    """


class SignatureError(CryptoError):
    """A digital signature could not be created or did not verify."""


class NetworkError(ReproError):
    """A simulated network operation failed."""


class TransportError(NetworkError):
    """An agent transfer could not be delivered."""


class HostNotFoundError(NetworkError):
    """A host address could not be resolved in the registry."""


class AgentError(ReproError):
    """Base class for agent-level failures."""


class MigrationError(AgentError):
    """An agent migration failed (capture, transfer, or restore)."""


class AgentStateError(AgentError):
    """The agent state is malformed or cannot be snapshotted."""


class ItineraryError(AgentError):
    """The agent itinerary is invalid or exhausted unexpectedly."""


class ExecutionError(AgentError):
    """The agent's ``run`` method raised or violated the execution model."""


class InputReplayError(AgentError):
    """Replaying the recorded input log diverged from the recorded log.

    Raised during re-execution when the checked code requests more or
    different inputs than the recorded execution produced.
    """


class ProtocolError(ReproError):
    """A protection protocol invariant was violated.

    This covers malformed protocol payloads, missing reference data,
    and out-of-order protocol steps.  It does **not** signal a detected
    attack: detections are reported through a
    :class:`repro.core.verdict.Verdict`.
    """


class CheckingError(ReproError):
    """A checking algorithm could not be executed.

    For example a rule referencing a variable that does not exist, or a
    re-execution checker missing its input log.  A checking *failure*
    (i.e. the check ran and found a mismatch) is reported through a
    verdict, not an exception, unless the caller asked for strict mode.
    """


class ReplicationError(ReproError):
    """The server-replication baseline could not reach a usable quorum."""


class ServiceError(ReproError):
    """Base class for verification-service failures (:mod:`repro.service`)."""


class FrameError(ServiceError):
    """A service wire frame violated the framing protocol.

    Subclasses distinguish the three failure shapes the server must
    treat differently: an oversized frame (rejected before its body is
    read or decoded), a truncated frame (the peer vanished mid-frame),
    and a malformed frame (framing intact, payload undecodable).
    """


class FrameTooLarge(FrameError):
    """The declared frame length exceeds the configured maximum."""


class TruncatedFrame(FrameError):
    """The connection ended in the middle of a frame."""


class MalformedFrame(FrameError):
    """A frame body could not be decoded as a canonical value."""


class ServiceUnavailable(ServiceError):
    """The service shed the request under backpressure (typed busy)."""


class WireVersionMismatch(ServiceError):
    """The peer speaks an incompatible major wire-protocol version.

    Raised during connection negotiation (the ``ping``/hello exchange)
    when the server's advertised ``wire/<major>`` does not match the
    client's — a typed refusal at connect time instead of a decode
    failure halfway through the first real request.
    """


class NoBackendAvailable(ServiceError):
    """Every verifier backend of a cluster is marked down.

    The gateway raises (and answers with a typed error) when a request
    cannot be routed because the consistent-hash ring is empty — load
    shedding with attribution, never a hang.
    """


class RetryExhausted(ServiceError):
    """A retried operation kept failing until its deadline.

    Raised by :meth:`repro.service.retry.RetryPolicy.call` with the
    attempt count and the last underlying error attached (also chained
    as ``__cause__``) — a typed budget-exhaustion signal, not a bare
    re-raise of whichever transient happened to come last.
    """

    def __init__(self, message: str, attempts: int = 0,
                 last_error: "BaseException | None" = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class ProofError(ReproError):
    """A holographic proof was malformed or failed verification."""
