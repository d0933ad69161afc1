"""Journey replay as verification-service request streams.

The verification service (:mod:`repro.service`) answers the same two
questions the in-process machinery answers during a fleet run: "does
this transfer signature verify?" and "is this session's protocol
payload consistent?".  To benchmark and smoke-test the service against
ground truth, this module runs a fleet **once, in process**, records
every such question exactly as it appears on the wire together with the
in-process answer, and hands the pairs out as a replayable request
stream.

Two capture taps feed the stream:

* the :class:`~repro.crypto.batch.BatchedTransferVerifier` observer
  hook captures every whole-transfer recoverable envelope (signer,
  canonical message bytes, signature) — these become ``verify``
  requests whose expected verdict is ``True`` (an honest fleet never
  produces a bad transfer signature; adversarial streams are derived
  afterwards with :func:`corrupt_requests`);
* a recording subclass of
  :class:`~repro.core.protocol.ReferenceStateProtocol` snapshots every
  non-skipped session check — the session payload with its two signed
  manifests, in wire form, the observed state, and the verdict the
  in-process check produced — as ``check-session`` requests whose
  expected answer is the canonical verdict, bit for bit.

Capture is deterministic: the stream is a pure function of the
:class:`~repro.sim.fleet.FleetConfig` (same seed, same requests, same
expected answers on any machine).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.batch import BatchedTransferVerifier
from repro.crypto.canonical import canonical_decode, canonical_encode
from repro.crypto.signing import RecoverableEnvelope
from repro.sim.fleet import FleetConfig, FleetEngine

__all__ = [
    "VerificationRequest",
    "RequestStream",
    "RecordingFleetEngine",
    "journey_request_stream",
    "corrupt_requests",
]


@dataclass(frozen=True)
class VerificationRequest:
    """One service request with its ground-truth answer.

    Attributes
    ----------
    op:
        ``"verify"`` or ``"check-session"``.
    payload:
        The request body in wire (canonical) form, without the ``id``
        the client assigns.
    expected:
        The in-process answer: a boolean verdict for ``verify``, the
        canonical verdict dictionary for ``check-session``.
    journey:
        The journey the request originated from (diagnostics).
    """

    op: str
    payload: Dict[str, Any]
    expected: Any
    journey: Optional[str] = None


@dataclass
class RequestStream:
    """Everything one recording fleet run captured."""

    config: FleetConfig
    verify_requests: List[VerificationRequest]
    session_requests: List[VerificationRequest]
    #: Deterministic signature of the generating fleet run.
    fleet_signature: str
    #: Wall-clock seconds the in-process fleet run took (the recording
    #: run; rate measurements time a clean run separately).
    wall_seconds: float

    @property
    def requests(self) -> List[VerificationRequest]:
        """Verify requests followed by session-check requests."""
        return list(self.verify_requests) + list(self.session_requests)


class RecordingFleetEngine(FleetEngine):
    """A fleet engine that captures service request streams as it runs."""

    def __init__(self, config: FleetConfig, **kwargs: Any) -> None:
        super().__init__(config, **kwargs)
        self.captured_verifies: List[VerificationRequest] = []
        self.captured_sessions: List[VerificationRequest] = []

    # -- capture taps ------------------------------------------------------------

    def _build_transfer_verifier(self) -> BatchedTransferVerifier:
        verifier = super()._build_transfer_verifier()
        verifier.observer = self._record_envelope
        return verifier

    def _record_envelope(self, envelope: RecoverableEnvelope,
                         journey: Optional[str]) -> None:
        self.captured_verifies.append(VerificationRequest(
            op="verify",
            payload={
                "op": "verify",
                "signer": envelope.signer,
                "message": envelope.message(),
                "signature": envelope.signature.to_canonical(),
            },
            expected=True,
            journey=journey,
        ))

    def _build_protocol(self, system: Any):
        base = super()._build_protocol(system)

        engine = self

        class _RecordingProtocol(type(base)):
            def _check_previous_session(self, host, session, observed_state,
                                        checked_host):
                verdict = super()._check_previous_session(
                    host, session, observed_state, checked_host
                )
                engine._record_session(
                    host, session, observed_state, checked_host, verdict
                )
                return verdict

        return _RecordingProtocol(
            code_registry=base.code_registry,
            trusted_hosts=base.trusted_hosts,
        )

    def _record_session(self, host: Any, session: Dict[str, Any],
                        observed_state: Any, checked_host: Optional[str],
                        verdict: Any) -> None:
        # Round-trip through the canonical codec so the captured payload
        # is exactly what a remote checker would hold after decoding the
        # frame — object splices (the initial state, the input bytes and
        # the signed manifests) become plain canonical values.
        wire_prev = canonical_decode(canonical_encode(session))
        self.captured_sessions.append(VerificationRequest(
            op="check-session",
            payload={
                "op": "check-session",
                "prev_session": wire_prev,
                "observed_state": observed_state.to_canonical(),
                "checked_host": checked_host,
                "checking_host": host.name,
            },
            expected=verdict.to_canonical(),
            journey=None,
        ))


def journey_request_stream(
    config: FleetConfig,
    max_session_checks: Optional[int] = None,
) -> RequestStream:
    """Run ``config`` in process and capture its service request stream.

    Protection is switched on (session checks are part of the stream);
    everything else, including the seed, is honoured, so the stream is
    reproducible.
    """
    config = replace(config, protected=True)
    engine = RecordingFleetEngine(config)
    result = engine.run()
    sessions = engine.captured_sessions
    if max_session_checks is not None:
        sessions = sessions[:max(0, int(max_session_checks))]
    return RequestStream(
        config=config,
        verify_requests=engine.captured_verifies,
        session_requests=sessions,
        fleet_signature=result.deterministic_signature(),
        wall_seconds=result.wall_seconds,
    )


def corrupt_requests(
    requests: List[VerificationRequest],
    fraction: float,
    seed: int = 0,
) -> Tuple[List[VerificationRequest], int]:
    """Derive an adversarial stream: corrupt a fraction of signatures.

    A corrupted ``verify`` request keeps its structural validity (the
    forged ``s`` stays inside ``(0, q)``; the commitment is untouched)
    so it reaches the cryptographic check and must come back ``False``
    — the expected verdict is flipped accordingly.  Non-``verify``
    requests pass through unchanged.  Returns the new list and the
    number of corrupted requests; selection is deterministic in
    ``seed``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    rng = Random(seed)
    corrupted: List[VerificationRequest] = []
    flipped = 0
    for request in requests:
        if request.op != "verify" or rng.random() >= fraction:
            corrupted.append(request)
            continue
        payload = dict(request.payload)
        signature = dict(payload["signature"])
        s = int(signature["s"])
        # Any change to s invalidates the signature; +1 with a wrap
        # keeps 0 < s' and avoids the (astronomically unlikely) s == 0.
        signature["s"] = s + 1 if s + 1 < (1 << 160) else 1
        payload["signature"] = signature
        corrupted.append(VerificationRequest(
            op="verify",
            payload=payload,
            expected=False,
            journey=request.journey,
        ))
        flipped += 1
    return corrupted, flipped
