"""Journey replay capture: determinism, ground truth, corruption."""

from __future__ import annotations

from repro.core.protocol import check_session_payload
from repro.crypto.canonical import canonical_encode
from repro.crypto.dsa import RecoverableSignature
from repro.crypto.keys import Identity
from repro.service.server import build_service_keystore
from repro.sim.fleet import FleetConfig
from repro.sim.requests import (
    corrupt_requests,
    journey_request_stream,
)

_CONFIG = FleetConfig(
    num_agents=12, num_hosts=6, hops_per_journey=2, seed=17,
    malicious_host_fraction=0.2, protected=True,
)


def _stream():
    return journey_request_stream(_CONFIG)


class TestCapture:
    def test_one_verify_request_per_transfer(self, ):
        stream = _stream()
        transfers = _CONFIG.num_agents * (_CONFIG.hops_per_journey + 1)
        assert len(stream.verify_requests) == transfers
        for request in stream.verify_requests:
            assert request.op == "verify"
            assert request.expected is True
            payload = request.payload
            assert isinstance(payload["message"], bytes)
            assert {"r", "s", "commitment"} <= set(payload["signature"])

    def test_captured_signatures_verify_against_the_fleet_pki(self):
        stream = _stream()
        keystore = build_service_keystore(_CONFIG.num_hosts)
        for request in stream.verify_requests[:10]:
            public_key = keystore.maybe_get(request.payload["signer"])
            assert public_key is not None
            signature = RecoverableSignature.from_canonical(
                request.payload["signature"]
            )
            assert public_key.verify_recoverable(
                request.payload["message"], signature
            )

    def test_session_checks_carry_wire_form_payloads(self):
        stream = _stream()
        assert stream.session_requests
        for request in stream.session_requests[:5]:
            payload = request.payload
            assert isinstance(payload["prev_session"], dict)
            assert isinstance(payload["observed_state"], dict)
            assert isinstance(payload["checking_host"], str)
            # Wire form means canonical-encodable as-is.
            canonical_encode(payload)
            assert request.expected["mechanism"] == "reference-state-protocol"

    def test_session_cap_is_honoured(self):
        stream = journey_request_stream(_CONFIG, max_session_checks=3)
        assert len(stream.session_requests) == 3


class TestDeterminism:
    def test_capture_is_a_pure_function_of_the_config(self):
        one, two = _stream(), _stream()
        assert one.fleet_signature == two.fleet_signature
        assert canonical_encode(
            [r.payload for r in one.requests]
        ) == canonical_encode([r.payload for r in two.requests])
        assert [r.expected for r in one.session_requests] == [
            r.expected for r in two.session_requests
        ]

    def test_recording_does_not_change_the_fleet_outcome(self):
        from repro.sim.fleet import FleetEngine

        plain = FleetEngine(_CONFIG).run()
        assert _stream().fleet_signature == plain.deterministic_signature()


class TestSessionGroundTruth:
    def test_expected_verdicts_reproduce_through_the_public_checker(self):
        stream = _stream()
        keystore = build_service_keystore(_CONFIG.num_hosts)
        for request in stream.session_requests[:8]:
            payload = request.payload
            verdict = check_session_payload(
                payload["prev_session"],
                payload["observed_state"],
                payload["checked_host"],
                checking_host=payload["checking_host"],
                keystore=keystore,
            )
            # Bit-for-bit: the canonical encodings must be identical.
            assert canonical_encode(verdict.to_canonical()) == \
                canonical_encode(request.expected)


class TestCorruption:
    def test_fraction_zero_is_identity(self):
        stream = _stream()
        requests, flipped = corrupt_requests(stream.requests, 0.0)
        assert flipped == 0
        assert requests == stream.requests

    def test_corruption_is_deterministic_and_flips_expectations(self):
        stream = _stream()
        one, flipped_one = corrupt_requests(stream.requests, 0.5, seed=9)
        two, flipped_two = corrupt_requests(stream.requests, 0.5, seed=9)
        assert flipped_one == flipped_two > 0
        assert canonical_encode([r.payload for r in one]) == \
            canonical_encode([r.payload for r in two])
        corrupted = [r for r in one if r.op == "verify" and r.expected is False]
        assert len(corrupted) == flipped_one

    def test_corrupted_signatures_fail_real_verification(self):
        stream = _stream()
        requests, flipped = corrupt_requests(stream.verify_requests, 1.0)
        assert flipped == len(requests)
        keystore = build_service_keystore(_CONFIG.num_hosts)
        for request in requests[:5]:
            public_key = keystore.maybe_get(request.payload["signer"])
            signature = RecoverableSignature.from_canonical(
                request.payload["signature"]
            )
            assert not public_key.verify_recoverable(
                request.payload["message"], signature
            )

    def test_session_requests_pass_through_unchanged(self):
        stream = _stream()
        requests, flipped = corrupt_requests(stream.session_requests, 1.0)
        assert flipped == 0
        assert requests == stream.session_requests


class TestObserverHook:
    def test_transfer_verifier_observer_sees_every_envelope(self):
        from repro.crypto.batch import BatchedTransferVerifier
        from repro.crypto.keys import KeyStore

        keystore = KeyStore()
        identity = Identity.generate("observer-host")
        keystore.register_identity(identity)

        class _FakeHost:
            name = "observer-host"

            def sign_recoverable(self, payload, category=None, message=None):
                from repro.crypto.signing import Signer

                return Signer(identity, keystore).sign_recoverable(
                    payload, message=message
                )

        seen = []
        verifier = BatchedTransferVerifier(
            keystore, observer=lambda envelope, journey: seen.append(
                (envelope.signer, journey)
            ),
        )
        verifier.bind("j42")
        sender = _FakeHost()
        receiver = _FakeHost()
        assert verifier.verify_transfer(sender, receiver, {"k": 1})
        verifier.flush()
        assert seen == [("observer-host", "j42")]
