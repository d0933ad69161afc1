"""Tests for signed envelopes and signed statements."""

from __future__ import annotations

import pytest

from repro.crypto.canonical import (
    CanonicalSpan,
    canonical_copy,
    canonical_decode,
    canonical_encode,
)
from repro.crypto.keys import Identity, KeyStore
from repro.crypto.signing import SignedEnvelope, SignedStatement, Signer
from repro.exceptions import SignatureError


@pytest.fixture
def principals():
    keystore = KeyStore()
    alice = Identity.generate("alice")
    bob = Identity.generate("bob")
    mallory = Identity.generate("mallory")
    keystore.register_identity(alice)
    keystore.register_identity(bob)
    # mallory is deliberately NOT registered: signatures by unknown
    # principals must not verify.
    return {
        "keystore": keystore,
        "alice": Signer(alice, keystore),
        "bob": Signer(bob, keystore),
        "mallory": Signer(mallory, keystore),
        "alice_identity": alice,
        "bob_identity": bob,
    }


class TestSignedEnvelope:
    def test_sign_and_verify(self, principals):
        envelope = principals["alice"].sign({"state": [1, 2, 3]})
        assert envelope.signer == "alice"
        assert envelope.verify(principals["keystore"])

    def test_payload_tampering_fails(self, principals):
        envelope = principals["alice"].sign({"amount": 100})
        tampered = SignedEnvelope(payload={"amount": 1},
                                  signer=envelope.signer,
                                  signature=envelope.signature)
        assert not tampered.verify(principals["keystore"])

    def test_signer_substitution_fails(self, principals):
        envelope = principals["alice"].sign({"amount": 100})
        forged = SignedEnvelope(payload=envelope.payload, signer="bob",
                                signature=envelope.signature)
        assert not forged.verify(principals["keystore"])

    def test_unknown_signer_fails(self, principals):
        envelope = principals["mallory"].sign({"amount": 100})
        assert not envelope.verify(principals["keystore"])

    def test_expected_signer_pinning(self, principals):
        envelope = principals["alice"].sign("payload")
        assert principals["bob"].verify(envelope, expected_signer="alice")
        assert not principals["bob"].verify(envelope, expected_signer="bob")


class TestSignedStatement:
    PAYLOAD = {"role": "manifest", "digests": ["ab", "cd"], "hop": 2}

    def test_verifies_over_its_own_bytes(self, principals):
        statement = principals["alice"].sign_statement(self.PAYLOAD)
        assert statement.body.data == canonical_encode(self.PAYLOAD)
        assert statement.verify(principals["keystore"])
        assert statement.payload() == self.PAYLOAD

    def test_encodes_like_an_envelope_over_the_same_payload(self, principals):
        statement = principals["alice"].sign_statement(self.PAYLOAD)
        envelope = SignedEnvelope(self.PAYLOAD, statement.signer,
                                  statement.signature)
        assert canonical_encode([statement]) == canonical_encode(
            [envelope.to_canonical()]
        )

    def test_is_shared_by_a_canonical_copy(self, principals):
        statement = principals["alice"].sign_statement(self.PAYLOAD)
        assert canonical_copy({"history": [statement]})["history"][0] \
            is statement

    def test_decoded_form_verifies_and_decodes(self, principals):
        statement = principals["alice"].sign_statement(self.PAYLOAD)
        wire = canonical_decode(canonical_encode(statement))
        received = SignedStatement.from_canonical(wire)
        assert received == statement
        assert received.verify(principals["keystore"])
        assert received.payload() == self.PAYLOAD

    def test_altered_bytes_do_not_verify(self, principals):
        statement = principals["alice"].sign_statement(self.PAYLOAD)
        forged = SignedStatement(
            body=CanonicalSpan.of(dict(self.PAYLOAD, hop=3)),
            signer=statement.signer,
            signature=statement.signature,
        )
        assert not forged.verify(principals["keystore"])

    def test_unknown_signer_does_not_verify(self, principals):
        statement = principals["mallory"].sign_statement(self.PAYLOAD)
        assert not statement.verify(principals["keystore"])

    @pytest.mark.parametrize("data", [
        "x",
        None,
        {"payload": {}, "signer": ["alice"], "signature": {"r": 1, "s": 1}},
        {"payload": {}, "signer": "alice"},
        {"payload": {}, "signer": "alice", "signature": "x"},
    ])
    def test_malformed_canonical_forms_raise(self, data):
        with pytest.raises(SignatureError):
            SignedStatement.from_canonical(data)

