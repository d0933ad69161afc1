"""Batched DSA verification: correctness before speed.

The randomized batch test must accept exactly the signature sets the
individual verifier accepts; these tests pin the acceptance boundary
(valid batches, tampered components, forged commitments, mixed domain
parameters), the shared settle step, and the fleet's deferred transfer
check built on it.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.crypto.batch import (
    TRANSFER_WINDOW,
    BatchedTransferVerifier,
    verify_window,
)
from repro.crypto.dsa import (
    PARAMETERS_1024,
    RecoverableSignature,
    batch_verify,
    find_invalid,
    generate_keypair,
)
from repro.crypto.keys import Identity, KeyStore
from repro.crypto.signing import Signer


@pytest.fixture(scope="module")
def signers():
    return [generate_keypair(seed=index) for index in range(3)]


def _batch(signers, count):
    items = []
    for index in range(count):
        private, public = signers[index % len(signers)]
        message = b"fleet-transfer-%d" % index
        items.append((public, message, private.sign_recoverable(message)))
    return items


class TestRecoverableSignatures:
    def test_embeds_the_plain_signature(self, signers):
        private, public = signers[0]
        message = b"agent state"
        recoverable = private.sign_recoverable(message)
        plain = private.sign(message)
        assert recoverable.to_signature() == plain
        assert public.verify(message, recoverable.to_signature())

    def test_individual_verification_accepts_and_rejects(self, signers):
        private, public = signers[0]
        message = b"payload"
        signature = private.sign_recoverable(message)
        assert public.verify_recoverable(message, signature)
        assert not public.verify_recoverable(b"other payload", signature)

    def test_forged_commitment_with_matching_r_is_rejected(self, signers):
        """``R mod q == r`` alone must not be enough: the commitment has
        to be the actual group element, else batches could be fooled."""
        private, public = signers[0]
        q, p = public.parameters.q, public.parameters.p
        message = b"payload"
        signature = private.sign_recoverable(message)
        shifted = signature.commitment + q
        if shifted >= p:
            shifted = signature.commitment - q
        forged = RecoverableSignature(
            r=signature.r, s=signature.s, commitment=shifted
        )
        assert forged.commitment % q == signature.r
        assert not public.verify_recoverable(message, forged)

    def test_canonical_round_trip(self, signers):
        private, _ = signers[0]
        signature = private.sign_recoverable(b"x")
        assert RecoverableSignature.from_canonical(
            signature.to_canonical()
        ) == signature


class TestBatchVerify:
    def test_empty_batch_is_valid(self):
        assert batch_verify([])

    def test_valid_batch_accepts(self, signers):
        assert batch_verify(_batch(signers, 24), rng=random.Random(1))

    def test_tampered_s_component_rejects(self, signers):
        items = _batch(signers, 24)
        public, message, signature = items[7]
        q = public.parameters.q
        items[7] = (public, message, RecoverableSignature(
            r=signature.r, s=(signature.s + 1) % q,
            commitment=signature.commitment,
        ))
        assert not batch_verify(items, rng=random.Random(2))
        assert find_invalid(items) == [7]

    def test_swapped_messages_reject(self, signers):
        items = _batch(signers, 6)
        items[0], items[1] = (
            (items[0][0], items[1][1], items[0][2]),
            (items[1][0], items[0][1], items[1][2]),
        )
        assert not batch_verify(items, rng=random.Random(3))
        assert set(find_invalid(items)) == {0, 1}

    def test_mixed_parameters_fall_back_to_individual(self, signers):
        items = _batch(signers, 4)
        private_big, public_big = generate_keypair(PARAMETERS_1024, seed=9)
        message = b"big-key message"
        items.append((public_big, message, private_big.sign_recoverable(message)))
        assert batch_verify(items, rng=random.Random(4))
        q = public_big.parameters.q
        bad = items[-1][2]
        items[-1] = (public_big, message, RecoverableSignature(
            r=bad.r, s=(bad.s + 1) % q, commitment=bad.commitment,
        ))
        assert not batch_verify(items, rng=random.Random(5))


@pytest.mark.parametrize("size", [1, 2, 5])
def test_verify_window_matches_individual_verification(signers, size):
    items = _batch(signers, size)
    if size > 1:
        public, message, signature = items[-1]
        items[-1] = (public, message, RecoverableSignature(
            r=signature.r, s=signature.s + 1,
            commitment=signature.commitment,
        ))
    expected = [public.verify_recoverable(message, signature)
                for public, message, signature in items]
    assert verify_window(items, rng=random.Random(3)) == expected


class _FakeHost:
    """A transfer sender/receiver: a name and a recoverable signer."""

    def __init__(self, name, identity, keystore, forge=False):
        self.name = name
        self._signer = Signer(identity, keystore)
        self._parameters = identity.public_key.parameters
        self._forge = forge

    def sign_recoverable(self, payload, category="sign_verify"):
        envelope = self._signer.sign_recoverable(payload)
        if not self._forge:
            return envelope
        return replace(envelope, signature=_forged_commitment(
            envelope.signature, self._parameters
        ))


def _forged_commitment(signature, parameters):
    """The same ``(r, s)`` with a different commitment, ``R mod q == r``."""
    shifted = signature.commitment + parameters.q
    if shifted >= parameters.p:
        shifted = signature.commitment - parameters.q
    return RecoverableSignature(
        r=signature.r, s=signature.s, commitment=shifted
    )


class TestBatchedTransferVerifier:
    def _hosts(self):
        keystore = KeyStore()
        identity = Identity.generate("sender")
        keystore.register_identity(identity)
        return (keystore, _FakeHost("sender", identity, keystore),
                _FakeHost("receiver", identity, keystore),
                _FakeHost("sender", identity, keystore, forge=True))

    def test_flush_settles_the_queued_transfers(self):
        keystore, sender, receiver, _ = self._hosts()
        verifier = BatchedTransferVerifier(keystore)
        for hop in range(5):
            assert verifier.verify_transfer(sender, receiver, {"hop": hop})
        assert verifier.stats()["verified"] == 0
        verifier.flush()
        stats = verifier.stats()
        assert (stats["verified"], stats["failed"], stats["batches"]) == (5, 0, 1)
        assert verifier.deferred_failures == []
        verifier.flush()
        assert verifier.stats()["batches"] == 1

    def test_a_full_window_settles_on_enqueue(self):
        keystore, sender, receiver, _ = self._hosts()
        verifier = BatchedTransferVerifier(keystore)
        for hop in range(TRANSFER_WINDOW):
            verifier.verify_transfer(sender, receiver, {"hop": hop})
        stats = verifier.stats()
        assert (stats["verified"], stats["batches"]) == (TRANSFER_WINDOW, 1)

    def test_unknown_signer_fails_closed_without_entering_a_window(self):
        keystore, _, receiver, _ = self._hosts()
        stranger = _FakeHost("stranger", Identity.generate("stranger"),
                             keystore)
        verifier = BatchedTransferVerifier(keystore)
        verifier.bind("j00007")
        assert verifier.verify_transfer(stranger, receiver, {"hop": 1})
        assert verifier.deferred_failures == [
            {"journey": "j00007", "sender": "stranger",
             "receiver": "receiver"},
        ]
        verifier.flush()
        stats = verifier.stats()
        assert (stats["failed"], stats["batches"]) == (1, 0)

    def test_forged_commitment_is_rejected_inside_a_window(self):
        """``R mod q == r`` alone must not pass the batch: the forged
        transfer among valid ones is named, and only it."""
        keystore, sender, receiver, forger = self._hosts()
        verifier = BatchedTransferVerifier(keystore)
        for hop in range(4):
            verifier.bind("j%05d" % hop)
            verifier.verify_transfer(sender, receiver, {"hop": hop})
        verifier.bind("j00004")
        verifier.verify_transfer(forger, receiver, {"hop": 4})
        verifier.flush()
        assert [f["journey"] for f in verifier.deferred_failures] == ["j00004"]
        stats = verifier.stats()
        assert (stats["verified"], stats["failed"]) == (4, 1)

    def test_deferred_failure_attribution(self):
        keystore, good_host, receiver, _ = self._hosts()
        # The receiving side's keystore does not know the rogue signer,
        # so its transfer must fail.
        verifier = BatchedTransferVerifier(keystore)
        rogue_host = _FakeHost("rogue", Identity.generate("rogue"), keystore)

        verifier.bind("j00001")
        assert verifier.verify_transfer(good_host, receiver, {"hop": 1})
        verifier.bind("j00002")
        assert verifier.verify_transfer(rogue_host, receiver, {"hop": 2})
        verifier.flush()

        assert len(verifier.deferred_failures) == 1
        failure = verifier.deferred_failures[0]
        assert failure["journey"] == "j00002"
        assert failure["sender"] == "rogue"
        stats = verifier.stats()
        assert stats["verified"] == 1 and stats["failed"] == 1
