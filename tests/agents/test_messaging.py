"""Tests for mailboxes, message boards, and signed partner messages."""

from __future__ import annotations

import pytest

from repro.agents.messaging import MessageBoard, PartnerMessage, verify_signed_message
from repro.crypto.keys import Identity, KeyStore
from repro.crypto.signing import Signer
from repro.exceptions import AgentError


@pytest.fixture
def board_setup():
    keystore = KeyStore()
    partner = Identity.generate("airline")
    keystore.register_identity(partner)
    return {
        "board": MessageBoard(),
        "keystore": keystore,
        "signer": Signer(partner, keystore),
    }


class TestMailboxes:
    def test_deposit_and_take_fifo(self, board_setup):
        board = board_setup["board"]
        board.deposit("airline", "offers", {"price": 100})
        board.deposit("airline", "offers", {"price": 90})
        assert len(board.mailbox("offers")) == 2
        first = board.take("offers")
        second = board.take("offers")
        assert first.body == {"price": 100}
        assert second.body == {"price": 90}
        assert len(board.mailbox("offers")) == 0

    def test_taking_from_empty_mailbox_raises(self, board_setup):
        with pytest.raises(AgentError):
            board_setup["board"].take("empty")

    def test_history_is_preserved(self, board_setup):
        board = board_setup["board"]
        board.deposit("airline", "offers", 1)
        board.take("offers")
        assert len(board.mailbox("offers").history) == 1


class TestSignedMessages:
    def test_signed_message_verifies(self, board_setup):
        board = board_setup["board"]
        message = board.deposit("airline", "offers", {"price": 100},
                                signer=board_setup["signer"])
        assert message.signature_envelope is not None
        assert verify_signed_message(message.to_canonical(), board_setup["keystore"])

    def test_unsigned_message_does_not_verify(self, board_setup):
        board = board_setup["board"]
        message = board.deposit("airline", "offers", {"price": 100})
        assert message.signature_envelope is None
        assert not verify_signed_message(message.to_canonical(), board_setup["keystore"])

    def test_body_tampering_breaks_verification(self, board_setup):
        board = board_setup["board"]
        message = board.deposit("airline", "offers", {"price": 100},
                                signer=board_setup["signer"])
        tampered = message.to_canonical()
        tampered["body"] = {"price": 1}
        assert not verify_signed_message(tampered, board_setup["keystore"])

    def test_sender_spoofing_breaks_verification(self, board_setup):
        board = board_setup["board"]
        message = board.deposit("airline", "offers", {"price": 100},
                                signer=board_setup["signer"])
        spoofed = message.to_canonical()
        spoofed["sender"] = "competitor"
        assert not verify_signed_message(spoofed, board_setup["keystore"])

    def test_unknown_signer_does_not_verify(self, board_setup):
        keystore = KeyStore()  # empty: nobody is known
        board = board_setup["board"]
        message = board.deposit("airline", "offers", 1, signer=board_setup["signer"])
        assert not verify_signed_message(message.to_canonical(), keystore)

    def test_partner_message_canonical_shape(self):
        message = PartnerMessage(sender="airline", mailbox="offers", body=42)
        canonical = message.to_canonical()
        assert canonical == {
            "sender": "airline", "mailbox": "offers", "body": 42,
            "signature_envelope": None,
        }
