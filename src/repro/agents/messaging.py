"""Inter-agent / partner messaging.

The paper's input definition includes "communication with partners
residing on other hosts".  To exercise that part of the model the
platform offers mailboxes: communication partners deposit messages into
a named mailbox, and the agent consumes them through
``context.receive_message(mailbox)`` — which records the message as
input, so re-execution can replay it.

Messages can optionally be *signed by the producing party*, the
extension Section 4.3 proposes against hosts lying about input: a
checker can then verify the provenance of every replayed message.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.crypto.keys import KeyStore
from repro.crypto.signing import SignedEnvelope, Signer
from repro.crypto.dsa import DSASignature
from repro.exceptions import AgentError

__all__ = ["PartnerMessage", "Mailbox", "MessageBoard", "verify_signed_message"]


@dataclass(frozen=True)
class PartnerMessage:
    """A message from a communication partner to an agent.

    ``signature_envelope`` is the canonical form of a
    :class:`~repro.crypto.signing.SignedEnvelope` over the body when the
    sender signed the message, otherwise ``None``.
    """

    sender: str
    mailbox: str
    body: Any
    signature_envelope: Optional[Dict[str, Any]] = None

    def to_canonical(self) -> Dict[str, Any]:
        return {
            "sender": self.sender,
            "mailbox": self.mailbox,
            "body": self.body,
            "signature_envelope": self.signature_envelope,
        }


def verify_signed_message(message_canonical: Dict[str, Any],
                          keystore: KeyStore) -> bool:
    """Verify the producer signature carried inside a message value.

    ``message_canonical`` is the canonical dictionary form of a
    :class:`PartnerMessage` as it appears in an input log.  Unsigned
    messages verify as ``False`` — callers that require signed input
    must treat them as unauthenticated.
    """
    envelope_data = message_canonical.get("signature_envelope")
    if not envelope_data:
        return False
    envelope = SignedEnvelope(
        payload=envelope_data["payload"],
        signer=envelope_data["signer"],
        signature=DSASignature.from_canonical(envelope_data["signature"]),
    )
    if envelope.payload != message_canonical.get("body"):
        return False
    if envelope.signer != message_canonical.get("sender"):
        return False
    return envelope.verify(keystore)


class Mailbox:
    """FIFO queue of messages destined for one agent mailbox name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._queue: Deque[PartnerMessage] = deque()
        self._history: List[PartnerMessage] = []

    def deposit(self, message: PartnerMessage) -> None:
        """Add a message to the queue."""
        self._queue.append(message)
        self._history.append(message)

    def take(self) -> PartnerMessage:
        """Remove and return the oldest message.

        Raises
        ------
        AgentError
            If the mailbox is empty — the agent asked for input that was
            never produced, which is a programming error (or an attack
            scenario that should use an injector instead).
        """
        if not self._queue:
            raise AgentError("mailbox %r is empty" % self.name)
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def history(self) -> Tuple[PartnerMessage, ...]:
        """All messages ever deposited, in order."""
        return tuple(self._history)


class MessageBoard:
    """All mailboxes known to one host.

    The board is part of the host's environment: when an agent calls
    ``context.receive_message(mailbox)``, the host's input environment
    takes the next message from the corresponding mailbox and the value
    (the message's canonical form) is recorded in the input log.
    """

    def __init__(self) -> None:
        self._mailboxes: Dict[str, Mailbox] = {}

    def mailbox(self, name: str) -> Mailbox:
        """Return (creating if necessary) the mailbox called ``name``."""
        if name not in self._mailboxes:
            self._mailboxes[name] = Mailbox(name)
        return self._mailboxes[name]

    def deposit(self, sender: str, mailbox: str, body: Any,
                signer: Optional[Signer] = None) -> PartnerMessage:
        """Deposit a message, optionally signing it as the producer."""
        envelope_canonical = None
        if signer is not None:
            envelope_canonical = signer.sign(body).to_canonical()
        message = PartnerMessage(
            sender=sender,
            mailbox=mailbox,
            body=body,
            signature_envelope=envelope_canonical,
        )
        self.mailbox(mailbox).deposit(message)
        return message

    def take(self, mailbox: str) -> PartnerMessage:
        """Take the next message from ``mailbox``."""
        return self.mailbox(mailbox).take()
