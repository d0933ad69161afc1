"""Signed envelopes and statements: authenticated reference data.

The paper's example mechanism requires several signing patterns:

* a host signs the *hash* of a resulting agent state,
* a host signs a whole message (the "plain" agents in Table 1 are
  "signed and verified as a whole"),
* initial states are committed to by both the checking host and the
  checked host ("initial states have to be signed by both the checking
  host and the checked host"),
* input elements may be signed by the party that produced them
  (Section 4.3 "possible extensions").

This module provides :class:`SignedEnvelope` (a payload and one
signature), :class:`RecoverableEnvelope` (the batch-verifiable variant),
:class:`SignedStatement` (a signed payload that keeps the exact bytes it
signed, so it is encoded once however often it travels) and a
:class:`Signer` facade that binds an identity to a key store for
verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.canonical import CanonicalSpan, canonical_encode
from repro.crypto.dsa import DSASignature, RecoverableSignature
from repro.crypto.keys import Identity, KeyStore
from repro.exceptions import SignatureError

__all__ = [
    "SignedEnvelope",
    "RecoverableEnvelope",
    "SignedStatement",
    "Signer",
]


@dataclass(frozen=True)
class SignedEnvelope:
    """A payload together with a single signer's signature.

    The signature is computed over the canonical encoding of
    ``payload``.  The payload itself travels in the clear — the
    mechanisms in the paper provide *integrity and attribution*, not
    confidentiality.
    """

    payload: Any
    signer: str
    signature: DSASignature

    def to_canonical(self) -> dict:
        return {
            "payload": self.payload,
            "signer": self.signer,
            "signature": self.signature.to_canonical(),
        }

    def verify(self, keystore: KeyStore,
               message: Optional[bytes] = None) -> bool:
        """Verify the signature against the signer's registered key.

        ``message`` lets a caller that already holds the canonical
        encoding of the payload (e.g. the migration path, which encodes
        the transfer once for the wire) skip re-encoding it here.
        """
        public_key = keystore.maybe_get(self.signer)
        if public_key is None:
            return False
        if message is None:
            message = canonical_encode(self.payload)
        return public_key.verify(message, self.signature)


@dataclass(frozen=True)
class RecoverableEnvelope:
    """A payload signed with a commitment-carrying DSA signature.

    Same trust semantics as :class:`SignedEnvelope`, but the signature
    keeps the full nonce commitment so many envelopes can be verified
    together via :func:`repro.crypto.dsa.batch_verify` (see
    :func:`repro.crypto.batch.verify_window`).
    """

    payload: Any
    signer: str
    signature: RecoverableSignature

    def message(self) -> bytes:
        """The canonical byte string the signature covers.

        Memoized on the instance: the batch path needs these bytes at
        enqueue time and the signer already computed them at signing
        time, so the envelope carries them along (outside the dataclass
        fields and outside pickles — see ``__getstate__``).
        """
        cached = self.__dict__.get("_message_cache")
        if cached is None:
            cached = canonical_encode(self.payload)
            object.__setattr__(self, "_message_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        return {
            "payload": self.payload,
            "signer": self.signer,
            "signature": self.signature,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def to_canonical(self) -> dict:
        return {
            "payload": self.payload,
            "signer": self.signer,
            "signature": self.signature.to_canonical(),
        }

    def verify(self, keystore: KeyStore) -> bool:
        """Verify individually (commitment consistency included)."""
        public_key = keystore.maybe_get(self.signer)
        if public_key is None:
            return False
        return public_key.verify_recoverable(self.message(), self.signature)


_UNSET = object()


@dataclass(frozen=True)
class SignedStatement:
    """A signed payload that keeps the exact canonical bytes it signed.

    ``body`` holds the payload's canonical encoding as a
    :class:`~repro.crypto.canonical.CanonicalSpan`; the signature covers
    ``body.data``.  Verifying hashes those bytes and encoding splices
    them in, so a statement is encoded once, when it is made, however
    many transfers carry it afterwards.  Its canonical form is that of
    a :class:`SignedEnvelope` over the same payload, and the statement
    memoizes that encoding too.

    Read the payload with :meth:`payload`: the signer's own value for a
    statement made by :meth:`Signer.sign_statement`, the decoded value a
    kept ``body`` carries (see
    :meth:`~repro.crypto.canonical.CanonicalSpan.decoded`), else
    ``body`` decoded strictly, once.  Like an
    :class:`~repro.agents.state.AgentState` snapshot, a statement is
    immutable by contract, so an in-process hop shares it (payload
    included) where a remote receiver would decode the same bytes.
    """

    body: CanonicalSpan
    signer: str
    signature: DSASignature

    @classmethod
    def from_canonical(cls, data: Any) -> "SignedStatement":
        """The statement ``data`` stands for; a statement passes unchanged.

        ``data`` decoded from bytes carries its payload either as a
        value, which is encoded once here to recover the signed bytes,
        or as a :class:`~repro.crypto.canonical.CanonicalSpan` kept by
        the decoder, which becomes ``body`` as it is.

        Raises
        ------
        SignatureError
            If ``data`` is not a statement's canonical form.
        """
        if type(data) is cls:
            return data
        try:
            signer = data["signer"]
            if not isinstance(signer, str):
                raise TypeError("signer is not a string")
            return cls(
                body=CanonicalSpan.of(data["payload"]),
                signer=signer,
                signature=DSASignature.from_canonical(data["signature"]),
            )
        except Exception as exc:
            raise SignatureError("malformed signed statement: %s" % exc) from exc

    def payload(self) -> Any:
        """The signed payload (read-only: it is shared, not copied)."""
        cached = self.__dict__.get("_payload", _UNSET)
        if cached is _UNSET:
            cached = self.body.decoded()
            object.__setattr__(self, "_payload", cached)
        return cached

    def to_canonical(self) -> dict:
        return {
            "payload": self.body,
            "signer": self.signer,
            "signature": self.signature.to_canonical(),
        }

    def __canonical_bytes__(self) -> bytes:
        cached = self.__dict__.get("_encoding")
        if cached is None:
            cached = canonical_encode(self.to_canonical())
            object.__setattr__(self, "_encoding", cached)
        return cached

    def verify(self, keystore: KeyStore,
               message: Optional[bytes] = None) -> bool:
        """Verify the signature over ``body`` against the signer's key.

        ``message`` is accepted for :class:`SignedEnvelope`
        compatibility and ignored: the signed bytes are ``body``.
        """
        public_key = keystore.maybe_get(self.signer)
        if public_key is None:
            return False
        return public_key.verify(self.body.data, self.signature)


class Signer:
    """Facade binding an :class:`Identity` to a :class:`KeyStore`.

    Hosts and owners use a :class:`Signer` to produce envelopes and to
    verify envelopes produced by others, without passing the keystore
    around every call site.
    """

    def __init__(self, identity: Identity, keystore: KeyStore) -> None:
        self._identity = identity
        self._keystore = keystore

    @property
    def name(self) -> str:
        """The signing principal's name."""
        return self._identity.name

    @property
    def keystore(self) -> KeyStore:
        """The key store used for verification."""
        return self._keystore

    def sign(self, payload: Any,
             message: Optional[bytes] = None) -> SignedEnvelope:
        """Sign ``payload`` and return a single-signer envelope.

        ``message`` optionally supplies the precomputed canonical
        encoding of ``payload`` (callers that also ship the payload over
        the wire encode it exactly once).
        """
        if message is None:
            message = canonical_encode(payload)
        signature = self._identity.private_key.sign(message)
        return SignedEnvelope(
            payload=payload, signer=self._identity.name, signature=signature
        )

    def sign_statement(self, payload: Any) -> SignedStatement:
        """Sign ``payload``, keeping its canonical bytes in the statement."""
        body = CanonicalSpan(canonical_encode(payload))
        statement = SignedStatement(
            body=body,
            signer=self._identity.name,
            signature=self._identity.private_key.sign(body.data),
        )
        object.__setattr__(statement, "_payload", payload)
        return statement

    def sign_recoverable(self, payload: Any,
                         message: Optional[bytes] = None) -> RecoverableEnvelope:
        """Sign ``payload`` keeping the nonce commitment for batching."""
        if message is None:
            message = canonical_encode(payload)
        signature = self._identity.private_key.sign_recoverable(message)
        envelope = RecoverableEnvelope(
            payload=payload, signer=self._identity.name, signature=signature
        )
        object.__setattr__(envelope, "_message_cache", message)
        return envelope

    def verify(self, envelope: SignedEnvelope,
               expected_signer: Optional[str] = None,
               message: Optional[bytes] = None) -> bool:
        """Verify an envelope, optionally pinning the expected signer."""
        if expected_signer is not None and envelope.signer != expected_signer:
            return False
        return envelope.verify(self._keystore, message=message)
