"""Batched signature verification: one settle step for every caller.

Fleet-scale simulation turns signature verification into the dominant
cost: every migration is signed and verified as a whole.  Many
commitment-carrying signatures can be settled with one randomized
batch equation (:func:`repro.crypto.dsa.batch_verify`), falling back
to :func:`~repro.crypto.dsa.find_invalid` only to name the bad ones.

:func:`verify_window` is that settle step.  The verification service
settles its micro-batch windows with it, and
:class:`BatchedTransferVerifier`, the fleet's one transfer-check path,
settles with it behind the ``verify_transfer`` hook of
:class:`~repro.platform.registry.JourneyRunner`.  Fleet transfer
signatures are always valid, the case batching wins (Bellare, Garay
and Rabin, Eurocrypt '98).  Failures are deferred to flush time — the
right trade for a discrete-event fleet, where a bad transfer signature
surfaces as a reported failure rather than an exception on the hot path.
"""

from __future__ import annotations

from random import Random, SystemRandom
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.backend import get_backend
from repro.crypto.dsa import batch_verify, find_invalid
from repro.crypto.keys import KeyStore

__all__ = ["BatchedTransferVerifier", "verify_window"]

_SYSTEM_RANDOM = SystemRandom()

#: Pending transfer checks that trigger a settlement on enqueue.
TRANSFER_WINDOW = 64


def verify_window(
    items: Sequence[Any], rng: Optional[Random] = None
) -> List[bool]:
    """Settle ``(public_key, message, signature)`` items; one verdict each.

    Two or more items go through one batch equation, and
    :func:`~repro.crypto.dsa.find_invalid` names the bad ones when it
    fails.  A single item takes the plain
    :meth:`~repro.crypto.dsa.DSAPublicKey.verify_recoverable` path:
    the one-item batch equation costs more than individual
    verification.  ``rng`` is the source of the random batch exponents;
    the default, :class:`random.SystemRandom`, is what the batch test's
    soundness against adversarial streams requires, so pass a seeded
    generator only to reproduce non-adversarial benchmarks.
    """
    if len(items) == 1:
        public_key, message, signature = items[0]
        return [public_key.verify_recoverable(message, signature)]
    if batch_verify(items, rng=rng if rng is not None else _SYSTEM_RANDOM):
        return [True] * len(items)
    bad = set(find_invalid(items))
    return [index not in bad for index in range(len(items))]


class BatchedTransferVerifier:
    """Whole-transfer signing/verification with deferred batch settling.

    Drop-in for the eager sign-and-verify pair of
    :class:`~repro.platform.registry.JourneyRunner`: the sender signs
    the transfer with a recoverable signature, the verification is
    queued, and ``verify_transfer`` returns optimistically.  A full
    window of :data:`TRANSFER_WINDOW` pending checks settles at once
    through :func:`verify_window`; :meth:`flush` settles the rest.
    Failures surface through :attr:`deferred_failures` — callers that
    need per-journey attribution pass a ``journey`` label via
    :meth:`bind`.  A signer the keystore does not know fails closed at
    once and never enters a window.
    """

    def __init__(
        self,
        keystore: KeyStore,
        observer: Optional[Callable[..., None]] = None,
    ) -> None:
        self.keystore = keystore
        #: ``{"journey": ..., "sender": ..., "receiver": ...}`` per failure.
        self.deferred_failures: List[Dict[str, Any]] = []
        #: Optional tap called with ``(envelope, journey)`` for every
        #: transfer queued for verification.  The verification service's
        #: journey-replay source (:mod:`repro.sim.requests`) uses it to
        #: capture the exact signed wire traffic of a fleet run.
        self.observer = observer
        self._journey: Optional[str] = None
        #: Queued ``(public_key, message, signature)`` items and the
        #: failure context of each, index for index.
        self._items: List[Tuple[Any, bytes, Any]] = []
        self._contexts: List[Dict[str, Any]] = []
        self.verified = 0
        self.failed = 0
        self.batches = 0

    def bind(self, journey: Optional[str]) -> None:
        """Attribute subsequently queued transfers to ``journey``."""
        self._journey = journey

    def verify_transfer(self, sender: Any, receiver: Any, payload: Any,
                        message: Optional[bytes] = None) -> bool:
        """Sign ``payload`` as ``sender``, queue the receiver-side check.

        ``message`` optionally supplies the canonical encoding of
        ``payload``; the migration path passes the wire bytes it already
        computed, so the transfer is encoded exactly once per hop.
        """
        if message is None:
            # Duck-typed hosts (test fakes) may not accept the keyword.
            envelope = sender.sign_recoverable(payload, category="sign_verify")
        else:
            envelope = sender.sign_recoverable(
                payload, category="sign_verify", message=message
            )
        if self.observer is not None:
            self.observer(envelope, self._journey)
        context = {
            "journey": self._journey,
            "sender": sender.name,
            "receiver": receiver.name,
        }
        public_key = self.keystore.maybe_get(envelope.signer)
        if public_key is None:
            self.failed += 1
            self.deferred_failures.append(context)
            return True
        self._items.append(
            (public_key, envelope.message(), envelope.signature)
        )
        self._contexts.append(context)
        if len(self._items) >= TRANSFER_WINDOW:
            self.flush()
        return True

    def flush(self) -> None:
        """Settle every queued transfer verification."""
        if not self._items:
            return
        items, self._items = self._items, []
        contexts, self._contexts = self._contexts, []
        self.batches += 1
        for context, valid in zip(contexts, verify_window(items)):
            if valid:
                self.verified += 1
            else:
                self.failed += 1
                self.deferred_failures.append(context)

    def stats(self) -> Dict[str, Any]:
        """Aggregate verifier statistics for reporting."""
        return {
            "verified": self.verified,
            "failed": self.failed,
            "batches": self.batches,
            "deferred_failures": len(self.deferred_failures),
            # The arithmetic engine behind every verification above —
            # throughput numbers are meaningless without it.
            "backend": get_backend().name,
        }
