"""LRU verdict cache for the verification service.

Signature verification is a pure function of ``(signer, message,
signature)``, so a verdict observed once holds forever and can be
served from memory.  The cache key binds the *digest* of the message to
the full ``(r, s, commitment)`` triple: two requests that differ in any
of those five components occupy different entries, so a cached verdict
can never be served across differing digests or signatures — the
staleness property ``tests/service/test_cache.py`` pins down.

A session check is a pure function too, of the checking host, the
checked host and the exact bytes of its two spans.
:meth:`VerdictCache.session_key` binds all four under an op tag; a
session key is a pair and a verify key a 5-tuple, so the two kinds can
share one cache and never one entry.

The service sees *recurring* traffic — loadgen replays, retried
requests, hot signers — so eviction is LRU: every hit refreshes the
entry's position and the working set stays resident.

Entries may carry a **tag** (the cluster gateway tags each verdict with
the backend that produced it).  :meth:`VerdictCache.invalidate` drops
every entry under a tag in one call — the explicit invalidation hook
the gateway fires when a verifier backend restarts, so a replaced
process never has stale verdicts attributed to it.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Dict, Optional, Set, Tuple

from repro.crypto.dsa import RecoverableSignature
from repro.crypto.hashing import hash_bytes

__all__ = ["SessionKey", "VerdictCache", "VerdictKey"]

#: Content key of one verification: (signer, message digest, r, s, R).
VerdictKey = Tuple[str, bytes, int, int, int]
#: Content key of one session check: the op tag, then (checking host,
#: checked host, sha256 of ``prev_session``, sha256 of
#: ``observed_state``).
SessionKey = Tuple[str, Tuple[str, Optional[str], bytes, bytes]]


class VerdictCache:
    """Bounded LRU map from verification content keys to verdicts."""

    def __init__(self, max_entries: int = 65536) -> None:
        self._entries: "OrderedDict[Any, Tuple[Any, Optional[str]]]" = (
            OrderedDict()
        )
        self._tagged: Dict[str, Set[Any]] = {}
        self.max_entries = max(1, int(max_entries))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def key(signer: str, message: bytes,
            signature: RecoverableSignature) -> VerdictKey:
        """Content key: signer, message digest, and the full signature."""
        digest = hash_bytes(message).digest
        return (signer, digest, signature.r, signature.s,
                signature.commitment)

    @staticmethod
    def session_key(checking_host: str, checked_host: Optional[str],
                    prev_session: bytes,
                    observed_state: bytes) -> SessionKey:
        """Content key of a session check over its exact span bytes."""
        return ("check-session", (
            checking_host, checked_host,
            hashlib.sha256(prev_session).digest(),
            hashlib.sha256(observed_state).digest(),
        ))

    def get(self, key: Any) -> Optional[Any]:
        """Cached verdict for ``key`` (refreshing recency), else ``None``."""
        try:
            verdict, _tag = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return verdict

    def put(self, key: Any, verdict: Any,
            tag: Optional[str] = None) -> None:
        """Record a verdict, evicting the least recently used beyond cap.

        ``tag`` attributes the entry to a producer (a cluster backend);
        tagged entries can be dropped wholesale with
        :meth:`invalidate`.
        """
        if key in self._entries:
            self._discard_tag(key)
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.max_entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self._discard_tag(evicted_key)
            self.evictions += 1
        self._entries[key] = (verdict, tag)
        if tag is not None:
            self._tagged.setdefault(tag, set()).add(key)

    def invalidate(self, tag: str) -> int:
        """Drop every entry recorded under ``tag``; returns the count.

        The gateway calls this when a backend restarts (its instance id
        changed between health probes): every verdict the old process
        produced is discarded in one sweep.
        """
        keys = self._tagged.pop(tag, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            if self._entries.pop(key, None) is not None:
                dropped += 1
        self.invalidations += dropped
        return dropped

    def _discard_tag(self, key: Any) -> None:
        """Remove ``key`` from its tag index entry, if it has one."""
        entry = self._entries.get(key)
        if entry is None:
            return
        tag = entry[1]
        if tag is not None:
            members = self._tagged.get(tag)
            if members is not None:
                members.discard(key)
                if not members:
                    self._tagged.pop(tag, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction/invalidation counters and the hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self),
            "max_entries": self.max_entries,
            "hit_rate": (self.hits / total) if total else 0.0,
        }
