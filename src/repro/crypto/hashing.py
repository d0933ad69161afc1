"""Secure hashing of agent states, inputs, and traces.

The protection mechanisms of the paper never transport full reference
data when a commitment suffices: Vigna's traces approach sends only a
*hash* of the trace and of the resulting agent state to the next host;
Hohl's example protocol signs hashes of initial and resulting states.

This module wraps :mod:`hashlib` with the library's canonical encoding
so that "hash of an agent state" is a single, well-defined operation.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.crypto.canonical import canonical_encode

__all__ = [
    "StateDigest",
    "HashCache",
    "hash_bytes",
    "hash_value",
    "hash_chain",
    "DEFAULT_HASH_ALGORITHM",
]

#: Hash algorithm used throughout the library.  The paper's prototype
#: used SHA-1 via IAIK-JCE; we default to SHA-256 which preserves the
#: protocol structure while being a respectable modern choice.
DEFAULT_HASH_ALGORITHM = "sha256"


@dataclass(frozen=True)
class StateDigest:
    """A digest of a canonical value together with its algorithm.

    Instances are immutable and hashable so they can be used as keys in
    bookkeeping tables (e.g. "which host committed to which resulting
    state").
    """

    algorithm: str
    digest: bytes

    def hex(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest.hex()

    def to_canonical(self) -> dict:
        """Canonical representation, so digests can themselves be signed."""
        return {"algorithm": self.algorithm, "digest": self.digest}

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return "%s:%s" % (self.algorithm, self.hex()[:16])


def hash_bytes(data: bytes, algorithm: str = DEFAULT_HASH_ALGORITHM) -> StateDigest:
    """Hash raw bytes with ``algorithm`` and return a :class:`StateDigest`."""
    hasher = hashlib.new(algorithm)
    hasher.update(data)
    return StateDigest(algorithm=algorithm, digest=hasher.digest())


def hash_value(value: Any, algorithm: str = DEFAULT_HASH_ALGORITHM) -> StateDigest:
    """Hash an arbitrary encodable value via its canonical encoding.

    This is the operation the paper calls "a hash of the resulting agent
    state": the state is first brought into the deterministic canonical
    form, then hashed.
    """
    return hash_bytes(canonical_encode(value), algorithm=algorithm)


def hash_chain(
    values: Iterable[Any], algorithm: str = DEFAULT_HASH_ALGORITHM
) -> StateDigest:
    """Hash a sequence of values as a chain.

    Each element is canonically encoded and fed into the hash preceded
    by its length, so the chain hash distinguishes ``["ab", "c"]`` from
    ``["a", "bc"]``.  Used for execution traces, where the trace grows
    with every statement and we want an incremental commitment.
    """
    hasher = hashlib.new(algorithm)
    for value in values:
        encoded = canonical_encode(value)
        hasher.update(str(len(encoded)).encode("ascii"))
        hasher.update(b":")
        hasher.update(encoded)
    return StateDigest(algorithm=algorithm, digest=hasher.digest())


class HashCache:
    """Identity-keyed memo for canonical encodings and digests.

    Fleet-scale runs canonically encode the *same* snapshot objects
    over and over — an arriving state is encoded for the dual
    commitment, for the arrival-consistency comparison, and again for
    the re-execution verdict.  The cache keys by object identity
    (guarded by a weak reference so a recycled ``id`` can never alias a
    dead object) and therefore must only be used for values treated as
    immutable snapshots, which is the library-wide contract for
    :class:`~repro.agents.state.AgentState` and reference data.

    Values that cannot be weak-referenced (plain dicts, lists) are
    encoded directly without caching — correct, just not accelerated.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[weakref.ref, bytes]] = {}
        self.hits = 0
        self.misses = 0

    def encode(self, value: Any) -> bytes:
        """Canonical encoding of ``value``, memoized per object."""
        return self.encode_object(value, lambda: canonical_encode(value))

    def encode_object(self, value: Any, build: "Callable[[], bytes]") -> bytes:
        """Memoized encoding with a caller-supplied encoder thunk.

        This is the primitive behind the ``__canonical_bytes__`` splice
        hook of :class:`~repro.crypto.canonical.CanonicalEncoder`: a
        snapshot class memoizes the encoding of its ``to_canonical()``
        form here, and ``build`` exists precisely so the hook's
        implementation can encode that form *without* re-entering the
        hook (which would recurse forever).
        """
        key = id(value)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is value:
            self.hits += 1
            return entry[1]
        encoded = build()
        try:
            ref = weakref.ref(value, lambda _, key=key: self._entries.pop(key, None))
        except TypeError:
            return encoded
        self.misses += 1
        self._entries[key] = (ref, encoded)
        return encoded

    def digest(self, value: Any,
               algorithm: str = DEFAULT_HASH_ALGORITHM) -> StateDigest:
        """Memoized equivalent of :func:`hash_value`."""
        return hash_bytes(self.encode(value), algorithm=algorithm)

    def clear(self) -> None:
        """Drop all memoized encodings (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Hit/miss counters, current size, and the lifetime hit rate."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
            "hit_rate": (self.hits / total) if total else 0.0,
        }
