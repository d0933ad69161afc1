"""Key pairs, identities, and key stores.

Every principal in the simulation (hosts, agent owners, trusted third
parties, input-producing shops) owns a DSA key pair and is known to the
others by name.  The :class:`KeyStore` plays the role of the public-key
infrastructure directory the paper implicitly assumes: verifiers look up
the public key of the host that claims to have signed a state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.crypto.dsa import (
    DSAParameters,
    DSAPrivateKey,
    DSAPublicKey,
    PARAMETERS_512,
    generate_keypair,
)
from repro.exceptions import KeyError_

__all__ = ["Identity", "KeyStore", "derive_seed"]


#: Process-wide memo of deterministically generated identities, keyed by
#: ``(name, p, q, g)``.  Bounded FIFO so unbounded name streams (property
#: tests) cannot grow it without limit.
_IDENTITY_CACHE: Dict[Tuple[str, int, int, int], "Identity"] = {}
_IDENTITY_CACHE_MAX = 8192


def derive_seed(name: str) -> int:
    """Derive a deterministic integer seed from a principal name.

    Identical scenario definitions then yield identical keys, which in
    turn makes protocol transcripts reproducible across runs.
    """
    import hashlib

    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class Identity:
    """A named principal with a DSA key pair.

    Attributes
    ----------
    name:
        Globally unique principal name (host address, owner name, ...).
    private_key:
        The principal's private signing key.  Only the principal itself
        holds an :class:`Identity`; everyone else sees just the
        public key through the :class:`KeyStore`.
    """

    name: str
    private_key: DSAPrivateKey

    @property
    def public_key(self) -> DSAPublicKey:
        """The public counterpart of the private key."""
        return self.private_key.public_key

    @property
    def fingerprint(self) -> str:
        """Stable identifier for the public key."""
        return self.public_key.fingerprint()

    @classmethod
    def generate(cls, name: str,
                 parameters: DSAParameters = PARAMETERS_512) -> "Identity":
        """Create an identity with a key pair derived from ``name``.

        Generation is a pure function of ``(name, parameters)`` — the
        key-derivation seed comes from the name alone — so results are
        memoized process-wide.  Every fleet (and every service run)
        that rebuilds the same topology therefore reuses one key pair
        per host instead of re-running key generation, and reuses that
        key's cached fixed-base tables with it.
        """
        cache_key = (name, parameters.p, parameters.q, parameters.g)
        identity = _IDENTITY_CACHE.get(cache_key)
        if identity is None:
            private, _public = generate_keypair(parameters, seed=derive_seed(name))
            identity = cls(name=name, private_key=private)
            if len(_IDENTITY_CACHE) >= _IDENTITY_CACHE_MAX:
                _IDENTITY_CACHE.pop(next(iter(_IDENTITY_CACHE)))
            _IDENTITY_CACHE[cache_key] = identity
        return identity


class KeyStore:
    """Directory mapping principal names to public keys.

    The key store models the PKI assumption of the paper: "the mechanism
    uses digital signatures ... to authenticate the data a host
    produces" presumes every checker can resolve a host name to a
    trusted public key.  In the simulation this is a plain in-memory
    registry shared (by reference or by copy) between hosts.
    """

    def __init__(self) -> None:
        self._public_keys: Dict[str, DSAPublicKey] = {}

    def register(self, name: str, public_key: DSAPublicKey) -> None:
        """Register (or re-register) a principal's public key."""
        self._public_keys[name] = public_key

    def register_identity(self, identity: Identity) -> None:
        """Register the public half of an :class:`Identity`."""
        self.register(identity.name, identity.public_key)

    def get(self, name: str) -> DSAPublicKey:
        """Return the public key registered for ``name``.

        Raises
        ------
        KeyError_
            If the principal is unknown.
        """
        try:
            return self._public_keys[name]
        except KeyError as exc:
            raise KeyError_("no public key registered for %r" % name) from exc

    def maybe_get(self, name: str) -> Optional[DSAPublicKey]:
        """Return the public key for ``name`` or ``None`` if unknown."""
        return self._public_keys.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._public_keys

    def __len__(self) -> int:
        return len(self._public_keys)

    def __iter__(self) -> Iterator[Tuple[str, DSAPublicKey]]:
        return iter(self._public_keys.items())

    def names(self) -> Tuple[str, ...]:
        """Return the registered principal names, sorted."""
        return tuple(sorted(self._public_keys))

    def copy(self) -> "KeyStore":
        """Return a shallow copy of the key store.

        Used when handing a snapshot of the PKI to an agent so that a
        malicious host mutating its own view does not silently change
        what honest verifiers see.
        """
        clone = KeyStore()
        clone._public_keys.update(self._public_keys)
        return clone

