"""Cryptographic substrate for the reference-states framework.

The paper's prototype relied on a pure-Java crypto provider (IAIK-JCE)
for DSA signatures and secure hashes.  This package is the equivalent
substrate for the reproduction, implemented from scratch:

* :mod:`repro.crypto.backend` — pluggable modular-arithmetic engines
  (pure Python, optional gmpy2) with enforced cross-backend
  bit-identity,
* :mod:`repro.crypto.canonical` — deterministic serialization of agent
  states and protocol payloads,
* :mod:`repro.crypto.hashing` — secure hashes of states and traces,
* :mod:`repro.crypto.dsa` — DSA key generation, signing, verification,
  and randomized batch verification,
* :mod:`repro.crypto.batch` — the batch settle step shared by the
  fleet's deferred transfer check and the verification service,
* :mod:`repro.crypto.keys` — identities and key stores,
* :mod:`repro.crypto.signing` — signed envelopes and statements.

Trust in a host comes from the owner's configured trusted hosts, not
from certificates; host public keys come from the key store.
"""

from repro.crypto.backend import (
    BACKEND_ENV_VAR,
    Gmpy2Backend,
    ModArith,
    PythonBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.crypto.batch import BatchedTransferVerifier, verify_window
from repro.crypto.canonical import (
    CanonicalDecoder,
    CanonicalEncoder,
    canonical_decode,
    canonical_encode,
    canonical_equal,
)
from repro.crypto.dsa import (
    DSAParameters,
    DSAPrivateKey,
    DSAPublicKey,
    DSASignature,
    PARAMETERS_512,
    PARAMETERS_1024,
    RecoverableSignature,
    batch_verify,
    find_invalid,
    generate_keypair,
    generate_parameters,
    is_probable_prime,
)
from repro.crypto.hashing import (
    DEFAULT_HASH_ALGORITHM,
    HashCache,
    StateDigest,
    hash_bytes,
    hash_chain,
    hash_value,
)
from repro.crypto.keys import Identity, KeyStore, derive_seed
from repro.crypto.signing import (
    RecoverableEnvelope,
    SignedEnvelope,
    SignedStatement,
    Signer,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "Gmpy2Backend",
    "ModArith",
    "PythonBackend",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "BatchedTransferVerifier",
    "verify_window",
    "CanonicalDecoder",
    "CanonicalEncoder",
    "canonical_decode",
    "canonical_encode",
    "canonical_equal",
    "DSAParameters",
    "DSAPrivateKey",
    "DSAPublicKey",
    "DSASignature",
    "PARAMETERS_512",
    "PARAMETERS_1024",
    "RecoverableSignature",
    "batch_verify",
    "find_invalid",
    "generate_keypair",
    "generate_parameters",
    "is_probable_prime",
    "DEFAULT_HASH_ALGORITHM",
    "HashCache",
    "StateDigest",
    "hash_bytes",
    "hash_chain",
    "hash_value",
    "Identity",
    "KeyStore",
    "derive_seed",
    "RecoverableEnvelope",
    "SignedEnvelope",
    "SignedStatement",
    "Signer",
]
