"""Pure-Python DSA (Digital Signature Algorithm).

The paper's prototype signed agent states with DSA using 512-bit keys
from the pure-Java IAIK-JCE library.  This module is the analogous
substrate for the reproduction: a from-scratch DSA implementation
(key generation, signing, verification) over :mod:`hashlib` digests.

Two kinds of domain parameters are supported:

* **Pre-generated parameters** for 512-bit and 1024-bit moduli
  (:data:`PARAMETERS_512`, :data:`PARAMETERS_1024`).  These are the
  defaults used by the library and the benchmarks, mirroring the
  paper's "DSA using a key length of 512 bits" configuration without
  paying prime-generation cost at import time.
* **Parameter generation** (:func:`generate_parameters`) for arbitrary
  sizes.  Tests exercise this with small toy sizes so the generation
  path stays correct without slowing down the suite.

Determinism: signatures use a deterministic per-message nonce derived
from the private key and the message digest (in the spirit of RFC 6979)
so that re-running an experiment with the same seed produces identical
byte-level protocol traffic.  This matters for reproducibility of the
benchmark harness and for property tests.

.. warning::
   This implementation is for simulation and research reproduction.  It
   has not been hardened against side channels and must not be used to
   protect real systems.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.backend import ModArith, get_backend
from repro.exceptions import CryptoError

__all__ = [
    "DSAParameters",
    "DSAPrivateKey",
    "DSAPublicKey",
    "DSASignature",
    "RecoverableSignature",
    "FixedBaseTable",
    "PARAMETERS_512",
    "PARAMETERS_1024",
    "generate_parameters",
    "generate_keypair",
    "is_probable_prime",
    "batch_verify",
    "find_invalid",
]


# ---------------------------------------------------------------------------
# primality testing
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def is_probable_prime(candidate: int, rounds: int = 40,
                      rng: Optional[random.Random] = None) -> bool:
    """Miller-Rabin primality test.

    Parameters
    ----------
    candidate:
        The integer to test.
    rounds:
        Number of Miller-Rabin witnesses to try.  40 rounds give an
        error probability below 2**-80 for random candidates.
    rng:
        Optional random source for witness selection; defaults to a
        module-level deterministic generator so the library's behaviour
        is reproducible.
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    rng = rng or random.Random(0x5EED)
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = rng.randrange(2, candidate - 1)
        x = pow(witness, d, candidate)
        if x == 1 or x == candidate - 1:
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# fixed-base exponentiation
# ---------------------------------------------------------------------------


# Windows of each per-key ``y`` table (a fleet builds one per host) and
# of the one process-wide ``g`` table, which serves ``g^k`` and ``g^u1``.
KEY_WINDOW = 5
GENERATOR_WINDOW = 8


class FixedBaseTable:
    """Windowed precomputation for modular powers of one fixed base.

    DSA spends almost all of its time on three exponentiations whose
    *base* never changes: ``g^k`` when signing, ``g^u1`` and ``y^u2``
    when verifying.  For a fixed base the square-and-multiply ladder is
    wasteful — all the squarings recompute powers that can be tabulated
    once.  This table stores ``base^(j * 2^(w*i))`` for every window
    position ``i`` and window digit ``j``, so one exponentiation with an
    ``n``-bit exponent costs at most ``ceil(n / w)`` modular
    multiplications and **no squarings** (Brickell et al., Eurocrypt
    '92), versus roughly ``n`` squarings plus ``n/2`` multiplications
    for a cold ``pow()``.  ``w`` defaults to :data:`KEY_WINDOW`.

    Tables are sized for exponents up to ``exponent_bits`` (the bit
    length of the subgroup order ``q`` for DSA); larger or negative
    exponents transparently fall back to a plain modular
    exponentiation, so the table is always a drop-in replacement.

    The arithmetic engine is pluggable (``backend``, defaulting to the
    process-wide :func:`~repro.crypto.backend.get_backend`).  The
    columns are built in this process from ``(base, modulus)`` alone and
    never read from anywhere else: a verifier's arithmetic trusts
    nothing but the key it was handed.
    """

    __slots__ = ("base", "modulus", "window", "capacity_bits",
                 "_columns", "_backend")

    def __init__(self, base: int, modulus: int, exponent_bits: int,
                 window: int = KEY_WINDOW,
                 backend: Optional[ModArith] = None) -> None:
        if modulus <= 1:
            raise CryptoError("fixed-base table needs a modulus > 1")
        if window < 1:
            raise CryptoError("fixed-base window must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        num_windows = (max(1, exponent_bits) + window - 1) // window
        self.capacity_bits = num_windows * window
        engine = backend if backend is not None else get_backend()
        self._backend = engine
        self._columns = engine.build_table(
            self.base, modulus, window, num_windows
        )

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` via table lookups."""
        if exponent < 0 or exponent.bit_length() > self.capacity_bits:
            return self._backend.modexp(self.base, exponent, self.modulus)
        return self._backend.table_pow(
            self._columns, self.window, exponent, self.modulus
        )


#: Individual verifications before a per-public-key table pays for
#: itself (building one costs roughly five exponentiations); one-shot
#: verifies stay on the built-in ``pow`` path.
_Y_TABLE_THRESHOLD = 3


# ---------------------------------------------------------------------------
# domain parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DSAParameters:
    """DSA domain parameters ``(p, q, g)``.

    ``p`` is the prime modulus, ``q`` the prime order of the subgroup
    (``q`` divides ``p - 1``), and ``g`` a generator of that subgroup.
    """

    p: int
    q: int
    g: int

    def validate(self) -> None:
        """Check structural soundness of the parameters.

        Raises
        ------
        CryptoError
            If ``q`` does not divide ``p - 1`` or ``g`` does not
            generate a subgroup of order ``q``.
        """
        if (self.p - 1) % self.q != 0:
            raise CryptoError("invalid DSA parameters: q does not divide p-1")
        if not (1 < self.g < self.p):
            raise CryptoError("invalid DSA parameters: generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise CryptoError("invalid DSA parameters: g^q != 1 mod p")

    def generator_table(self) -> FixedBaseTable:
        """Fixed-base table for ``g``, built lazily and cached.

        The table is shared by every signer and verifier using this
        parameter set (the generator is public, common knowledge), so
        process-wide its construction cost amortizes to nothing: it
        alone affords the wide :data:`GENERATOR_WINDOW`.
        """
        table = self.__dict__.get("_g_table")
        if table is None:
            table = FixedBaseTable(self.g, self.p, self.q.bit_length(),
                                   window=GENERATOR_WINDOW)
            object.__setattr__(self, "_g_table", table)
        return table

    def powg(self, exponent: int) -> int:
        """``g ** exponent % p`` through the cached fixed-base table."""
        return self.generator_table().pow(exponent)

    def __getstate__(self) -> dict:
        # Fixed-base tables are caches, not state: they are megabytes of
        # derived integers that every process can rebuild lazily, so
        # they must never ride along in pickles (shard specs cross the
        # process boundary with their FleetConfig-adjacent key material).
        return {"p": self.p, "q": self.q, "g": self.g}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def to_canonical(self) -> dict:
        return {"p": self.p, "q": self.q, "g": self.g}


#: 512-bit parameters matching the paper's measurement configuration.
PARAMETERS_512 = DSAParameters(
    p=int(
        "8d3aed99711c21c9bdc14f1f295d6fbf430f801dfad409e2a319dcb4217d65a0"
        "c56811cd5563f61600e85ecd8e021522869b76116ae5fd8ca28d93886be51729",
        16,
    ),
    q=int("c7294739614ff3d719db3ad0ddd1dfb23b982ef9", 16),
    g=int(
        "88d9df0ac2ec8e41194ec25efe2d2400a19d7a6ae862e183fe5208d5ad2f2596"
        "b7a5253ecf7e35016f67501786308b9460f603b5b32addb2dd6ab258311619da",
        16,
    ),
)

#: Larger 1024-bit parameters, offered for overhead ablations.
PARAMETERS_1024 = DSAParameters(
    p=int(
        "a837f4186f27c1b9e3c6dedb9b792afa2a3d418da754a29ff143e5456e6b34b9"
        "07ef2ba8b45a6ab37b94a34de4aa786d9d17d218fc3b0de5981262ac5683ede0"
        "17d5b563fa60ede1e5eb772df11c0ac58c0b393a13335bc9bb635ff529310971"
        "601e0211e34f76b42b8c03be0e13b3fcf4be1677e71f56617631c58c32279639",
        16,
    ),
    q=int("c7294739614ff3d719db3ad0ddd1dfb23b982ef9", 16),
    g=int(
        "19f41e6ab4b1cfef5f6621e3e05fc512e97f2662b6c9041d44e842888d059833"
        "bd38264bf1dd7ea0e4b89ebe7e85beb1edca8bf930279a3f538fb4c26317c6a1"
        "d0beccb4970938ef66118ac21b9d8559e3a1205594518235f0fad854f2ff9bc0"
        "289cff0662fdfba9320026be02963bdc260b4470491f3642e1d063d8089d49f2",
        16,
    ),
)


def generate_parameters(modulus_bits: int = 512, subgroup_bits: int = 160,
                        seed: Optional[int] = None) -> DSAParameters:
    """Generate fresh DSA domain parameters.

    The search is seeded so that the same seed always yields the same
    parameters.  This function is exercised by the tests with small
    sizes; production callers should prefer the pre-generated
    :data:`PARAMETERS_512` / :data:`PARAMETERS_1024`.
    """
    if subgroup_bits >= modulus_bits:
        raise CryptoError("subgroup size must be smaller than modulus size")
    rng = random.Random(seed if seed is not None else 0xDA7A)
    while True:
        q = rng.getrandbits(subgroup_bits) | (1 << (subgroup_bits - 1)) | 1
        if not is_probable_prime(q, rng=rng):
            continue
        for _ in range(4096):
            m = rng.getrandbits(modulus_bits) | (1 << (modulus_bits - 1))
            p = m - (m % (2 * q)) + 1
            if p.bit_length() != modulus_bits:
                continue
            if is_probable_prime(p, rng=rng):
                h = 2
                while True:
                    g = pow(h, (p - 1) // q, p)
                    if g > 1:
                        params = DSAParameters(p=p, q=q, g=g)
                        params.validate()
                        return params
                    h += 1


# ---------------------------------------------------------------------------
# keys and signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DSASignature:
    """A DSA signature pair ``(r, s)``."""

    r: int
    s: int

    def to_canonical(self) -> dict:
        return {"r": self.r, "s": self.s}

    @classmethod
    def from_canonical(cls, data: dict) -> "DSASignature":
        return cls(r=int(data["r"]), s=int(data["s"]))


@dataclass(frozen=True)
class RecoverableSignature:
    """A DSA signature extended with the full nonce commitment.

    ``commitment`` is the whole group element ``R = g^k mod p`` whose
    reduction ``R mod q`` is the classic ``r`` component.  Standard DSA
    discards ``R``, which is exactly what makes DSA signatures
    impossible to verify in bulk (the outer ``mod q`` destroys the
    group structure).  Keeping ``R`` enables the small-exponent batch
    test of :func:`batch_verify` (Naccache et al., Eurocrypt '94) at
    the cost of one extra group element per signature.

    A recoverable signature always embeds a valid plain signature;
    :meth:`to_signature` downgrades to it losslessly.
    """

    r: int
    s: int
    commitment: int

    def to_signature(self) -> DSASignature:
        """Drop the commitment, yielding the classic ``(r, s)`` pair."""
        return DSASignature(r=self.r, s=self.s)

    def to_canonical(self) -> dict:
        return {"r": self.r, "s": self.s, "commitment": self.commitment}

    @classmethod
    def from_canonical(cls, data: dict) -> "RecoverableSignature":
        return cls(
            r=int(data["r"]), s=int(data["s"]),
            commitment=int(data["commitment"]),
        )


@dataclass(frozen=True)
class DSAPublicKey:
    """A DSA public key ``y = g^x mod p`` with its domain parameters."""

    parameters: DSAParameters
    y: int

    def _y_power(self, exponent: int) -> int:
        """``y ** exponent % p``, table-accelerated after a few uses.

        The first :data:`_Y_TABLE_THRESHOLD` calls use the built-in
        ``pow`` (a one-shot verification should not pay for a table);
        sustained use — every fleet host key — flips to a cached
        :class:`FixedBaseTable`.
        """
        table = self.__dict__.get("_y_table")
        if table is None:
            uses = self.__dict__.get("_y_uses", 0) + 1
            if uses <= _Y_TABLE_THRESHOLD:
                object.__setattr__(self, "_y_uses", uses)
                return get_backend().modexp(
                    self.y, exponent, self.parameters.p
                )
            table = self.precompute()
        return table.pow(exponent)

    def precompute(self) -> FixedBaseTable:
        """Build (or return) the fixed-base table for ``y`` eagerly.

        Worker-pool initializers call this so shard execution starts
        with hot tables instead of paying the build inside the first
        measured verifications.
        """
        table = self.__dict__.get("_y_table")
        if table is None:
            table = FixedBaseTable(
                self.y, self.parameters.p, self.parameters.q.bit_length()
            )
            object.__setattr__(self, "_y_table", table)
        return table

    def __getstate__(self) -> dict:
        # Cached y-tables (and their use counter) are derived data —
        # see DSAParameters.__getstate__; pickles carry key material only.
        return {"parameters": self.parameters, "y": self.y}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def verify(self, message: bytes, signature: DSASignature,
               hash_algorithm: str = "sha256") -> bool:
        """Verify ``signature`` over ``message``.

        Returns ``True`` when the signature is valid, ``False`` when it
        is structurally well-formed but does not verify.  Malformed
        signatures (values out of range) also return ``False`` rather
        than raising, because from the verifier's point of view they are
        simply invalid.
        """
        p, q = self.parameters.p, self.parameters.q
        r, s = signature.r, signature.s
        if not (0 < r < q and 0 < s < q):
            return False
        digest = _message_digest(message, q, hash_algorithm)
        try:
            w = get_backend().invert(s, q)
        except ValueError:  # pragma: no cover - s coprime to prime q always
            return False
        u1 = (digest * w) % q
        u2 = (r * w) % q
        v = ((self.parameters.powg(u1) * self._y_power(u2)) % p) % q
        return v == r

    def verify_recoverable(self, message: bytes,
                           signature: RecoverableSignature,
                           hash_algorithm: str = "sha256") -> bool:
        """Verify a commitment-carrying signature.

        Equivalent to :meth:`verify` on the embedded ``(r, s)`` pair,
        plus the structural check that the transmitted commitment
        really is the group element behind ``r`` — a forged commitment
        would otherwise let a batch pass signatures the plain verifier
        rejects.
        """
        p, q = self.parameters.p, self.parameters.q
        r, s, R = signature.r, signature.s, signature.commitment
        if not (0 < r < q and 0 < s < q and 1 < R < p):
            return False
        if R % q != r:
            return False
        digest = _message_digest(message, q, hash_algorithm)
        try:
            w = get_backend().invert(s, q)
        except ValueError:  # pragma: no cover - s coprime to prime q always
            return False
        u1 = (digest * w) % q
        u2 = (r * w) % q
        return (self.parameters.powg(u1) * self._y_power(u2)) % p == R

    def to_canonical(self) -> dict:
        return {"parameters": self.parameters.to_canonical(), "y": self.y}

    def fingerprint(self) -> str:
        """Short hex fingerprint of the public key, used as a key id."""
        material = ("%x:%x:%x:%x" % (
            self.parameters.p, self.parameters.q, self.parameters.g, self.y,
        )).encode("ascii")
        return hashlib.sha256(material).hexdigest()[:16]


@dataclass(frozen=True)
class DSAPrivateKey:
    """A DSA private key ``x`` with its public counterpart."""

    parameters: DSAParameters
    x: int
    public_key: DSAPublicKey

    def sign(self, message: bytes,
             hash_algorithm: str = "sha256") -> DSASignature:
        """Sign ``message`` and return the ``(r, s)`` signature.

        The per-message nonce ``k`` is derived deterministically from
        the private key and the message digest via HMAC, so signing is
        repeatable and never reuses a nonce across different messages.
        """
        r, s, _ = self._sign_core(message, hash_algorithm)
        return DSASignature(r=r, s=s)

    def sign_recoverable(self, message: bytes,
                         hash_algorithm: str = "sha256") -> RecoverableSignature:
        """Sign ``message`` keeping the full nonce commitment.

        Produces the same ``(r, s)`` pair as :meth:`sign` (the nonce
        derivation is shared), plus the group element ``R = g^k mod p``
        that :func:`batch_verify` needs.
        """
        r, s, commitment = self._sign_core(message, hash_algorithm)
        return RecoverableSignature(r=r, s=s, commitment=commitment)

    def _sign_core(self, message: bytes,
                   hash_algorithm: str) -> Tuple[int, int, int]:
        q = self.parameters.q
        digest = _message_digest(message, q, hash_algorithm)
        counter = 0
        while True:
            k = _deterministic_nonce(self.x, digest, q, counter)
            commitment = self.parameters.powg(k)
            r = commitment % q
            if r == 0:
                counter += 1
                continue
            k_inv = get_backend().invert(k, q)
            s = (k_inv * (digest + self.x * r)) % q
            if s == 0:
                counter += 1
                continue
            return r, s, commitment

    def to_canonical(self) -> dict:
        return {
            "parameters": self.parameters.to_canonical(),
            "x": self.x,
            "y": self.public_key.y,
        }


def _message_digest(message: bytes, q: int, hash_algorithm: str) -> int:
    """Hash a message and truncate the digest to the bit length of q."""
    hasher = hashlib.new(hash_algorithm)
    hasher.update(message)
    digest = int.from_bytes(hasher.digest(), "big")
    excess = digest.bit_length() - q.bit_length()
    if excess > 0:
        digest >>= excess
    return digest


def _deterministic_nonce(x: int, digest: int, q: int, counter: int) -> int:
    """Derive a deterministic nonce in ``[1, q-1]`` (RFC 6979 flavoured)."""
    qlen = (q.bit_length() + 7) // 8
    key = x.to_bytes((x.bit_length() + 7) // 8 or 1, "big")
    msg = digest.to_bytes((digest.bit_length() + 7) // 8 or 1, "big")
    attempt = 0
    while True:
        material = hmac.new(
            key,
            msg + counter.to_bytes(4, "big") + attempt.to_bytes(4, "big"),
            hashlib.sha256,
        ).digest()
        while len(material) < qlen:
            material += hmac.new(key, material, hashlib.sha256).digest()
        k = int.from_bytes(material[:qlen], "big") % q
        if k > 0:
            return k
        attempt += 1


def generate_keypair(parameters: DSAParameters = PARAMETERS_512,
                     seed: Optional[int] = None) -> Tuple[DSAPrivateKey, DSAPublicKey]:
    """Generate a DSA key pair for the given domain parameters.

    Parameters
    ----------
    parameters:
        Domain parameters to use; defaults to the paper-equivalent
        512-bit set.
    seed:
        Optional seed for deterministic key generation.  Hosts in the
        simulation derive their seed from their name so that a scenario
        is byte-for-byte reproducible.
    """
    rng = random.Random(seed if seed is not None else 0xC0FFEE)
    x = rng.randrange(1, parameters.q)
    y = parameters.powg(x)
    public = DSAPublicKey(parameters=parameters, y=y)
    private = DSAPrivateKey(parameters=parameters, x=x, public_key=public)
    return private, public


# ---------------------------------------------------------------------------
# batch verification
# ---------------------------------------------------------------------------

#: One unit of batch-verification work: who signed what.
BatchItem = Tuple[DSAPublicKey, bytes, RecoverableSignature]


def _invert_all(values: Sequence[int], q: int) -> List[int]:
    """Invert many nonzero residues mod prime ``q`` with one inversion.

    Montgomery's batch-inversion trick: one prefix-product sweep, a
    single :func:`pow`-based inversion of the total, and one backward
    sweep — three multiplications per value instead of one extended-gcd
    inversion each.  All values must be nonzero mod ``q`` (DSA's range
    checks guarantee this for signature components).  Delegates to the
    active arithmetic backend.
    """
    return get_backend().invert_all(values, q)


def _product_of_powers(bases: Sequence[int], exponents: Sequence[int],
                       modulus: int, exponent_bits: int) -> int:
    """``Π bases[i] ** exponents[i] mod modulus`` with shared squarings.

    Interleaved multi-exponentiation: one square-and-multiply ladder
    walks all exponents at once, so the ``exponent_bits`` squarings are
    paid **once for the whole product** instead of once per base, and
    each base contributes only its multiply steps (about half its
    exponent bits).  For the batch test's small exponents this beats
    per-item ``pow()`` several-fold — the commitment powers are the
    dominant per-item cost of a batch.  Delegates to the active
    arithmetic backend.
    """
    return get_backend().product_of_powers(
        bases, exponents, modulus, exponent_bits
    )


def batch_verify(items: Sequence[BatchItem],
                 rng: Optional[random.Random] = None,
                 security_bits: int = 32,
                 hash_algorithm: str = "sha256") -> bool:
    """Verify many recoverable signatures with one randomized batch test.

    The small-exponent test: draw random odd ``z_i`` of
    ``security_bits`` bits and accept iff ::

        g^(Σ u1_i·z_i)  ·  Π y^(Σ u2_i·z_i)  ==  Π R_i^(z_i)   (mod p)

    where the middle product groups items by public key, so verifying a
    stream of signatures from few distinct signers costs roughly *one*
    full-size exponentiation per signer plus one ``security_bits``-wide
    exponentiation per signature — instead of two full-size
    exponentiations per signature for individual verification.  An
    adversary who cannot predict the ``z_i`` slips a bad signature past
    the test with probability about ``2^-security_bits`` — which is why
    the default randomness source is :class:`random.SystemRandom`.
    Pass a seeded ``rng`` only when the caller needs reproducible runs
    and the signature stream is not adversarial (e.g. deterministic
    simulation); a predictable ``z`` sequence lets an attacker craft
    invalid signatures whose error terms cancel in the batch equation.

    All items must share domain parameters; mixed-parameter batches
    fall back to individual verification.  Structural checks (range,
    ``R mod q == r``) always run per item.  Returns ``True`` iff every
    signature in the batch is valid; use :func:`find_invalid` to
    identify culprits after a failed batch.
    """
    if not items:
        return True
    parameters = items[0][0].parameters
    if any(key.parameters != parameters for key, _, _ in items):
        return all(
            key.verify_recoverable(message, signature, hash_algorithm)
            for key, message, signature in items
        )
    p, q = parameters.p, parameters.q
    rng = rng or random.SystemRandom()

    checked = []
    for key, message, signature in items:
        r, s, commitment = signature.r, signature.s, signature.commitment
        if not (0 < r < q and 0 < s < q and 1 < commitment < p):
            return False
        if commitment % q != r:
            return False
        digest = _message_digest(message, q, hash_algorithm)
        z = rng.getrandbits(security_bits) | 1
        checked.append((key, digest, r, s, commitment, z))

    # One batched inversion replaces a per-item extended gcd.
    inverses = _invert_all([entry[3] for entry in checked], q)

    g_exponent = 0
    y_exponents: dict = {}
    key_for_y: dict = {}
    for (key, digest, r, _s, _commitment, z), w in zip(checked, inverses):
        g_exponent = (g_exponent + digest * w * z) % q
        y_exponents[key.y] = (y_exponents.get(key.y, 0) + r * w * z) % q
        key_for_y.setdefault(key.y, key)

    # Commitments are message-specific bases no table can help with,
    # but their exponents are only ``security_bits`` wide: one
    # interleaved ladder shares the squarings across the whole batch.
    rhs = _product_of_powers(
        [entry[4] for entry in checked],
        [entry[5] for entry in checked],
        p, security_bits,
    )

    lhs = parameters.powg(g_exponent)
    for y, exponent in y_exponents.items():
        lhs = lhs * key_for_y[y]._y_power(exponent) % p
    return lhs == rhs


def find_invalid(items: Sequence[BatchItem],
                 hash_algorithm: str = "sha256") -> List[int]:
    """Indices of the items that fail individual verification.

    The slow path after :func:`batch_verify` returned ``False``: each
    signature is checked on its own so the caller can attribute the
    failure (e.g. blame the host whose transfer signature is bad).
    """
    return [
        index for index, (key, message, signature) in enumerate(items)
        if not key.verify_recoverable(message, signature, hash_algorithm)
    ]
