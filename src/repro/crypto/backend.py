"""Pluggable modular-arithmetic backends for the crypto hot path.

Every expensive operation of the DSA layer — modular exponentiation,
fixed-base table construction and lookup, Montgomery batch inversion,
and the interleaved multi-exponentiation of :func:`batch_verify` —
funnels through one small interface, :class:`ModArith`, so the
number-theoretic engine can be swapped without touching a single
protocol or simulation line:

* :class:`PythonBackend` — the pure-Python implementation (built-in
  ``pow`` and int arithmetic).  Always available, always the reference.
* :class:`Gmpy2Backend` — the same algorithms over :mod:`gmpy2`'s GMP
  ``mpz`` integers, several times faster on 512-bit operands.  Loaded
  only when gmpy2 is importable *and* actually selected.

**The contract is bit-identity**: every backend returns plain Python
``int`` results that are equal, bit for bit, to the pure-Python
backend's for the same operands.  ``tests/crypto/test_backend.py``
enforces this with cross-backend property tests over keygen, sign,
verify, and batch verification; a backend that is merely "almost
right" must fail the suite, never silently change a verdict (detection
semantics are part of the reproduction's claims, not an implementation
detail).

Selection order:

1. an explicit :func:`set_backend` call (tests, services, benchmarks
   pin the engine they report numbers for);
2. the ``REPRO_CRYPTO_BACKEND`` environment variable (``python``,
   ``gmpy2``, or ``auto``);
3. auto-detection: gmpy2 when importable, pure Python otherwise.

Requesting ``gmpy2`` explicitly when it is not installed is a hard
:class:`~repro.exceptions.CryptoError` — an explicit request must never
silently degrade to a slower engine.  Conversely, selecting ``python``
never imports gmpy2 at all (the CI backend matrix asserts this), so the
pure path stays pure.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import CryptoError

__all__ = [
    "ModArith",
    "PythonBackend",
    "Gmpy2Backend",
    "BACKEND_ENV_VAR",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable naming the requested backend (``python``,
#: ``gmpy2``, or ``auto``; unset behaves like ``auto``).
BACKEND_ENV_VAR = "REPRO_CRYPTO_BACKEND"


class ModArith:
    """Interface every modular-arithmetic backend implements.

    All inputs and outputs are plain Python ``int`` — backends may use
    any native representation internally (GMP ``mpz``, …) but must
    convert at the boundary, because the integers flow straight into
    canonical encodings, signatures, and deterministic traces.
    ``columns`` values (fixed-base tables) are the one exception: they
    are backend-native opaque state produced by :meth:`build_table` and
    consumed only by :meth:`table_pow` of the *same* backend.
    """

    #: Stable identifier recorded in reports and service stats.
    name: str = "abstract"

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent % modulus`` (negative exponents invert)."""
        raise NotImplementedError

    def invert(self, value: int, modulus: int) -> int:
        """``value ** -1 % modulus``; ``ValueError`` when not invertible."""
        raise NotImplementedError

    def invert_all(self, values: Sequence[int], modulus: int) -> List[int]:
        """Montgomery batch inversion of nonzero residues mod a prime."""
        raise NotImplementedError

    def product_of_powers(self, bases: Sequence[int],
                          exponents: Sequence[int], modulus: int,
                          exponent_bits: int) -> int:
        """``Π bases[i] ** exponents[i] mod modulus``, shared squarings."""
        raise NotImplementedError

    def build_table(self, base: int, modulus: int, window: int,
                    num_windows: int) -> List[List[Any]]:
        """Build fixed-base table columns (backend-native entries)."""
        raise NotImplementedError

    def table_pow(self, columns: List[List[Any]], window: int,
                  exponent: int, modulus: int) -> int:
        """``base ** exponent % modulus`` via the table's columns."""
        raise NotImplementedError


class PythonBackend(ModArith):
    """The pure-Python reference backend (built-in ``pow`` and ints)."""

    name = "python"

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def invert(self, value: int, modulus: int) -> int:
        return pow(value, -1, modulus)

    def invert_all(self, values: Sequence[int], modulus: int) -> List[int]:
        # Montgomery's trick: one prefix-product sweep, a single
        # inversion of the total, one backward sweep — three
        # multiplications per value instead of one extended-gcd each.
        prefix = [1] * (len(values) + 1)
        acc = 1
        for index, value in enumerate(values):
            acc = acc * value % modulus
            prefix[index + 1] = acc
        inverses = [0] * len(values)
        running = pow(acc, -1, modulus)
        for index in range(len(values) - 1, -1, -1):
            inverses[index] = prefix[index] * running % modulus
            running = running * values[index] % modulus
        return inverses

    def product_of_powers(self, bases: Sequence[int],
                          exponents: Sequence[int], modulus: int,
                          exponent_bits: int) -> int:
        # Interleaved multi-exponentiation: one square-and-multiply
        # ladder walks all exponents at once, paying the squarings once
        # for the whole product.
        result = 1
        for bit in range(exponent_bits - 1, -1, -1):
            result = result * result % modulus
            mask = 1 << bit
            for base, exponent in zip(bases, exponents):
                if exponent & mask:
                    result = result * base % modulus
        return result

    def build_table(self, base: int, modulus: int, window: int,
                    num_windows: int) -> List[List[int]]:
        size = 1 << window
        columns = []
        b = base % modulus
        for _ in range(num_windows):
            column = [1] * size
            acc = 1
            for digit in range(1, size):
                acc = acc * b % modulus
                column[digit] = acc
            columns.append(column)
            b = acc * b % modulus  # base^(2^window) for the next column
        return columns

    def table_pow(self, columns: List[List[int]], window: int,
                  exponent: int, modulus: int) -> int:
        result = 1
        mask = (1 << window) - 1
        index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = result * columns[index][digit] % modulus
            exponent >>= window
            index += 1
        return result


class Gmpy2Backend(ModArith):
    """GMP-accelerated backend over :mod:`gmpy2` ``mpz`` integers.

    Same algorithms as :class:`PythonBackend`, same plain-int results
    at the boundary; only the integer engine differs.  Construct via
    :func:`set_backend`/:func:`get_backend` rather than directly — the
    constructor imports gmpy2 and raises :class:`CryptoError` when it
    is unavailable.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        try:
            import gmpy2
        except ImportError as exc:  # pragma: no cover - container lacks gmpy2
            raise CryptoError(
                "the gmpy2 crypto backend was requested but gmpy2 is "
                "not installed"
            ) from exc
        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz

    def modexp(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._gmpy2.powmod(base, exponent, modulus))

    def invert(self, value: int, modulus: int) -> int:
        try:
            return int(self._gmpy2.invert(value, modulus))
        except ZeroDivisionError as exc:
            # Match the built-in pow(value, -1, modulus) contract.
            raise ValueError(
                "base is not invertible for the given modulus"
            ) from exc

    def invert_all(self, values: Sequence[int], modulus: int) -> List[int]:
        mpz = self._mpz
        mod = mpz(modulus)
        prefix = [mpz(1)] * (len(values) + 1)
        acc = mpz(1)
        for index, value in enumerate(values):
            acc = acc * value % mod
            prefix[index + 1] = acc
        inverses: List[int] = [0] * len(values)
        running = self._gmpy2.invert(acc, mod)
        for index in range(len(values) - 1, -1, -1):
            inverses[index] = int(prefix[index] * running % mod)
            running = running * values[index] % mod
        return inverses

    def product_of_powers(self, bases: Sequence[int],
                          exponents: Sequence[int], modulus: int,
                          exponent_bits: int) -> int:
        mpz = self._mpz
        mod = mpz(modulus)
        native = [mpz(base) for base in bases]
        result = mpz(1)
        for bit in range(exponent_bits - 1, -1, -1):
            result = result * result % mod
            mask = 1 << bit
            for base, exponent in zip(native, exponents):
                if exponent & mask:
                    result = result * base % mod
        return int(result)

    def build_table(self, base: int, modulus: int, window: int,
                    num_windows: int) -> List[List[Any]]:
        mpz = self._mpz
        mod = mpz(modulus)
        size = 1 << window
        columns = []
        b = mpz(base) % mod
        one = mpz(1)
        for _ in range(num_windows):
            column = [one] * size
            acc = one
            for digit in range(1, size):
                acc = acc * b % mod
                column[digit] = acc
            columns.append(column)
            b = acc * b % mod
        return columns

    def table_pow(self, columns: List[List[Any]], window: int,
                  exponent: int, modulus: int) -> int:
        result = self._mpz(1)
        mod = self._mpz(modulus)
        mask = (1 << window) - 1
        index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = result * columns[index][digit] % mod
            exponent >>= window
            index += 1
        return int(result)


#: Factories for every known backend, in preference order for ``auto``.
_FACTORIES = {
    "gmpy2": Gmpy2Backend,
    "python": PythonBackend,
}

_AUTO_ORDER: Tuple[str, ...] = ("gmpy2", "python")

_lock = threading.Lock()
_active: Optional[ModArith] = None


def _gmpy2_importable() -> bool:
    """Whether gmpy2 can be imported (imports it to find out)."""
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> Tuple[str, ...]:
    """Names of the backends loadable in this environment.

    ``python`` is always present; ``gmpy2`` appears when importable.
    Note this *does* attempt the gmpy2 import — callers on the strictly
    pure path should consult :func:`get_backend` (which honours the
    ``python`` selection without probing gmpy2) instead.
    """
    names = ["python"]
    if _gmpy2_importable():
        names.insert(0, "gmpy2")
    return tuple(names)


def _resolve(requested: Optional[str]) -> ModArith:
    """Instantiate the backend for a request string (None = env/auto)."""
    if requested is None:
        requested = os.environ.get(BACKEND_ENV_VAR, "auto")
    requested = (requested or "auto").strip().lower()
    if requested == "auto":
        # Try the fast engines first; the pure-Python backend is the
        # fallback that always loads.
        for name in _AUTO_ORDER:
            try:
                return _FACTORIES[name]()
            except CryptoError:
                continue
        return PythonBackend()  # pragma: no cover - python never raises
    factory = _FACTORIES.get(requested)
    if factory is None:
        raise CryptoError(
            "unknown crypto backend %r (known: %s, auto)"
            % (requested, ", ".join(sorted(_FACTORIES)))
        )
    return factory()


def get_backend() -> ModArith:
    """The process-wide active backend, resolving it on first use."""
    global _active
    backend = _active
    if backend is None:
        with _lock:
            if _active is None:
                _active = _resolve(None)
            backend = _active
    return backend


def set_backend(backend: Optional[Any]) -> ModArith:
    """Pin the active backend explicitly; returns the new instance.

    ``backend`` may be a name (``"python"``, ``"gmpy2"``, ``"auto"``),
    a :class:`ModArith` instance, or ``None`` / ``"auto"`` to re-run
    the environment-variable/auto-detection logic.  Requesting a
    backend that cannot load raises :class:`CryptoError` — an explicit
    request never silently degrades.
    """
    global _active
    with _lock:
        if isinstance(backend, ModArith):
            _active = backend
        else:
            _active = _resolve(backend)
        return _active


@contextmanager
def use_backend(backend: Optional[Any]) -> Iterator[ModArith]:
    """Context manager pinning a backend, restoring the previous one.

    Used by cross-backend property tests and the backend benchmark so a
    temporary selection can never leak into the rest of the process.
    """
    global _active
    with _lock:
        previous = _active
    try:
        yield set_backend(backend)
    finally:
        with _lock:
            _active = previous
