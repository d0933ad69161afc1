"""Cross-backend property tests for the pluggable ModArith layer.

The contract under test is bit-identity: every backend must produce
exactly the integers the pure-Python reference produces — same keys,
same signatures, same verdicts — for the same operands.  The gmpy2
legs skip (never fail) when gmpy2 is not installed; the CI backend
matrix runs them for real on the accelerated leg and separately proves
the ``python`` selection never imports gmpy2 at all.
"""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys

import pytest

import repro.crypto.backend as backend_mod
from repro.crypto.backend import (
    BACKEND_ENV_VAR,
    Gmpy2Backend,
    PythonBackend,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.crypto.dsa import (
    FixedBaseTable,
    PARAMETERS_512,
    batch_verify,
    generate_keypair,
    generate_parameters,
)
from repro.exceptions import CryptoError

TOY_PARAMETERS = generate_parameters(modulus_bits=96, subgroup_bits=48,
                                     seed=11)

HAVE_GMPY2 = importlib.util.find_spec("gmpy2") is not None

needs_gmpy2 = pytest.mark.skipif(
    not HAVE_GMPY2, reason="gmpy2 is not installed in this environment"
)

#: src directory of the package under test, for subprocess legs.
_SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(backend_mod.__file__)
)))


@pytest.fixture(autouse=True)
def _restore_active_backend():
    """Snapshot/restore the process-wide backend around every test."""
    previous = backend_mod._active
    yield
    backend_mod._active = previous


def _subprocess_env(**overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(BACKEND_ENV_VAR, None)
    env.update(overrides)
    return env


class TestPythonBackendReference:
    """The reference backend must agree with the built-in operators."""

    @pytest.mark.parametrize("parameters", (PARAMETERS_512, TOY_PARAMETERS),
                             ids=("512", "toy"))
    def test_modexp_and_invert_match_builtin_pow(self, parameters):
        rng = random.Random(0xBACC)
        engine = PythonBackend()
        p, q, g = parameters.p, parameters.q, parameters.g
        for _ in range(25):
            exponent = rng.randrange(q)
            assert engine.modexp(g, exponent, p) == pow(g, exponent, p)
            value = rng.randrange(1, q)
            assert engine.invert(value, q) == pow(value, -1, q)

    def test_invert_all_matches_individual_inversions(self):
        rng = random.Random(3)
        engine = PythonBackend()
        q = PARAMETERS_512.q
        values = [rng.randrange(1, q) for _ in range(17)]
        assert engine.invert_all(values, q) == [
            pow(value, -1, q) for value in values
        ]

    def test_product_of_powers_matches_direct_product(self):
        rng = random.Random(4)
        engine = PythonBackend()
        p, q = PARAMETERS_512.p, PARAMETERS_512.q
        bases = [rng.randrange(2, p) for _ in range(5)]
        exponents = [rng.randrange(q) for _ in range(5)]
        expected = 1
        for base, exponent in zip(bases, exponents):
            expected = expected * pow(base, exponent, p) % p
        assert engine.product_of_powers(
            bases, exponents, p, q.bit_length()
        ) == expected

    def test_table_build_and_pow_match_builtin_pow(self):
        rng = random.Random(5)
        engine = PythonBackend()
        p, q, g = PARAMETERS_512.p, PARAMETERS_512.q, PARAMETERS_512.g
        window = 5
        num_windows = (q.bit_length() + window - 1) // window
        columns = engine.build_table(g, p, window, num_windows)
        for _ in range(25):
            exponent = rng.randrange(q)
            assert engine.table_pow(columns, window, exponent, p) == pow(
                g, exponent, p
            )

    def test_non_invertible_value_raises_value_error(self):
        engine = PythonBackend()
        with pytest.raises(ValueError):
            engine.invert(0, PARAMETERS_512.q)


class TestSelection:
    def test_python_backend_is_always_available(self):
        assert "python" in available_backends()

    def test_set_backend_accepts_names_and_instances(self):
        assert set_backend("python").name == "python"
        instance = PythonBackend()
        assert set_backend(instance) is instance
        assert get_backend() is instance

    def test_unknown_backend_name_is_a_crypto_error(self):
        with pytest.raises(CryptoError):
            set_backend("bogus")

    def test_use_backend_restores_the_previous_backend(self):
        pinned = set_backend("python")
        with use_backend("python") as engine:
            assert engine.name == "python"
            assert engine is not pinned or engine is get_backend()
        assert get_backend() is pinned

    def test_use_backend_restores_after_an_exception(self):
        pinned = set_backend("python")
        with pytest.raises(RuntimeError):
            with use_backend("python"):
                raise RuntimeError("boom")
        assert get_backend() is pinned

    def test_env_variable_selects_the_backend_in_a_fresh_process(self):
        code = ("from repro.crypto.backend import get_backend;"
                "print(get_backend().name)")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=_subprocess_env(**{BACKEND_ENV_VAR: "python"}),
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "python"

    def test_env_unknown_backend_fails_loudly_in_a_fresh_process(self):
        code = ("from repro.crypto.backend import get_backend;"
                "get_backend()")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=_subprocess_env(**{BACKEND_ENV_VAR: "bogus"}),
            capture_output=True, text=True,
        )
        assert result.returncode != 0
        assert "unknown crypto backend" in result.stderr

    def test_python_selection_never_imports_gmpy2(self):
        # The whole crypto stack runs — keygen, sign, verify, batch
        # verify, fixed-base tables — and gmpy2 must never enter
        # sys.modules.  This is the purity claim the CI backend matrix
        # enforces on the pure-python leg.
        code = (
            "import sys\n"
            "from repro.crypto.backend import get_backend\n"
            "from repro.crypto.dsa import (batch_verify, generate_keypair)\n"
            "assert get_backend().name == 'python'\n"
            "private, public = generate_keypair(seed=1)\n"
            "items = []\n"
            "for index in range(4):\n"
            "    message = b'msg-%d' % index\n"
            "    signature = private.sign_recoverable(message)\n"
            "    assert public.verify_recoverable(message, signature)\n"
            "    items.append((public, message, signature))\n"
            "assert batch_verify(items)\n"
            "assert 'gmpy2' not in sys.modules, 'gmpy2 was imported'\n"
            "print('pure')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=_subprocess_env(**{BACKEND_ENV_VAR: "python"}),
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "pure"

    @pytest.mark.skipif(HAVE_GMPY2,
                        reason="gmpy2 is installed in this environment")
    def test_explicit_gmpy2_without_gmpy2_is_a_crypto_error(self):
        with pytest.raises(CryptoError):
            set_backend("gmpy2")

    @pytest.mark.skipif(HAVE_GMPY2,
                        reason="gmpy2 is installed in this environment")
    def test_auto_degrades_to_python_without_gmpy2(self):
        assert set_backend("auto").name == "python"

    @needs_gmpy2
    def test_auto_prefers_gmpy2_when_available(self):
        assert set_backend("auto").name == "gmpy2"


@needs_gmpy2
class TestGmpy2Identity:
    """Every gmpy2 result must equal the pure-Python reference's."""

    @pytest.mark.parametrize("parameters", (PARAMETERS_512, TOY_PARAMETERS),
                             ids=("512", "toy"))
    def test_primitive_operations_are_bit_identical(self, parameters):
        rng = random.Random(0x61B1)
        reference = PythonBackend()
        accelerated = Gmpy2Backend()
        p, q, g = parameters.p, parameters.q, parameters.g
        for _ in range(25):
            exponent = rng.randrange(q)
            fast = accelerated.modexp(g, exponent, p)
            assert fast == reference.modexp(g, exponent, p)
            assert type(fast) is int
        values = [rng.randrange(1, q) for _ in range(13)]
        fast_inverses = accelerated.invert_all(values, q)
        assert fast_inverses == reference.invert_all(values, q)
        assert all(type(value) is int for value in fast_inverses)
        bases = [rng.randrange(2, p) for _ in range(4)]
        exponents = [rng.randrange(q) for _ in range(4)]
        assert accelerated.product_of_powers(
            bases, exponents, p, q.bit_length()
        ) == reference.product_of_powers(bases, exponents, p, q.bit_length())

    def test_tables_are_bit_identical_across_backends(self):
        rng = random.Random(0x7AB7)
        reference = PythonBackend()
        accelerated = Gmpy2Backend()
        p, q, g = PARAMETERS_512.p, PARAMETERS_512.q, PARAMETERS_512.g
        window = 5
        num_windows = (q.bit_length() + window - 1) // window
        ref_columns = reference.build_table(g, p, window, num_windows)
        fast_columns = accelerated.build_table(g, p, window, num_windows)
        assert [
            [int(value) for value in column] for column in fast_columns
        ] == ref_columns
        for _ in range(25):
            exponent = rng.randrange(q)
            assert accelerated.table_pow(
                fast_columns, window, exponent, p
            ) == pow(g, exponent, p)

    def test_invert_error_contract_matches_builtin_pow(self):
        accelerated = Gmpy2Backend()
        with pytest.raises(ValueError):
            accelerated.invert(0, PARAMETERS_512.q)

    @pytest.mark.parametrize("parameters", (PARAMETERS_512, TOY_PARAMETERS),
                             ids=("512", "toy"))
    def test_keygen_sign_verify_are_bit_identical(self, parameters):
        outcomes = {}
        for name in ("python", "gmpy2"):
            with use_backend(name):
                runs = []
                for index in range(3):
                    private, public = generate_keypair(parameters, seed=index)
                    message = b"cross-backend-%d" % index
                    signature = private.sign_recoverable(message)
                    assert public.verify_recoverable(message, signature)
                    runs.append((
                        private.x, public.y,
                        signature.r, signature.s, signature.commitment,
                        signature.to_canonical(),
                    ))
                outcomes[name] = runs
        assert outcomes["python"] == outcomes["gmpy2"]

    def test_batch_verify_verdicts_are_identical(self):
        verdicts = {}
        for name in ("python", "gmpy2"):
            with use_backend(name):
                keys = [generate_keypair(seed=index) for index in range(3)]
                items = []
                for index in range(12):
                    private, public = keys[index % 3]
                    message = b"batch-%d" % index
                    items.append(
                        (public, message, private.sign_recoverable(message))
                    )
                accepted = batch_verify(items, rng=random.Random(9))
                public, _message, signature = items[5]
                items[5] = (public, b"forged", signature)
                rejected = batch_verify(items, rng=random.Random(9))
                verdicts[name] = (accepted, rejected)
        assert verdicts["python"] == verdicts["gmpy2"] == (True, False)

    def test_fixed_base_table_agrees_across_backends(self):
        rng = random.Random(0xF00)
        p, q, g = PARAMETERS_512.p, PARAMETERS_512.q, PARAMETERS_512.g
        reference = FixedBaseTable(g, p, q.bit_length(),
                                   backend=PythonBackend())
        accelerated = FixedBaseTable(g, p, q.bit_length(),
                                     backend=Gmpy2Backend())
        for _ in range(50):
            exponent = rng.randrange(q)
            assert accelerated.pow(exponent) == reference.pow(exponent)
