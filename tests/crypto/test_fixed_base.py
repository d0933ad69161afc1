"""Property tests for fixed-base exponentiation and its DSA wiring.

The optimization contract is exact equivalence: every table-accelerated
power must equal the built-in ``pow`` for the same operands, every
signature produced through the tables must equal the one the plain
formulas produce, and the caches must never leak into pickles.
"""

from __future__ import annotations

import builtins
import copy
import hashlib
import importlib
import io
import os
import pickle
import random
import struct
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.crypto
from repro.crypto.backend import PythonBackend, available_backends, use_backend
from repro.crypto.dsa import (
    GENERATOR_WINDOW,
    KEY_WINDOW,
    FixedBaseTable,
    PARAMETERS_512,
    PARAMETERS_1024,
    _message_digest,
    batch_verify,
    generate_keypair,
    generate_parameters,
)
from repro.crypto.keys import Identity

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__
    )))),
    "src",
)


TOY_PARAMETERS = generate_parameters(modulus_bits=96, subgroup_bits=48, seed=11)

ALL_PARAMETERS = (PARAMETERS_512, PARAMETERS_1024, TOY_PARAMETERS)


class TestFixedBaseTable:
    @pytest.mark.parametrize("parameters", ALL_PARAMETERS,
                             ids=("512", "1024", "toy"))
    def test_equals_builtin_pow_for_random_exponents(self, parameters):
        rng = random.Random(0xF1BE)
        table = FixedBaseTable(
            parameters.g, parameters.p, parameters.q.bit_length()
        )
        for _ in range(150):
            exponent = rng.randrange(parameters.q)
            assert table.pow(exponent) == pow(
                parameters.g, exponent, parameters.p
            )

    def test_boundary_exponents(self):
        p, q, g = PARAMETERS_512.p, PARAMETERS_512.q, PARAMETERS_512.g
        table = FixedBaseTable(g, p, q.bit_length())
        for exponent in (0, 1, 2, q - 1, q):
            assert table.pow(exponent) == pow(g, exponent, p)

    def test_oversized_and_negative_exponents_fall_back(self):
        p, q, g = PARAMETERS_512.p, PARAMETERS_512.q, PARAMETERS_512.g
        table = FixedBaseTable(g, p, q.bit_length())
        huge = q ** 3
        assert table.pow(huge) == pow(g, huge, p)
        assert table.pow(-5) == pow(g, -5, p)

    def test_random_bases_and_small_windows(self):
        rng = random.Random(7)
        for window in (1, 2, 3, 8):
            base = rng.randrange(2, PARAMETERS_512.p)
            table = FixedBaseTable(base, PARAMETERS_512.p, 64, window=window)
            for _ in range(25):
                exponent = rng.getrandbits(rng.randrange(1, 65))
                assert table.pow(exponent) == pow(
                    base, exponent, PARAMETERS_512.p
                )


class _CountingBackend(PythonBackend):
    """The Python backend, counting which power path each call took."""

    def __init__(self):
        self.calls = {"modexp": 0, "table_pow": 0}

    def modexp(self, base, exponent, modulus):
        self.calls["modexp"] += 1
        return super().modexp(base, exponent, modulus)

    def table_pow(self, columns, window, exponent, modulus):
        self.calls["table_pow"] += 1
        return super().table_pow(columns, window, exponent, modulus)


#: ``(r, s, commitment)`` of ``generate_keypair(seed=2026)`` signing
#: ``b"reference-state"``, as computed before the generator table was
#: widened: the window changes how ``g^k`` is computed, never its value.
PINNED_SIGNATURE = (
    0x65dfa003874f45d1340b48b404e0ec4f5fdb1cf2,
    0x7815b0c92bc9516eb12350224176f4a7b606a2ec,
    int("305b239e12a40d470225ac2729609397db0bcfea340cb2189971ad1230b571b2"
        "63df993a77d5d00b78d808c18729220366e9ce613ee418ef7ecb22c7ddc0d5a",
        16),
)


class TestWideGeneratorTable:
    """Only the shared ``g`` table is wide; per-key tables stay narrow."""

    @pytest.mark.parametrize("parameters", ALL_PARAMETERS,
                             ids=("512", "1024", "toy"))
    def test_the_generator_table_is_wide_and_key_tables_are_not(
        self, parameters
    ):
        assert (GENERATOR_WINDOW, KEY_WINDOW) == (8, 5)
        table = parameters.generator_table()
        assert table.window == GENERATOR_WINDOW
        bits = parameters.q.bit_length()
        assert table.capacity_bits == -(-bits // 8) * 8
        _private, public = generate_keypair(parameters, seed=41)
        assert public.precompute().window == KEY_WINDOW
        assert FixedBaseTable(public.y, parameters.p, bits).window == 5

    def test_the_wide_columns_are_powers_of_the_generator(self):
        parameters = copy.deepcopy(TOY_PARAMETERS)
        with use_backend("python"):
            table = parameters.generator_table()
        assert table._columns == _reference_columns(
            parameters.g, parameters.p, parameters.q.bit_length(), 8
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 160 - 1))
    @example(0)
    @example(1)
    @example(PARAMETERS_512.q - 1)
    @example(2 ** 160 - 1)
    def test_powg_equals_builtin_pow_below_capacity(self, exponent):
        parameters = PARAMETERS_512
        assert parameters.generator_table().capacity_bits == 160
        assert parameters.powg(exponent) == pow(
            parameters.g, exponent, parameters.p
        )

    @pytest.mark.parametrize("exponent", (
        2 ** 160, 2 ** 160 + 1, PARAMETERS_512.q ** 3, -1, -5,
        -(PARAMETERS_512.q - 1),
    ), ids=("capacity", "capacity+1", "q^3", "-1", "-5", "-(q-1)"))
    def test_out_of_range_exponents_fall_back_to_modexp(self, exponent):
        p, q, g = PARAMETERS_512.p, PARAMETERS_512.q, PARAMETERS_512.g
        assert PARAMETERS_512.powg(exponent) == pow(g, exponent, p)
        backend = _CountingBackend()
        table = FixedBaseTable(g, p, q.bit_length(),
                               window=GENERATOR_WINDOW, backend=backend)
        assert table.pow(exponent) == pow(g, exponent, p)
        assert backend.calls == {"modexp": 1, "table_pow": 0}
        assert table.pow(q - 1) == pow(g, q - 1, p)
        assert backend.calls == {"modexp": 1, "table_pow": 1}

    def test_signatures_are_pinned_across_the_window_change(self):
        private, public = generate_keypair(seed=2026)
        message = b"reference-state"
        r, s, commitment = PINNED_SIGNATURE
        recoverable = private.sign_recoverable(message)
        assert (recoverable.r, recoverable.s, recoverable.commitment) == (
            PINNED_SIGNATURE
        )
        plain = private.sign(message)
        assert (plain.r, plain.s) == (r, s)
        assert public.verify_recoverable(message, recoverable)
        assert public.verify(message, plain)


class TestDSAWiring:
    @pytest.mark.parametrize("parameters", ALL_PARAMETERS,
                             ids=("512", "1024", "toy"))
    def test_signatures_match_plain_formula(self, parameters):
        """Table-built signatures must equal the direct-pow construction."""
        rng = random.Random(42)
        for index in range(5):
            private, public = generate_keypair(parameters, seed=index)
            # Independent check of the key itself.
            assert public.y == pow(parameters.g, private.x, parameters.p)
            message = b"msg-%d-%d" % (index, rng.getrandbits(32))
            signature = private.sign_recoverable(message)
            assert signature.commitment % parameters.q == signature.r
            assert public.verify_recoverable(message, signature)
            assert public.verify(message, signature.to_signature())
            # Independent verification of the table-built signature
            # through built-in pow only (no library verify involved).
            from repro.crypto.dsa import _message_digest

            p, q, g = parameters.p, parameters.q, parameters.g
            digest = _message_digest(message, q, "sha256")
            w = pow(signature.s, -1, q)
            u1, u2 = digest * w % q, signature.r * w % q
            check = pow(g, u1, p) * pow(public.y, u2, p) % p
            assert check % q == signature.r
            assert check == signature.commitment

    def test_verify_uses_tables_after_threshold_and_agrees(self):
        private, public = generate_keypair(seed=99)
        message = b"threshold"
        signature = private.sign(message)
        # Past the threshold a cached table must exist and outcomes stay
        # identical (valid and tampered).
        for _ in range(10):
            assert public.verify(message, signature)
        assert "_y_table" in public.__dict__
        assert not public.verify(b"tampered", signature)

    def test_batch_verify_still_accepts_and_rejects(self):
        rng = random.Random(5)
        keys = [generate_keypair(seed=i) for i in range(3)]
        items = []
        for index in range(24):
            private, public = keys[index % 3]
            message = b"batch-%d" % index
            items.append((public, message, private.sign_recoverable(message)))
        assert batch_verify(items, rng=rng)
        # Flip one message: the batch must fail.
        public, _message, signature = items[7]
        items[7] = (public, b"forged", signature)
        assert not batch_verify(items, rng=random.Random(5))


class TestCacheHygiene:
    def test_tables_are_excluded_from_pickles(self):
        private, public = generate_keypair(seed=123)
        message = b"pickle-me"
        signature = private.sign(message)
        for _ in range(10):
            public.verify(message, signature)
        PARAMETERS_512.generator_table()
        assert "_y_table" in public.__dict__

        revived = pickle.loads(pickle.dumps(public))
        assert "_y_table" not in revived.__dict__
        assert "_y_uses" not in revived.__dict__
        assert "_g_table" not in revived.parameters.__dict__
        assert revived == public
        assert revived.verify(message, signature)

        revived_params = pickle.loads(pickle.dumps(PARAMETERS_512))
        assert "_g_table" not in revived_params.__dict__
        assert revived_params == PARAMETERS_512

    def test_deepcopy_drops_caches_but_preserves_identity(self):
        clone = copy.deepcopy(PARAMETERS_512)
        assert clone == PARAMETERS_512
        assert "_g_table" not in clone.__dict__

    def test_precompute_is_idempotent(self):
        _private, public = generate_keypair(seed=321)
        table = public.precompute()
        assert public.precompute() is table

    def test_identity_generation_is_memoized_and_deterministic(self):
        first = Identity.generate("memo-host")
        second = Identity.generate("memo-host")
        assert first is second
        assert first.private_key.x == Identity.generate("memo-host").private_key.x
        other = Identity.generate("memo-host", parameters=PARAMETERS_1024)
        assert other is not first


#: Run in a fresh process, so no table built earlier in this one can
#: stand in for the one under test: verify a signature before and after
#: ``precompute()`` builds the key's table.
_FRESH_VERIFY = (
    "import sys\n"
    "from repro.crypto.dsa import DSASignature\n"
    "from repro.crypto.keys import Identity\n"
    "public = Identity.generate('host-001').public_key\n"
    "signature = DSASignature(r=int(sys.argv[1]), s=int(sys.argv[2]))\n"
    "before = public.verify(b'forged', signature)\n"
    "public.precompute()\n"
    "after = public.verify(b'forged', signature)\n"
    "print(before, after)\n"
)


def _directory_snapshot(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _reference_columns(base, modulus, exponent_bits, window):
    """``base^(digit * 2^(window*i)) mod modulus`` by built-in ``pow``."""
    windows = (exponent_bits + window - 1) // window
    return [
        [pow(base, digit << (window * index), modulus)
         for digit in range(1 << window)]
        for index in range(windows)
    ]


class TestTablesComeOnlyFromTheKey:
    def test_a_planted_table_file_cannot_make_a_forgery_verify(self, tmp_path):
        # A signature made without the private key: with y^u2 taken as
        # 1, r = (g^(H(m)/s) mod p) mod q passes the verify equation.
        p, q, g = PARAMETERS_512.p, PARAMETERS_512.q, PARAMETERS_512.g
        y = Identity.generate("host-001").public_key.y
        s = 12345
        u1 = _message_digest(b"forged", q, "sha256") * pow(s, -1, q) % q
        r = pow(g, u1, p) % q
        # An all-ones table for y, written where and how an on-disk
        # table cache keyed by (base, modulus, window, windows, backend)
        # and checked only against its own digest would look for it.
        payload = b"\x01" * (32 * 32)
        name = hashlib.sha256(
            ("tbl1|%x|%x|5|32|python" % (y % p, p)).encode("ascii")
        ).hexdigest() + ".tbl"
        (tmp_path / name).write_bytes(
            b"REPRO-TBL1\n" + struct.pack(">HHII", 0, 1, 32, 32)
            + hashlib.sha256(payload).digest() + payload
        )
        planted = _directory_snapshot(tmp_path)

        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_TABLE_CACHE"] = str(tmp_path)
        env["REPRO_CRYPTO_BACKEND"] = "python"
        result = subprocess.run(
            [sys.executable, "-c", _FRESH_VERIFY, str(r), str(s)],
            env=env, capture_output=True, text=True, check=True,
        )

        assert result.stdout.split() == ["False", "False"]
        assert _directory_snapshot(tmp_path) == planted

    @pytest.mark.parametrize("setting", ("off", "on", "1", "directory"))
    def test_the_retired_cache_variable_changes_nothing(
        self, setting, tmp_path, monkeypatch
    ):
        # Any value the variable used to accept, including "on" (which
        # resolved to a directory under HOME) and a directory path.
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv(
            "REPRO_TABLE_CACHE",
            str(tmp_path) if setting == "directory" else setting,
        )
        p, q, g = TOY_PARAMETERS.p, TOY_PARAMETERS.q, TOY_PARAMETERS.g
        table = FixedBaseTable(g, p, q.bit_length(), backend=PythonBackend())
        assert table._columns == _reference_columns(g, p, q.bit_length(), 5)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("window", (1, 3, 5, 8))
    def test_columns_are_powers_of_the_base_alone(self, window):
        p, q = TOY_PARAMETERS.p, TOY_PARAMETERS.q
        _private, public = generate_keypair(TOY_PARAMETERS, seed=window)
        table = FixedBaseTable(
            public.y, p, q.bit_length(), window=window,
            backend=PythonBackend(),
        )
        assert table._columns == _reference_columns(
            public.y, p, q.bit_length(), window
        )

    @pytest.mark.parametrize("parameters", ALL_PARAMETERS,
                             ids=("512", "1024", "toy"))
    def test_rebuilding_from_the_same_key_gives_identical_columns(
        self, parameters
    ):
        _private, public = generate_keypair(parameters, seed=17)
        bits = parameters.q.bit_length()
        first = FixedBaseTable(public.y, parameters.p, bits,
                               backend=PythonBackend())
        second = FixedBaseTable(public.y, parameters.p, bits,
                                backend=PythonBackend())
        assert first._columns == second._columns
        assert first._columns is not second._columns
        assert public.precompute()._columns == first._columns

    @pytest.mark.parametrize("source", ("generator", "public-key"))
    def test_building_a_table_opens_no_file(self, source, monkeypatch):
        _private, public = generate_keypair(TOY_PARAMETERS, seed=23)
        parameters = copy.deepcopy(TOY_PARAMETERS)
        assert "_g_table" not in parameters.__dict__
        assert "_y_table" not in public.__dict__
        opened = []

        def refuse(*args, **kwargs):
            opened.append(args[:1])
            raise AssertionError("a table build opened %r" % (args[:1],))

        monkeypatch.setattr(builtins, "open", refuse)
        monkeypatch.setattr(io, "open", refuse)
        monkeypatch.setattr(os, "open", refuse)
        if source == "generator":
            base, table = parameters.g, parameters.generator_table()
        else:
            base, table = public.y, public.precompute()
        monkeypatch.undo()

        assert opened == []
        exponent = parameters.q - 2
        assert table.pow(exponent) == pow(base, exponent, parameters.p)

    def test_concurrent_builds_of_one_key_agree(self):
        p, q = PARAMETERS_512.p, PARAMETERS_512.q
        _private, public = generate_keypair(PARAMETERS_512, seed=31)
        tables = [None] * 4

        def build(index):
            tables[index] = FixedBaseTable(
                public.y, p, q.bit_length(), backend=PythonBackend()
            )

        threads = [threading.Thread(target=build, args=(index,))
                   for index in range(len(tables))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        reference = _reference_columns(public.y, p, q.bit_length(), 5)
        assert all(table._columns == reference for table in tables)

    def test_a_cache_argument_is_refused(self, tmp_path):
        p, q, g = TOY_PARAMETERS.p, TOY_PARAMETERS.q, TOY_PARAMETERS.g
        with pytest.raises(TypeError):
            FixedBaseTable(g, p, q.bit_length(), cache=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_the_table_cache_module_and_its_exports_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.crypto.tablecache")
        for name in ("TABLE_CACHE_ENV_VAR", "TableCache",
                     "default_cache_dir", "enable_table_cache",
                     "get_table_cache", "set_table_cache",
                     "table_cache_info"):
            assert not hasattr(repro.crypto, name), name
            assert name not in repro.crypto.__all__, name

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_backends_neither_import_nor_export_columns(self, backend_name):
        p, q, g = TOY_PARAMETERS.p, TOY_PARAMETERS.q, TOY_PARAMETERS.g
        with use_backend(backend_name) as engine:
            assert not hasattr(engine, "prepare_columns")
            assert not hasattr(engine, "export_columns")
            table = FixedBaseTable(g, p, q.bit_length())
        assert [[int(entry) for entry in column]
                for column in table._columns] == _reference_columns(
                    g, p, q.bit_length(), 5)
