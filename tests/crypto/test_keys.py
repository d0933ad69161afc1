"""Tests for identities and key stores."""

from __future__ import annotations

import pytest

from repro.crypto.keys import Identity, KeyStore, derive_seed
from repro.exceptions import KeyError_


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("host-a") == derive_seed("host-a")

    def test_distinct_names_distinct_seeds(self):
        assert derive_seed("host-a") != derive_seed("host-b")


class TestIdentity:
    def test_generation_is_deterministic_per_name(self):
        first = Identity.generate("merchant")
        second = Identity.generate("merchant")
        assert first.public_key.y == second.public_key.y

    def test_different_names_different_keys(self):
        assert Identity.generate("a").public_key.y != Identity.generate("b").public_key.y

    def test_fingerprint_matches_public_key(self):
        identity = Identity.generate("host")
        assert identity.fingerprint == identity.public_key.fingerprint()


class TestKeyStore:
    def test_register_and_get(self):
        store = KeyStore()
        identity = Identity.generate("host")
        store.register_identity(identity)
        assert store.get("host").y == identity.public_key.y

    def test_unknown_principal_raises(self):
        with pytest.raises(KeyError_):
            KeyStore().get("nobody")

    def test_maybe_get_returns_none(self):
        assert KeyStore().maybe_get("nobody") is None

    def test_contains_and_len(self):
        store = KeyStore()
        store.register_identity(Identity.generate("a"))
        store.register_identity(Identity.generate("b"))
        assert "a" in store and "b" in store and "c" not in store
        assert len(store) == 2

    def test_names_sorted(self):
        store = KeyStore()
        for name in ("zeta", "alpha", "mid"):
            store.register_identity(Identity.generate(name))
        assert store.names() == ("alpha", "mid", "zeta")

    def test_copy_is_independent(self):
        store = KeyStore()
        store.register_identity(Identity.generate("a"))
        clone = store.copy()
        clone.register_identity(Identity.generate("b"))
        assert "b" in clone and "b" not in store

    def test_reregistration_overwrites(self):
        store = KeyStore()
        first = Identity.generate("host")
        store.register_identity(first)
        replacement = Identity.generate("host-replacement")
        store.register("host", replacement.public_key)
        assert store.get("host").y == replacement.public_key.y
