"""Tests for state hashing."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import (
    DEFAULT_HASH_ALGORITHM,
    hash_bytes,
    hash_chain,
    hash_value,
)


class TestHashValue:
    def test_same_value_same_digest(self):
        assert hash_value({"a": 1}) == hash_value({"a": 1})

    def test_dict_order_does_not_matter(self):
        assert hash_value({"a": 1, "b": 2}) == hash_value({"b": 2, "a": 1})

    def test_different_values_different_digest(self):
        assert hash_value({"a": 1}) != hash_value({"a": 2})

    def test_algorithm_recorded(self):
        digest = hash_value("x")
        assert digest.algorithm == DEFAULT_HASH_ALGORITHM

    def test_alternate_algorithm(self):
        digest = hash_value("x", algorithm="sha1")
        assert digest.algorithm == "sha1"
        assert len(digest.digest) == 20

    def test_digest_is_hashable(self):
        mapping = {hash_value("a"): "first"}
        assert mapping[hash_value("a")] == "first"


class TestHashChain:
    def test_chain_distinguishes_element_boundaries(self):
        assert hash_chain(["ab", "c"]) != hash_chain(["a", "bc"])

    def test_chain_is_order_sensitive(self):
        assert hash_chain([1, 2]) != hash_chain([2, 1])

    def test_empty_chain_is_stable(self):
        assert hash_chain([]) == hash_chain([])

    def test_chain_differs_from_single_hash(self):
        assert hash_chain(["a"]) != hash_value("a")


class TestHashBytes:
    def test_known_length(self):
        assert len(hash_bytes(b"payload").digest) == 32

    def test_canonical_form(self):
        digest = hash_bytes(b"payload")
        canonical = digest.to_canonical()
        assert canonical["algorithm"] == DEFAULT_HASH_ALGORITHM
        assert canonical["digest"] == digest.digest


class TestHashingProperties:
    @given(value=st.dictionaries(st.text(max_size=8),
                                 st.integers(-1000, 1000), max_size=6))
    @settings(max_examples=100)
    def test_hash_is_deterministic(self, value):
        assert hash_value(value).hex() == hash_value(value).hex()

    @given(values=st.lists(st.integers(-100, 100), max_size=10))
    @settings(max_examples=100)
    def test_chain_matches_itself(self, values):
        assert hash_chain(values) == hash_chain(list(values))

    @given(values=st.lists(st.integers(-100, 100), min_size=2, max_size=8))
    @settings(max_examples=100)
    def test_appending_changes_chain(self, values):
        assert hash_chain(values) != hash_chain(values + [0])
