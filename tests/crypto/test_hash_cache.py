"""Memoized canonical hashing: the memo must never change an answer."""

from __future__ import annotations

from repro.agents.state import AgentState
from repro.core.reference_data import ReferenceDataSet
from repro.crypto.canonical import canonical_encode
from repro.crypto.hashing import HashCache, hash_value


class TestHashCache:
    def test_encode_matches_uncached_and_counts_hits(self):
        cache = HashCache()
        state = AgentState(data={"x": 1}, execution={"hop_index": 0})
        first = cache.encode(state)
        second = cache.encode(state)
        assert first == canonical_encode(state.to_canonical())
        assert second is first
        assert cache.stats() == {
            "hits": 1, "misses": 1, "entries": 1, "hit_rate": 0.5,
        }

    def test_distinct_objects_are_distinct_entries(self):
        cache = HashCache()
        a = AgentState(data={"x": 1})
        b = AgentState(data={"x": 1})
        assert cache.encode(a) == cache.encode(b)
        assert len(cache) == 2
        assert cache.hits == 0

    def test_non_weakrefable_values_still_encode(self):
        cache = HashCache()
        value = {"plain": "dict"}
        assert cache.encode(value) == canonical_encode(value)
        assert len(cache) == 0  # not cached, merely computed

    def test_dead_objects_are_evicted(self):
        cache = HashCache()
        state = AgentState(data={"x": 2})
        cache.encode(state)
        assert len(cache) == 1
        del state
        import gc

        gc.collect()
        assert len(cache) == 0

    def test_digest_equals_hash_value(self):
        cache = HashCache()
        state = AgentState(data={"v": 3.5})
        assert cache.digest(state) == hash_value(state.to_canonical())


class TestAgentStateMemo:
    def test_canonical_bytes_is_memoized_per_instance(self):
        state = AgentState(data={"a": 1}, execution={"hop_index": 2})
        assert state.canonical_bytes() is state.canonical_bytes()
        assert state.canonical_bytes() == canonical_encode(state.to_canonical())

    def test_digest_and_equals_use_the_memo_consistently(self):
        left = AgentState(data={"a": 1})
        right = AgentState(data={"a": 1})
        different = AgentState(data={"a": 2})
        assert left.digest() == hash_value(left.to_canonical())
        assert left.equals(right)
        assert not left.equals(different)


class TestReferenceDataSetMemo:
    def _bundle(self):
        return ReferenceDataSet(
            session_host="vendor",
            hop_index=1,
            agent_id="agent-1",
            code_name="generic-agent",
            owner="owner",
            initial_state=AgentState(data={"x": 1}),
            resulting_state=AgentState(data={"x": 2}),
        )

    def test_bytes_and_digest_match_the_canonical_encoding(self):
        bundle = self._bundle()
        encoded = canonical_encode(bundle.to_canonical())
        assert bundle.canonical_bytes() == encoded
        assert bundle.digest() == hash_value(bundle.to_canonical())

    def test_repeated_calls_reuse_the_memo(self):
        bundle = self._bundle()
        assert bundle.canonical_bytes() is bundle.canonical_bytes()

    def test_field_assignment_invalidates_the_memo(self):
        """Regression: digest() must never describe stale contents after
        a field is reassigned."""
        bundle = self._bundle()
        before = bundle.digest()
        bundle.resulting_state = AgentState(data={"x": 99})
        after = bundle.digest()
        assert after != before
        assert bundle.canonical_bytes() == canonical_encode(bundle.to_canonical())
