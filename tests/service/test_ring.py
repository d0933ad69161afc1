"""Consistent-hash ring: determinism, balance, minimal redistribution."""

from __future__ import annotations

import pytest

from repro.service.ring import HashRing


def _keys(count: int):
    return [("key-%d" % index).encode() for index in range(count)]


class TestRouting:
    def test_empty_ring_routes_nowhere(self):
        assert HashRing().route(b"anything") is None
        assert HashRing().route_avoiding(b"anything") is None

    def test_routing_is_deterministic(self):
        ring = HashRing(["a", "b", "c"])
        again = HashRing(["c", "a", "b"])  # insertion order is irrelevant
        for key in _keys(200):
            assert ring.route(key) == again.route(key)

    def test_every_node_owns_a_share(self):
        ring = HashRing(["a", "b", "c"])
        owners = {ring.route(key) for key in _keys(1000)}
        assert owners == {"a", "b", "c"}

    def test_shares_are_roughly_balanced(self):
        ring = HashRing(["a", "b", "c", "d"])
        counts = {node: 0 for node in ring.nodes}
        total = 4000
        for key in _keys(total):
            counts[ring.route(key)] += 1
        for node, count in counts.items():
            # 1/4 each in expectation; virtual nodes keep the skew well
            # inside a factor of two.
            assert total / 8 < count < total / 2, (node, counts)

    def test_canonical_tuple_keys_route_like_their_encoding(self):
        ring = HashRing(["a", "b", "c"])
        key = ("signer", b"\x01" * 20, 12345, 67890, 13)
        assert ring.route(key) in ring.nodes
        assert ring.route(key) == ring.route(key)


class TestRedistribution:
    def test_removal_moves_only_the_removed_nodes_keys(self):
        before = HashRing(["a", "b", "c", "d"])
        after = HashRing(["a", "b", "c"])
        keys = _keys(2000)
        moved = 0
        for key in keys:
            owner_before = before.route(key)
            owner_after = after.route(key)
            if owner_before != owner_after:
                moved += 1
                # Only keys the departed node owned may move at all.
                assert owner_before == "d", (key, owner_before, owner_after)
        # ~1/4 of the keys belonged to d; allow generous sampling slack.
        assert 2000 * 0.10 < moved < 2000 * 0.45

    def test_addition_moves_only_keys_the_new_node_claims(self):
        before = HashRing(["a", "b", "c", "d"])
        after = HashRing(["a", "b", "c", "d", "e"])
        keys = _keys(2000)
        moved = 0
        for key in keys:
            if before.route(key) != after.route(key):
                moved += 1
                assert after.route(key) == "e"
        # The joiner claims ~1/5 of the keyspace, nothing else reshuffles.
        assert 2000 * 0.08 < moved < 2000 * 0.40

    def test_add_is_idempotent(self):
        ring = HashRing(["a", "b"])
        ring.add("a")
        assert ring.nodes == ("a", "b")


class TestAvoidance:
    def test_avoiding_skips_down_nodes(self):
        ring = HashRing(["a", "b", "c"])
        for key in _keys(300):
            assert ring.route_avoiding(key, down=("b",)) in ("a", "c")

    def test_avoiding_nothing_matches_plain_route(self):
        ring = HashRing(["a", "b", "c"])
        for key in _keys(300):
            assert ring.route_avoiding(key) == ring.route(key)

    def test_failover_owner_is_stable(self):
        # Every retry of a key must pick the same live substitute.
        ring = HashRing(["a", "b", "c", "d"])
        for key in _keys(100):
            primary = ring.route(key)
            substitute = ring.route_avoiding(key, down=(primary,))
            assert substitute != primary
            assert substitute == ring.route_avoiding(key, down=(primary,))

    def test_all_down_routes_nowhere(self):
        ring = HashRing(["a", "b"])
        assert ring.route_avoiding(b"key", down=("a", "b")) is None

    def test_surviving_keys_do_not_move_under_avoidance(self):
        # Avoidance only re-homes the downed node's keys — everyone
        # else's routing is untouched (the redistribution property,
        # seen from the failover path).
        ring = HashRing(["a", "b", "c"])
        for key in _keys(500):
            primary = ring.route(key)
            if primary != "c":
                assert ring.route_avoiding(key, down=("c",)) == primary


class TestValidation:
    def test_zero_replicas_is_rejected(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)
