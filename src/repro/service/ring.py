"""Consistent hashing for the verification cluster gateway.

The gateway routes every verification by its content key (the digest +
signature tuple of :meth:`repro.service.cache.VerdictCache.key`), so a
given reference state always lands on the same verifier backend — its
backend-local verdict cache stays hot.  Plain modulo
routing would reshuffle *every* key when a backend joins or leaves; a
consistent-hash ring moves only the ~1/N of keys that the changed
node owned, which is what keeps failover and rejoin cheap
(``tests/service/test_ring.py`` pins the ~1/N bound down).

The ring is the textbook construction: each node is hashed onto the
ring at ``replicas`` virtual points (sha256 of ``"name#i"``), a key is
hashed to a point and walks clockwise to the first virtual node, and
lookups binary-search a sorted point list.  sha256 rather than a fast
non-cryptographic hash because routing keys are attacker-influenced
content (signatures from migrating agents): uniformity must not depend
on the traffic being friendly.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.crypto.canonical import canonical_encode

__all__ = ["HashRing", "DEFAULT_REPLICAS"]

#: Virtual nodes per backend.  64 keeps the per-node share within a few
#: percent of 1/N for single-digit clusters while the whole ring stays
#: a few hundred points — rebuild on membership change is trivial.
DEFAULT_REPLICAS = 64


def _point(data: bytes) -> int:
    """A position on the ring: the first 8 bytes of sha256."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over named nodes with virtual replicas."""

    def __init__(self, nodes: Iterable[str] = (),
                 replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError("a ring needs at least one replica per node")
        self.replicas = int(replicas)
        self._nodes: Dict[str, Tuple[int, ...]] = {}
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    # -- membership --------------------------------------------------------------

    def add(self, node: str) -> None:
        """Add ``node`` (idempotent); only ~1/N of keys move to it."""
        if node in self._nodes:
            return
        points = tuple(
            _point(("%s#%d" % (node, i)).encode("utf-8"))
            for i in range(self.replicas)
        )
        self._nodes[node] = points
        self._rebuild()

    def _rebuild(self) -> None:
        pairs: List[Tuple[int, str]] = []
        for node, points in self._nodes.items():
            # Identical points from different node names are possible in
            # principle (a 64-bit collision); sorting by (point, name)
            # keeps ownership deterministic even then.
            pairs.extend((point, node) for point in points)
        pairs.sort()
        self._points = [point for point, _ in pairs]
        self._owners = [node for _, node in pairs]

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Current members, sorted by name."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # -- routing -----------------------------------------------------------------

    def route(self, key: Any) -> Optional[str]:
        """The node owning ``key``; ``None`` on an empty ring.

        ``key`` may be any canonical-encodable value — the gateway
        passes the verdict content key tuple directly.
        """
        if not self._points:
            return None
        point = _point(canonical_encode(key) if not isinstance(key, bytes)
                       else key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def route_avoiding(self, key: Any,
                       down: Iterable[str] = ()) -> Optional[str]:
        """Like :meth:`route` but skipping ``down`` nodes.

        Walks clockwise past virtual points owned by downed nodes, so a
        key's failover owner is the *next* live node on the ring — the
        same node every retry picks, keeping re-issued requests stable.
        """
        if not self._points:
            return None
        downed = set(down)
        live = set(self._nodes) - downed
        if not live:
            return None
        point = _point(canonical_encode(key) if not isinstance(key, bytes)
                       else key)
        start = bisect.bisect_right(self._points, point)
        total = len(self._points)
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner in live:
                return owner
        return None
