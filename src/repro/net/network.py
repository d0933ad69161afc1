"""Link latency models for the simulated fleet.

The paper measured agent migration "in one address space" (no real
network transfer), and this reproduction likewise runs all hosts in a
single Python process.  A latency model gives each hop a virtual
delivery delay on the fleet's event timeline; addresses are plain
strings (host names).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LatencyModel", "UniformLatency"]


class LatencyModel:
    """Base latency model: zero latency between all endpoint pairs."""

    def latency(self, sender: str, recipient: str, size: int) -> float:
        """Return the delivery delay in seconds for a message."""
        return 0.0


@dataclass
class UniformLatency(LatencyModel):
    """Constant base latency plus a per-byte transfer cost."""

    base_seconds: float = 0.001
    seconds_per_byte: float = 0.0

    def latency(self, sender: str, recipient: str, size: int) -> float:
        if sender == recipient:
            return 0.0
        return self.base_seconds + self.seconds_per_byte * size
