"""Simulated distributed substrate: clocks, events, latency, transfers."""

from repro.net.clock import Clock, VirtualClock
from repro.net.network import LatencyModel, UniformLatency
from repro.net.simulator import Event, EventSimulator
from repro.net.transport import AgentTransfer

__all__ = [
    "Clock",
    "VirtualClock",
    "LatencyModel",
    "UniformLatency",
    "Event",
    "EventSimulator",
    "AgentTransfer",
]
