"""Host resources and services.

Hosts "offer a whole database" or other services in the paper's
discussion of why full behaviour comparison is impractical, and the
``ResourceRequester`` interface of the framework lets an agent declare
that it needs (a replica of) host resources as reference data.

This module models host-side resources as named services with a
``handle(request)`` method.  Everything an agent reads from a service is
routed through the execution context and therefore recorded as input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.crypto.keys import derive_seed
from repro.exceptions import ConfigurationError

__all__ = [
    "HostService",
    "StaticDataService",
    "PriceQuoteService",
    "InputFeedService",
    "SystemFacilities",
    "ResourceCatalog",
]


class HostService:
    """Base class for host-provided services."""

    def __init__(self, name: str) -> None:
        self.name = name

    def handle(self, request: str) -> Any:
        """Answer a request string with a canonical value."""
        raise NotImplementedError

    def snapshot(self) -> Any:
        """Return a replicable snapshot of the service's data.

        Used to satisfy the ``ResourceRequester`` reference-data kind:
        "replicated resources are simply objects that are appended to
        the agent".  Services whose content cannot be meaningfully
        replicated return ``None``.
        """
        return None


class StaticDataService(HostService):
    """A service backed by a fixed request → value table."""

    def __init__(self, name: str, table: Dict[str, Any],
                 default: Any = None) -> None:
        super().__init__(name)
        self._table = dict(table)
        self._default = default

    def handle(self, request: str) -> Any:
        return self._table.get(request, self._default)

    def snapshot(self) -> Any:
        return dict(self._table)

    def update(self, request: str, value: Any) -> None:
        """Change a table entry (e.g. a shop updating a price)."""
        self._table[request] = value


class PriceQuoteService(HostService):
    """A shop-like service quoting prices for products.

    Prices are derived deterministically from the host name and product
    so that different hosts quote different (but reproducible) prices —
    the workload the paper's introduction motivates (comparing flight
    prices across vendors).
    """

    def __init__(self, name: str, host_name: str,
                 catalog: Optional[Dict[str, float]] = None,
                 base_price: float = 100.0) -> None:
        super().__init__(name)
        self._host_name = host_name
        self._catalog = dict(catalog or {})
        self._base_price = base_price

    def handle(self, request: str) -> Any:
        if request in self._catalog:
            return self._catalog[request]
        # Deterministic pseudo-price in [0.5, 1.5) * base, per host+product.
        # derive_seed (not built-in hash()) so the price survives process
        # boundaries: string hashing is randomized per interpreter run.
        seed = derive_seed("%s|%s" % (self._host_name, request)) & 0xFFFFFFFF
        rng = random.Random(seed)
        price = round(self._base_price * (0.5 + rng.random()), 2)
        self._catalog[request] = price
        return price

    def snapshot(self) -> Any:
        return dict(self._catalog)


class InputFeedService(HostService):
    """A service that hands out a pre-defined sequence of input elements.

    This reproduces the paper's generic example agent, whose second
    parameter is "the number of input elements to the agent", each a
    10-byte string provided by the host.  The feed is per-agent-session:
    every request returns the next element of the configured sequence.
    """

    def __init__(self, name: str, elements: Tuple[str, ...]) -> None:
        super().__init__(name)
        self._elements = tuple(elements)
        self._cursor = 0

    def handle(self, request: str) -> Any:
        if not self._elements:
            return None
        value = self._elements[self._cursor % len(self._elements)]
        self._cursor += 1
        return value

    def snapshot(self) -> Any:
        return list(self._elements)


@dataclass
class SystemFacilities:
    """Host system calls available to agents: random numbers and time.

    Both are *inputs* in the paper's model and therefore recorded.  The
    random stream is seeded per host (deterministically from the host
    name unless a seed is given) so simulations are reproducible; the
    time source defaults to a simple monotonic counter but can be bound
    to a clock.
    """

    host_name: str
    seed: Optional[int] = None
    time_source: Optional[Callable[[], float]] = None
    _rng: random.Random = field(init=False, repr=False)
    _tick: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        actual_seed = self.seed
        if actual_seed is None:
            # Stable across interpreter runs, unlike built-in hash().
            actual_seed = derive_seed(self.host_name) & 0xFFFFFFFF
        self._rng = random.Random(actual_seed)

    def call(self, name: str) -> Any:
        """Dispatch a system call by name.

        Supported calls: ``random`` (float in [0, 1)), ``randint``
        (int in [0, 2**31)), ``time`` (seconds).
        """
        if name == "random":
            return self._rng.random()
        if name == "randint":
            return self._rng.randrange(0, 2 ** 31)
        if name == "time":
            if self.time_source is not None:
                return float(self.time_source())
            self._tick += 1
            return float(self._tick)
        raise ConfigurationError("unknown system call %r" % name)


class ResourceCatalog:
    """All services offered by one host."""

    def __init__(self) -> None:
        self._services: Dict[str, HostService] = {}

    def add(self, service: HostService) -> HostService:
        """Register a service under its name."""
        if service.name in self._services:
            raise ConfigurationError(
                "service %r is already registered on this host" % service.name
            )
        self._services[service.name] = service
        return service

    def get(self, name: str) -> HostService:
        """Return the service called ``name``.

        Raises
        ------
        ConfigurationError
            If the host offers no such service.
        """
        try:
            return self._services[name]
        except KeyError as exc:
            raise ConfigurationError("host offers no service %r" % name) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._services

    def names(self) -> Tuple[str, ...]:
        """Names of all registered services, sorted."""
        return tuple(sorted(self._services))

    def query(self, service: str, request: str) -> Any:
        """Answer ``request`` using the service called ``service``."""
        return self.get(service).handle(request)

    def snapshot(self) -> Dict[str, Any]:
        """Replicable snapshot of all services (ResourceRequester data)."""
        return {
            name: service.snapshot() for name, service in sorted(self._services.items())
        }
