"""Host substrate: hosts, sessions, resources, registry, journey driver."""

from repro.platform.host import Host
from repro.platform.malicious import MaliciousHost
from repro.platform.registry import (
    AgentSystem,
    HopOutcome,
    HostRegistry,
    JourneyResult,
    JourneyRunner,
    ProtectionMechanism,
)
from repro.platform.resources import (
    HostService,
    InputFeedService,
    PriceQuoteService,
    ResourceCatalog,
    StaticDataService,
    SystemFacilities,
)
from repro.platform.session import ExecutionSession, SessionEnvironment, SessionRecord

__all__ = [
    "Host",
    "MaliciousHost",
    "AgentSystem",
    "HopOutcome",
    "HostRegistry",
    "JourneyResult",
    "JourneyRunner",
    "ProtectionMechanism",
    "HostService",
    "InputFeedService",
    "PriceQuoteService",
    "ResourceCatalog",
    "StaticDataService",
    "SystemFacilities",
    "ExecutionSession",
    "SessionEnvironment",
    "SessionRecord",
]
