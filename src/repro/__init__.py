"""repro — reproduction of "A Framework to Protect Mobile Agents by Using
Reference States" (Fritz Hohl, 2000).

The library re-implements, in pure Python, the paper's checking
framework for mobile-agent protection plus every substrate it depends
on:

* :mod:`repro.crypto` — canonical serialization, hashing, DSA, key
  stores, signed envelopes;
* :mod:`repro.net` — virtual clock, event simulator, latency models,
  the agent transfer payload;
* :mod:`repro.agents` — mobile agents, states, inputs, traces, weak
  migration, re-execution;
* :mod:`repro.platform` — hosts, execution sessions, the journey driver,
  malicious hosts;
* :mod:`repro.attacks` — the Figure-2 attack model, injectors, detection
  metrics;
* :mod:`repro.core` — **the paper's contribution**: reference data,
  requester interfaces, checking algorithms, the policy-driven checking
  framework, and the measured example protocol;
* :mod:`repro.baselines` — state appraisal, server replication, Vigna
  traces, and proof verification;
* :mod:`repro.workloads` — the paper's generic agent plus shopping and
  survey applications;
* :mod:`repro.bench` — the timing harness that regenerates Tables 1
  and 2 (performance numbers come from ``perfbench/run.py``);
* :mod:`repro.sim` — the discrete-event fleet engine interleaving
  thousands of protected journeys, with replayable JSONL traces.

Quickstart
----------
>>> from repro.core import ReferenceStateProtocol
>>> from repro.workloads import build_generic_scenario
>>> scenario, agent = build_generic_scenario(cycles=1, input_elements=1)
>>> protocol = ReferenceStateProtocol(trusted_hosts=scenario.trusted_host_names)
>>> result = scenario.system.launch(agent, scenario.itinerary, protection=protocol)
>>> result.detected_attack()
False
"""

from repro.exceptions import (
    AgentError,
    CheckingError,
    ConfigurationError,
    CryptoError,
    ExecutionError,
    InputReplayError,
    ItineraryError,
    MigrationError,
    NetworkError,
    ProofError,
    ProtocolError,
    ReplicationError,
    ReproError,
    SerializationError,
    SignatureError,
    TransportError,
)

__version__ = "1.0.0"

#: Stable verification-service entry points re-exported lazily (PEP
#: 562): ``from repro import connect`` works without paying the
#: service/asyncio import cost in programs that never touch it.
_SERVICE_EXPORTS = ("connect", "Verifier", "ServiceConfig",
                    "ClusterConfig")


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro import service as _service

        return getattr(_service, name)
    raise AttributeError(
        "module %r has no attribute %r" % (__name__, name)
    )


__all__ = [
    "__version__",
    "connect",
    "Verifier",
    "ServiceConfig",
    "ClusterConfig",
    "AgentError",
    "CheckingError",
    "ConfigurationError",
    "CryptoError",
    "ExecutionError",
    "InputReplayError",
    "ItineraryError",
    "MigrationError",
    "NetworkError",
    "ProofError",
    "ProtocolError",
    "ReplicationError",
    "ReproError",
    "SerializationError",
    "SignatureError",
    "TransportError",
]
