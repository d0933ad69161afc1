"""The reference-state verification service.

Hohl's framework assumes verification happens at trusted parties that
many migrating agents contact — the shape of a network service under
load.  This package is that serving layer:

* :mod:`repro.service.api` — **the public client surface**:
  :func:`connect` returns a :class:`Verifier` for any endpoint shape
  (in-process thread, single TCP server, cluster gateway);
* :mod:`repro.service.wire` — length-prefixed canonical framing and
  ``wire/2`` version negotiation;
* :mod:`repro.service.cache` — the LRU verdict cache with tagged
  invalidation, keyed for verifies and session checks alike;
* :mod:`repro.service.batching` — the tick-bounded batch window the
  gateway ships to a backend as one ``verify-batch`` frame;
* :mod:`repro.service.server` — the one asyncio frame server and
  thread host, and the verifier role on top of them: inline settling,
  cached verify and session verdicts, and structured metrics;
* :mod:`repro.service.cluster` — the gateway role: consistent-hash
  routing (:mod:`repro.service.ring`), idempotent failover, and the
  local multi-process launcher;
* :mod:`repro.service.health` — the one per-backend state machine the
  gateway routes by: probes mark a backend down or up, a streak of
  request-path failures holds a flapping one out of routing, and a
  changed instance id reports a restart;
* :mod:`repro.service.retry` — the typed :class:`RetryPolicy`
  (deadline + jittered exponential backoff) that governs dialing and
  idempotent request retry everywhere;
* :mod:`repro.service.client` — the pooled, pipelined wire client
  underneath :func:`connect`;
* :mod:`repro.service.loadgen` — multi-process replay of fleet journey
  request streams (:mod:`repro.sim.requests`) at a target RPS.

``python -m repro.service`` exposes the server, the cluster, and the
loadgen on the command line; ``benchmarks/test_service_scaling.py``
gates the whole stack's speed, checking every verdict against the
in-process ground truth.

The one way to talk to any of it::

    from repro.service import connect
    verifier = await connect("127.0.0.1:7753")
    response = await verifier.verify(signer, message, signature)
"""

from repro.exceptions import RetryExhausted
from repro.service.api import Verifier, connect, resolve_endpoint
from repro.service.batching import MicroBatcher, Settled
from repro.service.cache import VerdictCache
from repro.service.cluster import (
    ClusterConfig,
    ClusterGateway,
    ClusterThread,
    LocalCluster,
    SpawnedVerifier,
    spawn_verifier,
)
from repro.service.health import BackendState, HealthMonitor
from repro.service.loadgen import (
    LoadgenReport,
    build_loadgen_stream,
    fetch_server_stats,
    replay_requests,
    run_loadgen,
)
from repro.service.retry import DEFAULT_RETRYABLE, RetryPolicy
from repro.service.ring import HashRing
from repro.service.server import (
    ServiceConfig,
    ServiceThread,
    VerificationService,
    build_service_keystore,
)
from repro.service.wire import (
    MAX_FRAME_BYTES,
    WIRE_MAJOR,
    WIRE_VERSION,
    decode_body,
    encode_frame,
    read_frame,
    split_frames,
)

__all__ = [
    # The public surface: one connect call, one protocol, two configs.
    "connect",
    "Verifier",
    "ServiceConfig",
    "ClusterConfig",
    "resolve_endpoint",
    # Server- and cluster-side building blocks.
    "VerificationService",
    "ServiceThread",
    "ClusterGateway",
    "ClusterThread",
    "LocalCluster",
    "SpawnedVerifier",
    "spawn_verifier",
    "build_service_keystore",
    "HashRing",
    "HealthMonitor",
    "BackendState",
    "MicroBatcher",
    "Settled",
    "VerdictCache",
    # Robustness: typed retry.
    "RetryPolicy",
    "RetryExhausted",
    "DEFAULT_RETRYABLE",
    # Load generation.
    "LoadgenReport",
    "build_loadgen_stream",
    "fetch_server_stats",
    "replay_requests",
    "run_loadgen",
    # Wire protocol.
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "WIRE_MAJOR",
    "decode_body",
    "encode_frame",
    "read_frame",
    "split_frames",
]
