"""Discrete-event fleet simulation: thousands of concurrent journeys.

The single-journey driver (:class:`~repro.platform.registry.AgentSystem`)
runs one agent start-to-finish.  Production-scale questions — aggregate
detection rates under a population of malicious hosts, per-phase latency
under load, the payoff of batched signature verification — need many
journeys *interleaved*, the way a real agent platform would see them.

:class:`FleetEngine` provides that: journeys arrive on a virtual
timeline (exponential inter-arrival gaps), every hop of every journey is
an event on a :class:`~repro.net.simulator.EventSimulator` heap, and
migration latency is derived from the actual wire size of each transfer.
A tunable fraction of hosts is malicious, each mounting one scenario
from the standard attack catalogue; journeys run the paper's
reference-state protocol (or unprotected, for baselines) and the engine
aggregates everything into a :class:`FleetResult`.

Determinism is a design requirement, not an accident: the same
:class:`FleetConfig` (same seed) produces bit-identical journey
outcomes, virtual timestamps, and JSONL traces on any machine.  All
randomness flows from named substreams derived from the master seed
(:func:`derive_substream`): one stream decides the topology, one stream
decides the arrival timeline, and every journey owns a private stream
for its workload and itinerary draws.  Because no draw of one journey
ever consumes randomness from another journey's stream, the fleet is
*shard-decomposable*: running any subset of the agent-index range
(:mod:`repro.sim.shard`) reproduces exactly the journeys of that subset,
and the merge of all shards is bit-identical to the full run.
Wall-clock measurements are kept strictly out of the deterministic
surface (they are reported separately).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.agents.itinerary import Itinerary
from repro.attacks.scenarios import AttackScenario, scenario_by_name
from repro.crypto.batch import BatchedTransferVerifier
from repro.crypto.canonical import canonical_encode
from repro.crypto.keys import KeyStore
from repro.exceptions import ConfigurationError
from repro.net.network import UniformLatency
from repro.net.simulator import EventSimulator
from repro.obs import new_registry
from repro.platform.host import Host
from repro.platform.malicious import MaliciousHost
from repro.platform.registry import (
    AgentSystem,
    HostRegistry,
    JourneyRunner,
    verdict_is_attack,
)
from repro.platform.resources import PriceQuoteService
from repro.sim.trace import TraceWriter
from repro.workloads.shopping import QUOTE_SERVICE, ShoppingAgent
from repro.workloads.survey import SURVEY_MAILBOX, SurveyAgent

__all__ = [
    "FleetConfig",
    "JourneyAttack",
    "JourneyOutcome",
    "FleetResult",
    "FleetEngine",
    "derive_substream",
    "fleet_host_names",
    "journey_arrival_times",
    "journey_id_for_index",
    "plan_journey_attack",
]


def journey_id_for_index(index: int) -> str:
    """The deterministic journey id of the ``index``-th journey.

    Journey ids are a pure function of position, so units of any
    partition own disjoint id sets and ``repro.trace replay`` can map
    an id back to the journey index it re-runs.
    """
    return "j%05d" % index


def fleet_host_names(config: "FleetConfig") -> List[str]:
    """Every host name a fleet run will create, home first.

    A pure function of the configuration, so worker-pool initializers
    can pre-generate the deterministic host identities (key pairs derive
    from names alone) before any shard starts executing.
    """
    return ["home"] + [
        "host-%03d" % index for index in range(1, config.num_hosts + 1)
    ]


def derive_substream(seed: int, *labels: Any) -> int:
    """Derive an independent RNG seed from the master seed and a label path.

    Substreams make the fleet's randomness *positional* rather than
    sequential: the topology, the arrival timeline, and every journey
    each own a named stream, so computing any one of them never requires
    replaying the draws of the others.  This is the property that lets
    :mod:`repro.sim.shard` execute disjoint agent ranges in separate
    processes and still merge to a bit-identical result.
    """
    material = "|".join([str(seed)] + [str(label) for label in labels])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def journey_arrival_times(config: "FleetConfig") -> List[float]:
    """Absolute virtual launch times for every journey of the run.

    The gaps are exponential (Poisson arrivals) and drawn from the
    dedicated ``arrivals`` substream in journey-index order, so a shard
    covering ``[start, stop)`` recomputes the identical prefix sums the
    full run uses — the arrival timeline is a pure function of the
    configuration.
    """
    rng = Random(derive_substream(config.seed, "arrivals"))
    arrivals: List[float] = []
    now = 0.0
    for _ in range(config.num_agents):
        now += rng.expovariate(config.arrival_rate)
        arrivals.append(now)
    return arrivals


@dataclass(frozen=True)
class JourneyAttack:
    """Campaign ground truth for one journey: what strikes, and where.

    Attributes
    ----------
    scenario:
        Name of the standard-catalogue scenario mounted on the journey.
    hop:
        Itinerary hop index (1-based service hop) at which the injector
        strikes.
    """

    scenario: str
    hop: int


def plan_journey_attack(config: "FleetConfig",
                        index: int) -> Optional[JourneyAttack]:
    """Deterministic campaign assignment for journey ``index``.

    A pure function of ``(config, index)``: all draws come from the
    dedicated ``("campaign", index)`` substream, never from the journey's
    own stream.  This isolation is load-bearing twice over — benign
    journeys are bit-identical between a 0%-attack and a 30%-attack
    campaign of the same seed, and any shard recomputes exactly the
    assignments of its journey range.
    """
    if config.attack_fraction <= 0.0 or not config.journey_scenarios:
        return None
    rng = Random(derive_substream(config.seed, "campaign", index))
    if rng.random() >= config.attack_fraction:
        return None
    scenario = config.journey_scenarios[
        rng.randrange(len(config.journey_scenarios))
    ]
    hop = rng.randrange(1, config.hops_per_journey + 1)
    return JourneyAttack(scenario=scenario, hop=hop)


@dataclass(frozen=True)
class FleetConfig:
    """Parameters of one fleet simulation run.

    Attributes
    ----------
    num_agents:
        Number of journeys to launch.
    num_hosts:
        Number of (untrusted) service hosts besides the trusted home.
    hops_per_journey:
        Service hosts each journey visits (between leaving home and
        returning to it).
    malicious_host_fraction:
        Fraction of service hosts that mount an attack; rounded to the
        nearest whole host.
    attack_scenarios:
        Names from the standard attack catalogue, assigned to malicious
        hosts round-robin.
    workload_mix:
        ``(workload, weight)`` pairs; supported workloads are
        ``"shopping"`` and ``"survey"``.
    protected:
        Run the reference-state protocol (``True``) or plain agents.
    seed:
        Master seed for all randomness in the run.
    arrival_rate:
        Mean journey launches per virtual second.
    base_latency / latency_per_byte:
        Migration latency model (virtual seconds).
    session_service_time:
        Fixed virtual service time charged per hop.
    trace_path:
        Optional file the JSONL trace is written to after the run.
    attack_fraction:
        Campaign layer: fraction of *journeys* that carry a
        journey-resident attack (an injector mounted at one hop of the
        itinerary, independent of the host population).  Assignment
        draws from the dedicated ``("campaign", index)`` substream, so
        turning a campaign on or off never shifts any benign journey's
        randomness, and sharded campaign runs stay bit-identical to
        single-process ones.
    journey_scenarios:
        Names from the standard attack catalogue the campaign draws
        from; required (non-empty) whenever ``attack_fraction`` > 0.
    """

    num_agents: int = 1000
    num_hosts: int = 25
    hops_per_journey: int = 4
    malicious_host_fraction: float = 0.2
    attack_scenarios: Tuple[str, ...] = (
        "tamper-result-variable",
        "incorrect-execution",
        "drop-input-records",
    )
    workload_mix: Tuple[Tuple[str, float], ...] = (
        ("shopping", 0.7),
        ("survey", 0.3),
    )
    protected: bool = True
    seed: int = 0
    arrival_rate: float = 100.0
    base_latency: float = 0.005
    latency_per_byte: float = 1e-7
    session_service_time: float = 0.002
    trace_path: Optional[str] = None
    attack_fraction: float = 0.0
    journey_scenarios: Tuple[str, ...] = ()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        if self.num_agents < 1:
            raise ConfigurationError("num_agents must be positive")
        if self.num_hosts < 1:
            raise ConfigurationError("num_hosts must be positive")
        if not 1 <= self.hops_per_journey <= self.num_hosts:
            raise ConfigurationError(
                "hops_per_journey must be between 1 and num_hosts"
            )
        if not 0.0 <= self.malicious_host_fraction <= 1.0:
            raise ConfigurationError(
                "malicious_host_fraction must be within [0, 1]"
            )
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be positive")
        if not self.workload_mix or all(w <= 0 for _, w in self.workload_mix):
            raise ConfigurationError("workload_mix needs a positive weight")
        for workload, _ in self.workload_mix:
            if workload not in ("shopping", "survey"):
                raise ConfigurationError("unknown workload %r" % workload)
        for name in self.attack_scenarios:
            scenario_by_name(name)  # raises KeyError on unknown names
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ConfigurationError(
                "attack_fraction must be within [0, 1]"
            )
        if self.attack_fraction > 0.0 and not self.journey_scenarios:
            raise ConfigurationError(
                "attack_fraction > 0 requires journey_scenarios"
            )
        for name in self.journey_scenarios:
            scenario_by_name(name)  # raises KeyError on unknown names

    def to_canonical(self) -> Dict[str, Any]:
        return {
            "num_agents": self.num_agents,
            "num_hosts": self.num_hosts,
            "hops_per_journey": self.hops_per_journey,
            "malicious_host_fraction": self.malicious_host_fraction,
            "attack_scenarios": list(self.attack_scenarios),
            "workload_mix": [list(pair) for pair in self.workload_mix],
            "protected": self.protected,
            "seed": self.seed,
            "arrival_rate": self.arrival_rate,
            "base_latency": self.base_latency,
            "latency_per_byte": self.latency_per_byte,
            "session_service_time": self.session_service_time,
            "attack_fraction": self.attack_fraction,
            "journey_scenarios": list(self.journey_scenarios),
        }


@dataclass
class JourneyOutcome:
    """Everything the fleet engine recorded about one finished journey."""

    journey_id: str
    workload: str
    itinerary: Tuple[str, ...]
    malicious_visited: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    expected_detected: bool
    detected: bool
    blamed_hosts: Tuple[str, ...]
    hops: int
    wire_bytes: int
    launched_at: float
    completed_at: float
    #: Campaign ground truth: the journey-resident attack, if any.
    attack_scenario: Optional[str] = None
    attack_hop: Optional[int] = None
    #: First hop index / virtual time at which an attack verdict fired
    #: (``None`` when the journey never alarmed).
    detected_at_hop: Optional[int] = None
    detected_at: Optional[float] = None
    #: Wall-clock phase costs (not part of the deterministic surface).
    check_seconds: float = 0.0
    session_seconds: float = 0.0
    migrate_seconds: float = 0.0

    @property
    def virtual_duration(self) -> float:
        """Journey latency on the virtual timeline."""
        return self.completed_at - self.launched_at

    @property
    def attacked(self) -> bool:
        """Whether the journey met a malicious host or a campaign attack."""
        return bool(self.malicious_visited) or self.attack_scenario is not None

    @property
    def attacker_hosts(self) -> Tuple[str, ...]:
        """Hosts that attacked this journey (resident and campaign)."""
        attackers = list(self.malicious_visited)
        if self.attack_hop is not None:
            target = self.itinerary[self.attack_hop]
            if target not in attackers:
                attackers.append(target)
        return tuple(attackers)

    @property
    def hops_to_detection(self) -> Optional[int]:
        """Hops between the campaign attack and its first verdict."""
        if self.attack_hop is None or self.detected_at_hop is None:
            return None
        return self.detected_at_hop - self.attack_hop

    @property
    def time_to_detection(self) -> Optional[float]:
        """Virtual seconds from launch to the first attack verdict."""
        if self.detected_at is None:
            return None
        return self.detected_at - self.launched_at

    def to_canonical(self) -> Dict[str, Any]:
        """Deterministic fields only — wall timings are excluded."""
        return {
            "journey_id": self.journey_id,
            "workload": self.workload,
            "itinerary": list(self.itinerary),
            "malicious_visited": list(self.malicious_visited),
            "scenarios": list(self.scenarios),
            "expected_detected": self.expected_detected,
            "detected": self.detected,
            "blamed_hosts": list(self.blamed_hosts),
            "hops": self.hops,
            "wire_bytes": self.wire_bytes,
            "launched_at": self.launched_at,
            "completed_at": self.completed_at,
            "attack_scenario": self.attack_scenario,
            "attack_hop": self.attack_hop,
            "detected_at_hop": self.detected_at_hop,
            "detected_at": self.detected_at,
        }


@dataclass
class FleetResult:
    """Aggregate outcome of a fleet run."""

    config: FleetConfig
    outcomes: List[JourneyOutcome]
    malicious_hosts: Dict[str, str]
    virtual_makespan: float
    events_processed: int
    wall_seconds: float
    verifier_stats: Optional[Dict[str, Any]] = None
    deferred_signature_failures: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-unit execution metadata when the result came out of
    #: :func:`repro.sim.shard.run_fleet` (wall times, ranges, workers).
    #: Not part of the deterministic surface.
    shards: Optional[List[Dict[str, Any]]] = None
    #: Per-worker scheduling diagnostics from the work-stealing pool
    #: (units executed, warmup/compute/serialize split, coordinator
    #: merge time).  Wall-clock only — never part of the deterministic
    #: surface.
    worker_report: Optional[Dict[str, Any]] = None

    # -- population slices -------------------------------------------------------

    @property
    def journeys(self) -> int:
        return len(self.outcomes)

    @property
    def attacked_journeys(self) -> List[JourneyOutcome]:
        """Journeys that visited at least one malicious host."""
        return [outcome for outcome in self.outcomes if outcome.attacked]

    @property
    def honest_journeys(self) -> List[JourneyOutcome]:
        """Journeys that met neither malicious hosts nor campaign attacks."""
        return [outcome for outcome in self.outcomes if not outcome.attacked]

    @property
    def campaign_journeys(self) -> List[JourneyOutcome]:
        """Journeys that carried a journey-resident campaign attack."""
        return [o for o in self.outcomes if o.attack_scenario is not None]

    # -- detection metrics -------------------------------------------------------

    @property
    def detection_rate(self) -> float:
        """Detected fraction of journeys the paper expects to be caught."""
        expected = [o for o in self.outcomes if o.expected_detected]
        if not expected:
            return 1.0
        return sum(1 for o in expected if o.detected) / len(expected)

    @property
    def false_positives(self) -> int:
        """Honest journeys that were flagged anyway."""
        return sum(1 for o in self.honest_journeys if o.detected)

    @property
    def false_positive_rate(self) -> float:
        honest = self.honest_journeys
        if not honest:
            return 0.0
        return self.false_positives / len(honest)

    @property
    def undetectable_flagged(self) -> int:
        """Attacked-but-undetectable journeys that were flagged.

        Nonzero values mean a scenario the paper concedes (read attacks,
        input lying, ...) somehow triggered a verdict — which would be a
        reproduction bug, so the metric is surfaced rather than folded
        into the false-positive count.
        """
        return sum(
            1 for o in self.attacked_journeys
            if not o.expected_detected and o.detected
        )

    @property
    def blame_accuracy(self) -> float:
        """Fraction of correct detections that blame a visited attacker."""
        detected = [o for o in self.outcomes if o.expected_detected and o.detected]
        if not detected:
            return 1.0
        correct = sum(
            1 for o in detected
            if set(o.blamed_hosts) & set(o.attacker_hosts)
        )
        return correct / len(detected)

    # -- latency / throughput ----------------------------------------------------

    @property
    def virtual_throughput(self) -> float:
        """Completed journeys per virtual second."""
        if self.virtual_makespan <= 0:
            return 0.0
        return self.journeys / self.virtual_makespan

    def per_phase_seconds(self) -> Dict[str, float]:
        """Total wall-clock compute cost by phase across the fleet."""
        return {
            "check": sum(o.check_seconds for o in self.outcomes),
            "session": sum(o.session_seconds for o in self.outcomes),
            "migrate": sum(o.migrate_seconds for o in self.outcomes),
        }

    def mean_journey_latency(self) -> float:
        """Mean virtual latency from launch to completion."""
        if not self.outcomes:
            return 0.0
        return sum(o.virtual_duration for o in self.outcomes) / len(self.outcomes)

    # -- reporting ---------------------------------------------------------------

    def deterministic_signature(self) -> str:
        """Content hash of everything that must be seed-reproducible."""
        payload = {
            "config": self.config.to_canonical(),
            "outcomes": [o.to_canonical() for o in self.outcomes],
            "malicious_hosts": dict(self.malicious_hosts),
            "virtual_makespan": self.virtual_makespan,
            "events_processed": self.events_processed,
        }
        return hashlib.sha256(canonical_encode(payload)).hexdigest()

    def summary(self) -> Dict[str, Any]:
        """Compact human-facing metrics of the run."""
        phases = self.per_phase_seconds()
        return {
            "journeys": self.journeys,
            "attacked_journeys": len(self.attacked_journeys),
            "campaign_attacked": len(self.campaign_journeys),
            "honest_journeys": len(self.honest_journeys),
            "detection_rate": self.detection_rate,
            "false_positives": self.false_positives,
            "undetectable_flagged": self.undetectable_flagged,
            "blame_accuracy": self.blame_accuracy,
            "virtual_makespan": round(self.virtual_makespan, 6),
            "virtual_throughput": round(self.virtual_throughput, 3),
            "mean_journey_latency": round(self.mean_journey_latency(), 6),
            "events_processed": self.events_processed,
            "wall_seconds": round(self.wall_seconds, 3),
            "phase_seconds": {k: round(v, 3) for k, v in phases.items()},
            "deferred_signature_failures": len(self.deferred_signature_failures),
        }


@dataclass
class _Journey:
    """Mutable per-journey bookkeeping inside the engine."""

    journey_id: str
    workload: str
    itinerary: List[str]
    runner: JourneyRunner
    malicious_visited: Tuple[str, ...]
    scenarios: Tuple[str, ...]
    expected_detected: bool
    attack: Optional[JourneyAttack] = None
    launched_at: float = 0.0
    detected_at_hop: Optional[int] = None
    detected_at: Optional[float] = None
    check_seconds: float = 0.0
    session_seconds: float = 0.0
    migrate_seconds: float = 0.0


class FleetEngine:
    """Runs one fleet simulation described by a :class:`FleetConfig`.

    Every transfer check is queued on one
    :class:`~repro.crypto.batch.BatchedTransferVerifier` and settled in
    batches, the last one when the run ends.

    Parameters
    ----------
    config:
        The run description.
    agent_start / agent_stop:
        Journey-index range ``[agent_start, agent_stop)`` this engine
        executes.  Defaults to the whole fleet; :mod:`repro.sim.shard`
        passes disjoint sub-ranges.  Journey identities, randomness, and
        virtual timestamps are global — a partial engine reproduces
        exactly the journeys of its range, bit for bit.
    record_trace:
        Whether the run builds its trace events in :attr:`trace`.
        Defaults to whether ``config.trace_path`` is set; a unit of a
        traced run (whose config has no path) or a replay passes
        ``True``.  An untraced run builds no events at all.
    """

    def __init__(
        self,
        config: FleetConfig,
        agent_start: int = 0,
        agent_stop: Optional[int] = None,
        record_trace: Optional[bool] = None,
    ) -> None:
        config.validate()
        stop = config.num_agents if agent_stop is None else agent_stop
        if not 0 <= agent_start <= stop <= config.num_agents:
            raise ConfigurationError(
                "agent range [%d, %d) must lie within [0, %d)"
                % (agent_start, stop, config.num_agents)
            )
        self.config = config
        self.agent_start = agent_start
        self.agent_stop = stop
        self.record_trace = (
            bool(config.trace_path) if record_trace is None else record_trace
        )
        self.trace = TraceWriter()
        self._topology_rng = Random(derive_substream(config.seed, "topology"))
        self._simulator = EventSimulator()
        self._registry = HostRegistry()
        self._keystore = KeyStore()
        self._latency = UniformLatency(
            base_seconds=config.base_latency,
            seconds_per_byte=config.latency_per_byte,
        )
        self._protocol = None
        self._transfer_verifier = self._build_transfer_verifier()
        self._outcomes: List[JourneyOutcome] = []
        self._malicious: Dict[str, str] = {}
        self._host_names: List[str] = []
        #: Side-band telemetry (repro.obs).  Never feeds the
        #: deterministic surface; with observability disabled this is
        #: the shared null registry and the instruments below are
        #: no-ops.  Instruments are cached here because _hop runs once
        #: per hop of every journey — the hot path pays attribute
        #: access plus an observe, never a dict lookup.
        self.metrics = new_registry()
        self._m_hops = self.metrics.counter("fleet.hops")
        self._m_journeys = self.metrics.counter("fleet.journeys")
        self._m_detections = self.metrics.counter("fleet.detections")
        self._m_hop_seconds = self.metrics.histogram("fleet.hop.seconds")
        self._m_check_seconds = self.metrics.histogram("fleet.check.seconds")
        self._m_journey_hops = self.metrics.histogram("fleet.journey.hops")

    # -- public API --------------------------------------------------------------

    def run(self) -> FleetResult:
        """Execute the configured fleet and return the aggregate result."""
        started = time.perf_counter()
        self._build_topology()
        system = AgentSystem(self._registry, sign_transfers=True)
        if self.config.protected:
            self._protocol = self._build_protocol(system)

        if self.record_trace:
            self.trace.emit("fleet", config=self.config.to_canonical())
        journeys = self._build_journeys(system)
        self._schedule_launches(journeys)
        self._simulator.run()

        verifier = self._transfer_verifier
        verifier.flush()

        # Canonical outcome order: completion time, journey id.  Heap
        # tie-breaking between different journeys depends on global
        # schedule sequence numbers, which a sharded run cannot
        # reconstruct — so the result order is made content-addressed
        # here, identically for full and sharded runs.
        self._outcomes.sort(key=lambda o: (o.completed_at, o.journey_id))
        result = FleetResult(
            config=self.config,
            outcomes=self._outcomes,
            malicious_hosts=dict(self._malicious),
            virtual_makespan=self._simulator.clock.now(),
            events_processed=self._simulator.processed,
            wall_seconds=time.perf_counter() - started,
            verifier_stats=verifier.stats(),
            deferred_signature_failures=list(verifier.deferred_failures),
        )
        if self.config.trace_path:
            self.trace.write(self.config.trace_path, canonical_order=True)
        return result

    # -- setup -------------------------------------------------------------------

    def _build_protocol(self, system: AgentSystem):
        """Build the journey protection protocol (override hook).

        :mod:`repro.sim.requests` subclasses the engine and wraps the
        protocol with a recording variant that captures session-check
        payloads for the verification service; keeping construction in
        a factory method makes that possible without copying ``run``.
        """
        from repro.core.protocol import ReferenceStateProtocol

        return ReferenceStateProtocol(
            code_registry=system.code_registry,
            trusted_hosts=("home",),
        )

    def _build_transfer_verifier(self) -> BatchedTransferVerifier:
        """Build the batched transfer verifier (override hook)."""
        return BatchedTransferVerifier(self._keystore)

    def _build_topology(self) -> None:
        """Create the home host plus the service-host population."""
        config = self.config
        home = Host("home", keystore=self._keystore, trusted=True)
        home.add_service(PriceQuoteService(QUOTE_SERVICE, "home", catalog={
            "flight": None,
        }))
        self._registry.add(home)

        self._host_names = fleet_host_names(config)[1:]
        malicious_count = int(round(
            config.malicious_host_fraction * config.num_hosts
        ))
        malicious_names = (
            self._topology_rng.sample(self._host_names, malicious_count)
            if malicious_count else []
        )
        scenarios: Dict[str, AttackScenario] = {}
        for index, name in enumerate(sorted(malicious_names)):
            scenario_name = config.attack_scenarios[
                index % len(config.attack_scenarios)
            ] if config.attack_scenarios else None
            if scenario_name is None:
                continue
            # Tampering hosts each plant a host-specific variable ("a
            # value favourable to the host"); two hosts overwriting the
            # same variable with the same value would make the second
            # tamper a no-op — an attack with no state change, which no
            # state-comparison scheme can (or needs to) detect.
            scenarios[name] = scenario_by_name(
                scenario_name, tamper_variable="tampered_by_%s" % name
            )
            self._malicious[name] = scenario_name

        for name in self._host_names:
            if name in scenarios:
                host: Host = MaliciousHost(
                    name,
                    keystore=self._keystore,
                    trusted=False,
                    injectors=[scenarios[name].build()],
                )
            else:
                host = Host(name, keystore=self._keystore, trusted=False)
            host.add_service(PriceQuoteService(QUOTE_SERVICE, name))
            host.set_host_data("survey_participant", True)
            self._registry.add(host)

    def _build_journeys(self, system: AgentSystem) -> List[_Journey]:
        """Sample itineraries, workloads, and agents for this engine's range.

        Every journey draws from its own ``("journey", index)`` substream,
        so journey ``index`` looks identical no matter which other
        journeys run alongside it — the property shard merging relies on.
        """
        config = self.config
        workloads, weights = zip(*config.workload_mix)
        journeys: List[_Journey] = []
        survey_visits: Dict[str, int] = {}

        # Campaign scenarios are invariant across journeys (the tamper
        # variable is one no honest execution produces — an attack that
        # changes nothing is not an attack the paper's scheme needs to
        # see), so the parameterized catalogue is built once, not per
        # attacked journey.
        campaign_scenarios = {
            name: scenario_by_name(
                name,
                tamper_variable="tampered_by_campaign",
                tamper_value="campaign-marker",
            )
            for name in config.journey_scenarios
        }

        for index in range(self.agent_start, self.agent_stop):
            journey_id = journey_id_for_index(index)
            journey_rng = Random(derive_substream(config.seed, "journey", index))
            workload = journey_rng.choices(workloads, weights=weights, k=1)[0]
            visited = journey_rng.sample(self._host_names, config.hops_per_journey)
            route = ["home"] + visited + ["home"]
            if workload == "shopping":
                agent: Any = ShoppingAgent(
                    {"products": ["flight"], "budget": 1000.0},
                    owner="fleet-owner",
                    agent_id="fleet/%s" % journey_id,
                )
            else:
                agent = SurveyAgent(
                    owner="fleet-owner",
                    agent_id="fleet/%s" % journey_id,
                )
                for host_name in visited:
                    survey_visits[host_name] = survey_visits.get(host_name, 0) + 1

            malicious_visited = tuple(
                name for name in visited if name in self._malicious
            )
            scenario_names = tuple(
                self._malicious[name] for name in malicious_visited
            )
            expected = bool(config.protected) and any(
                scenario_by_name(name).expected_detected
                for name in scenario_names
            )

            # Journey-resident campaign attack: assignment comes from the
            # dedicated campaign substream (plan_journey_attack), so the
            # journey stream above is never perturbed by it.
            attack = plan_journey_attack(config, index)
            hop_injectors = None
            if attack is not None:
                campaign_scenario = campaign_scenarios[attack.scenario]
                hop_injectors = {attack.hop: [campaign_scenario.build()]}
                expected = expected or (
                    bool(config.protected)
                    and campaign_scenario.expected_detected
                )

            runner = system.runner(
                agent,
                Itinerary(hosts=route),
                protection=self._protocol,
                transfer_verifier=self._transfer_verifier,
                hop_injectors=hop_injectors,
            )
            journeys.append(_Journey(
                journey_id=journey_id,
                workload=workload,
                itinerary=route,
                runner=runner,
                malicious_visited=malicious_visited,
                scenarios=scenario_names,
                expected_detected=expected,
                attack=attack,
            ))

        # Deposit exactly one survey answer per expected visit so the
        # mailbox never runs dry under interleaved consumption.  Values
        # are a deterministic function of the host index.
        for host_name, visits in sorted(survey_visits.items()):
            host = self._registry.get(host_name)
            host_index = int(host_name.split("-")[-1])
            value = float(2 + host_index % 9)
            for _ in range(visits):
                host.message_board.deposit(
                    sender="participant-%s" % host_name,
                    mailbox=SURVEY_MAILBOX,
                    body=value,
                )
        return journeys

    def _schedule_launches(self, journeys: Sequence[_Journey]) -> None:
        """Spread journey launches along the (global) virtual timeline.

        Arrival times come from :func:`journey_arrival_times`, which is a
        pure function of the configuration — a sharded engine schedules
        its journeys at the exact absolute timestamps the full run uses.
        """
        arrivals = journey_arrival_times(self.config)
        for offset, journey in enumerate(journeys):
            self._simulator.schedule_at(
                arrivals[self.agent_start + offset],
                lambda journey=journey: self._launch(journey),
            )

    # -- event handlers ----------------------------------------------------------

    def _launch(self, journey: _Journey) -> None:
        journey.launched_at = self._simulator.clock.now()
        journey.runner.start()
        if self.record_trace:
            self._trace_launch(journey)
        self._hop(journey)

    def _trace_launch(self, journey: _Journey) -> None:
        self.trace.emit(
            "launch",
            ts=journey.launched_at,
            journey=journey.journey_id,
            agent=journey.runner.agent.agent_id,
            workload=journey.workload,
            itinerary=list(journey.itinerary),
        )
        if journey.attack is not None:
            # Ground truth goes into the trace up front: what strikes,
            # where, and whether the paper expects the scheme to see it.
            self.trace.emit(
                "attack",
                ts=journey.launched_at,
                journey=journey.journey_id,
                scenario=journey.attack.scenario,
                hop=journey.attack.hop,
                target=journey.itinerary[journey.attack.hop],
                expected=(
                    bool(self.config.protected)
                    and scenario_by_name(journey.attack.scenario).expected_detected
                ),
            )

    def _hop(self, journey: _Journey) -> None:
        self._transfer_verifier.bind(journey.journey_id)
        outcome = journey.runner.step()
        journey.check_seconds += outcome.check_seconds
        journey.session_seconds += outcome.session_seconds
        journey.migrate_seconds += outcome.migrate_seconds
        self._m_hops.inc()
        self._m_check_seconds.observe(outcome.check_seconds)
        self._m_hop_seconds.observe(
            outcome.check_seconds + outcome.session_seconds
            + outcome.migrate_seconds
        )

        if journey.detected_at is None and any(
            verdict_is_attack(verdict) for verdict in outcome.new_verdicts
        ):
            journey.detected_at_hop = outcome.hop_index
            journey.detected_at = self._simulator.clock.now()

        if self.record_trace:
            record = journey.runner.result.records[-1]
            self.trace.emit(
                "hop",
                ts=self._simulator.clock.now(),
                journey=journey.journey_id,
                host=outcome.host,
                hop_index=outcome.hop_index,
                wire_bytes=outcome.wire_bytes,
                verdicts=len(outcome.new_verdicts),
                execution_log=record.execution_log.to_canonical(),
            )

        if journey.runner.done:
            self._complete(journey)
        else:
            delay = (
                self.config.session_service_time
                + self._latency.latency(
                    outcome.host, "next", int(outcome.wire_bytes or 0)
                )
            )
            self._simulator.schedule(
                delay, lambda journey=journey: self._hop(journey)
            )

    def _complete(self, journey: _Journey) -> None:
        result = journey.runner.result
        completed_at = self._simulator.clock.now()
        outcome = JourneyOutcome(
            journey_id=journey.journey_id,
            workload=journey.workload,
            itinerary=tuple(journey.itinerary),
            malicious_visited=journey.malicious_visited,
            scenarios=journey.scenarios,
            expected_detected=journey.expected_detected,
            detected=result.detected_attack(),
            blamed_hosts=result.blamed_hosts(),
            hops=result.hops,
            wire_bytes=result.total_transfer_bytes,
            launched_at=journey.launched_at,
            completed_at=completed_at,
            attack_scenario=(
                journey.attack.scenario if journey.attack else None
            ),
            attack_hop=journey.attack.hop if journey.attack else None,
            detected_at_hop=journey.detected_at_hop,
            detected_at=journey.detected_at,
            check_seconds=journey.check_seconds,
            session_seconds=journey.session_seconds,
            migrate_seconds=journey.migrate_seconds,
        )
        self._outcomes.append(outcome)
        self._m_journeys.inc()
        self._m_journey_hops.observe(outcome.hops)
        if outcome.detected:
            self._m_detections.inc()
        if not self.record_trace:
            return
        self.trace.emit(
            "complete",
            ts=completed_at,
            journey=journey.journey_id,
            detected=outcome.detected,
            blamed=list(outcome.blamed_hosts),
            hops=outcome.hops,
            wire_bytes=outcome.wire_bytes,
            expected=outcome.expected_detected,
            malicious_visited=list(outcome.malicious_visited),
            attack_scenario=outcome.attack_scenario,
            attack_hop=outcome.attack_hop,
            detected_at_hop=outcome.detected_at_hop,
            detected_at=outcome.detected_at,
        )
