"""Fleet-scale discrete-event simulation of protected-agent journeys.

* :mod:`repro.sim.fleet` — the event-queue engine interleaving
  thousands of agent journeys across a host topology with a tunable
  malicious fraction, plus the :class:`FleetResult` aggregate;
* :mod:`repro.sim.shard` — deterministic sharding of a fleet into
  units scheduled across a work-stealing multiprocess pool, merging to
  a result bit-identical to the single-process run;
* :mod:`repro.sim.campaign` — adversarial campaigns: journey-resident
  attacks assigned from a dedicated substream, aggregated into
  per-scenario precision / recall / time-to-detection;
* :mod:`repro.sim.trace` — deterministic per-journey JSONL traces,
  replayable through :class:`~repro.agents.execution_log.ExecutionLog`;
* :mod:`repro.sim.requests` — journey replay as verification-service
  request streams: a recording fleet run captures every transfer
  signature and protocol session check together with its in-process
  ground-truth verdict, for :mod:`repro.service` to be benchmarked and
  smoke-tested against.
"""

from repro.sim.campaign import (
    DEFAULT_CAMPAIGN_SCENARIOS,
    CampaignResult,
    ScenarioStats,
    analyze_campaign,
    campaign_config,
    detection_report_from_trace,
    run_campaign,
)
from repro.sim.fleet import (
    FleetConfig,
    FleetEngine,
    FleetResult,
    JourneyAttack,
    JourneyOutcome,
    derive_substream,
    journey_arrival_times,
    plan_journey_attack,
)
from repro.sim.fleet import fleet_host_names
from repro.sim.requests import (
    RecordingFleetEngine,
    RequestStream,
    VerificationRequest,
    corrupt_requests,
    journey_request_stream,
)
from repro.sim.shard import (
    FleetWorkerPool,
    ShardResult,
    ShardSpec,
    execute_unit,
    merge_shard_results,
    plan_units,
    run_fleet,
    split_fleet,
    warm_worker,
)
from repro.sim.trace import (
    TraceWriter,
    attack_events,
    execution_log_at,
    fleet_event_key,
    journey_events,
    merge_shard_events,
    read_trace,
)

__all__ = [
    "CampaignResult",
    "DEFAULT_CAMPAIGN_SCENARIOS",
    "FleetConfig",
    "FleetEngine",
    "FleetResult",
    "FleetWorkerPool",
    "JourneyAttack",
    "JourneyOutcome",
    "RecordingFleetEngine",
    "RequestStream",
    "VerificationRequest",
    "corrupt_requests",
    "journey_request_stream",
    "ScenarioStats",
    "ShardResult",
    "ShardSpec",
    "TraceWriter",
    "analyze_campaign",
    "attack_events",
    "campaign_config",
    "derive_substream",
    "detection_report_from_trace",
    "execute_unit",
    "execution_log_at",
    "fleet_event_key",
    "fleet_host_names",
    "journey_arrival_times",
    "journey_events",
    "merge_shard_events",
    "merge_shard_results",
    "plan_journey_attack",
    "plan_units",
    "read_trace",
    "run_campaign",
    "run_fleet",
    "split_fleet",
    "warm_worker",
]
