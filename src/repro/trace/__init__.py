"""Trace forensics: rebuild fleet/campaign results from JSONL traces.

The fleet's JSONL traces were write-only until now: replayable in
principle, but nothing read them back into the result types the rest of
the stack analyzes.  This package is the read side — the operator
console (``python -m repro.trace``) and the library it sits on:

* :func:`load_trace` / :func:`trace_config` — open a trace and recover
  the exact :class:`~repro.sim.fleet.FleetConfig` that produced it.
* :func:`fleet_result_from_trace` / :func:`campaign_result_from_trace`
  — reconstruct :class:`~repro.sim.fleet.FleetResult` /
  :class:`~repro.sim.campaign.CampaignResult` from events alone, so a
  finished trace answers the same precision/recall/matrix questions as
  the live run (pinned to exact-equality by the tests).
* :func:`list_journeys` / :func:`journey_timeline` — per-journey
  drill-down for incident response: what launched, what struck, which
  hop alarmed.
* :mod:`repro.trace.replay` — deterministic single-journey *policy
  replay*: re-run one journey's detection under a different checker
  than the one recorded and diff the verdicts hop by hop.
* :mod:`repro.trace.report` — the campaign forensics report
  (time-to-detection percentiles, detection matrix, blame summary) as
  JSON and a self-contained HTML artifact.

Everything works off the recorded events; nothing here requires the
live run, its seed, or its host processes.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.campaign import CampaignResult
from repro.sim.fleet import FleetConfig, FleetResult, JourneyOutcome
from repro.sim.trace import (
    _read_events_tolerant,
    attack_events,
    journey_events,
    read_trace,
)

__all__ = [
    "load_trace",
    "trace_header",
    "trace_config",
    "fleet_result_from_trace",
    "campaign_result_from_trace",
    "list_journeys",
    "journey_timeline",
]


def load_trace(path: str, strict: bool = False) -> List[Dict[str, Any]]:
    """Read a JSONL trace file into its event list.

    The default is the tolerant reader (a torn final line — the
    signature of a process killed mid-write — is dropped); ``strict``
    raises on any undecodable line instead.
    """
    if strict:
        return read_trace(path)
    events, _ = _read_events_tolerant(path)
    return events


def trace_header(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``fleet`` header event of a trace (raises if absent)."""
    for event in events:
        if event.get("event") == "fleet":
            return event
    raise ValueError("trace has no fleet header event")


def trace_config(events: Iterable[Dict[str, Any]]) -> FleetConfig:
    """Reconstruct the :class:`FleetConfig` recorded in the header.

    The canonical config snapshot covers every field that shapes the
    deterministic surface; sequence fields come back as JSON lists and
    are re-tupled here so the reconstructed config is usable for
    replay (:mod:`repro.trace.replay` re-executes journeys under it).
    """
    data = dict(trace_header(events).get("config") or {})
    data["attack_scenarios"] = tuple(data.get("attack_scenarios") or ())
    data["journey_scenarios"] = tuple(data.get("journey_scenarios") or ())
    data["workload_mix"] = tuple(
        (str(workload), float(weight))
        for workload, weight in (data.get("workload_mix") or ())
    )
    known = {field.name for field in dataclasses.fields(FleetConfig)}
    return FleetConfig(**{
        key: value for key, value in data.items() if key in known
    })


def _outcome_from_events(
    launch: Dict[str, Any], complete: Dict[str, Any]
) -> JourneyOutcome:
    return JourneyOutcome(
        journey_id=str(complete["journey"]),
        workload=str(launch.get("workload", "")),
        itinerary=tuple(launch.get("itinerary") or ()),
        malicious_visited=tuple(complete.get("malicious_visited") or ()),
        # Resident-host scenario names are not recorded per journey;
        # campaign analysis never reads them (it attributes by
        # ``attack_scenario`` and excludes ``malicious_visited``).
        scenarios=(),
        expected_detected=bool(complete.get("expected")),
        detected=bool(complete.get("detected")),
        blamed_hosts=tuple(complete.get("blamed") or ()),
        hops=int(complete.get("hops") or 0),
        wire_bytes=int(complete.get("wire_bytes") or 0),
        launched_at=float(launch.get("ts") or 0.0),
        completed_at=float(complete.get("ts") or 0.0),
        attack_scenario=complete.get("attack_scenario"),
        attack_hop=complete.get("attack_hop"),
        detected_at_hop=complete.get("detected_at_hop"),
        detected_at=complete.get("detected_at"),
    )


def fleet_result_from_trace(
    events: Iterable[Dict[str, Any]],
) -> FleetResult:
    """Reconstruct a :class:`FleetResult` from trace events alone.

    Every field campaign analysis reads is recovered exactly (the tests
    pin ``CampaignResult.summary()`` to equality with the live run).
    Quantities the trace deliberately does not carry come back neutral:
    wall-clock phase costs are zero, ``events_processed`` is zero, and
    the resident-malicious-host map is empty — so the reconstructed
    result is for *analysis*, not for re-signing
    (:meth:`~repro.sim.fleet.FleetResult.deterministic_signature` of a
    reconstruction is not comparable to the live run's).
    """
    ordered = list(events)
    config = trace_config(ordered)
    launches: Dict[str, Dict[str, Any]] = {}
    completes: List[Dict[str, Any]] = []
    for event in ordered:
        kind = event.get("event")
        if kind == "launch":
            launches[str(event["journey"])] = event
        elif kind == "complete":
            completes.append(event)

    outcomes = []
    for complete in completes:
        journey = str(complete["journey"])
        launch = launches.get(journey)
        if launch is None:
            raise ValueError(
                "trace has a complete event for %s but no launch" % journey
            )
        outcomes.append(_outcome_from_events(launch, complete))
    outcomes.sort(key=lambda o: (o.completed_at, o.journey_id))

    malicious: Dict[str, str] = {}
    return FleetResult(
        config=config,
        outcomes=outcomes,
        malicious_hosts=malicious,
        virtual_makespan=max(
            (o.completed_at for o in outcomes), default=0.0
        ),
        events_processed=0,
        wall_seconds=0.0,
    )


def campaign_result_from_trace(
    events: Iterable[Dict[str, Any]],
) -> CampaignResult:
    """The campaign detection-quality view over a recorded trace."""
    return CampaignResult(fleet=fleet_result_from_trace(list(events)))


def list_journeys(
    events: Iterable[Dict[str, Any]],
    attacked_only: bool = False,
    detected_only: bool = False,
) -> List[Dict[str, Any]]:
    """One summary row per journey, in journey-id order.

    The ``list`` console view: ground truth (scenario, strike hop) and
    outcome (detected, blamed, time to detection) side by side.
    """
    ordered = list(events)
    result = fleet_result_from_trace(ordered)
    rows = []
    for outcome in sorted(result.outcomes, key=lambda o: o.journey_id):
        if attacked_only and not outcome.attacked:
            continue
        if detected_only and not outcome.detected:
            continue
        rows.append({
            "journey": outcome.journey_id,
            "workload": outcome.workload,
            "hops": outcome.hops,
            "attack_scenario": outcome.attack_scenario,
            "attack_hop": outcome.attack_hop,
            "malicious_visited": list(outcome.malicious_visited),
            "expected": outcome.expected_detected,
            "detected": outcome.detected,
            "detected_at_hop": outcome.detected_at_hop,
            "time_to_detection": outcome.time_to_detection,
            "blamed": list(outcome.blamed_hosts),
        })
    return rows


def journey_timeline(
    events: Iterable[Dict[str, Any]], journey_id: str
) -> Dict[str, Any]:
    """Hop-by-hop timeline of one journey, with attack and detection.

    The ``show`` console view.  Each hop row carries the virtual
    timestamp, host, transfer size, verdict count, and markers for the
    attack strike hop and the first detection hop.
    """
    own = journey_events(events, journey_id)
    if not own:
        raise ValueError("journey %s not found in trace" % journey_id)
    launch = next(
        (e for e in own if e.get("event") == "launch"), None
    )
    attack = next(
        (e for e in own if e.get("event") == "attack"), None
    )
    complete = next(
        (e for e in own if e.get("event") == "complete"), None
    )
    detected_at_hop = (
        complete.get("detected_at_hop") if complete else None
    )
    hops = []
    for event in own:
        if event.get("event") != "hop":
            continue
        hop_index = event.get("hop_index")
        hops.append({
            "ts": event.get("ts"),
            "hop_index": hop_index,
            "host": event.get("host"),
            "wire_bytes": event.get("wire_bytes"),
            "verdicts": event.get("verdicts"),
            "attacked_here": bool(
                attack is not None and attack.get("hop") == hop_index
            ),
            "detected_here": bool(
                detected_at_hop is not None and detected_at_hop == hop_index
            ),
        })
    return {
        "journey": journey_id,
        "launch": launch,
        "attack": attack,
        "hops": hops,
        "complete": complete,
    }
