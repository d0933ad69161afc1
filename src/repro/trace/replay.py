"""Deterministic single-journey policy replay over a recorded trace.

The fleet is shard-decomposable: journey ``index`` draws only from its
own named substreams, so a :class:`~repro.sim.fleet.FleetEngine` over
the range ``[index, index+1)`` reproduces that journey's events bit for
bit — no temp files, no other journeys, milliseconds of work.  Replay
builds on that twice:

* **Fidelity replay** (no ``--checker``): re-execute the journey under
  the checker the trace recorded and require the replayed events to be
  byte-identical to the recorded ones.  A divergence means the trace,
  the code, or the environment changed — the regression surface.
* **Policy replay** (``--checker <name>``): re-execute under a
  *different* :mod:`repro.baselines` checker and diff the verdicts hop
  by hop — "would state appraisal have caught what the reference-state
  protocol caught?", answered on the exact recorded journey.

Checker names are the mechanisms' own ``name`` attributes
(:data:`CHECKERS`).  Server replication is excluded: it re-executes
agents on replica sets rather than hooking the journey, so it has no
per-hop verdict stream to diff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.sim.fleet import FleetConfig, FleetEngine, journey_id_for_index
from repro.sim.trace import events_to_jsonl, fleet_event_key, journey_events
from repro.trace import trace_config

__all__ = [
    "CHECKERS",
    "ReplayResult",
    "checker_names",
    "recorded_checker_name",
    "replay_journey",
]


def _reference_state(system: Any) -> Any:
    from repro.core.protocol import ReferenceStateProtocol

    return ReferenceStateProtocol(
        code_registry=system.code_registry,
        trusted_hosts=("home",),
    )


def _state_appraisal(system: Any) -> Any:
    from repro.baselines.state_appraisal import StateAppraisalMechanism
    from repro.workloads.shopping import shopping_rules

    return StateAppraisalMechanism(shopping_rules())


def _vigna_traces(system: Any) -> Any:
    from repro.baselines.execution_traces import VignaTracesMechanism

    return VignaTracesMechanism(code_registry=system.code_registry)


def _proof_verification(system: Any) -> Any:
    from repro.baselines.proof_verification import ProofVerificationMechanism

    return ProofVerificationMechanism()


#: checker name → factory(system) building the protection mechanism.
#: ``unprotected`` maps to ``None``: the engine runs with no protocol,
#: exactly like a ``protected=False`` recording.
CHECKERS: Dict[str, Optional[Callable[[Any], Any]]] = {
    "reference-state-protocol": _reference_state,
    "unprotected": None,
    "state-appraisal": _state_appraisal,
    "vigna-traces": _vigna_traces,
    "proof-verification": _proof_verification,
}


def checker_names() -> List[str]:
    """Replayable checker names, sorted."""
    return sorted(CHECKERS)


def recorded_checker_name(config: FleetConfig) -> str:
    """The checker the trace was recorded under."""
    return "reference-state-protocol" if config.protected else "unprotected"


class _PolicyReplayEngine(FleetEngine):
    """A one-journey engine whose protocol is swappable.

    ``_build_protocol`` is the engine's documented override hook (the
    request-recording engine uses it the same way); the factory decides
    which checker guards the replayed journey.
    """

    def __init__(
        self,
        config: FleetConfig,
        index: int,
        checker_factory: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        super().__init__(config, agent_start=index, agent_stop=index + 1,
                         record_trace=True)
        self._checker_factory = checker_factory

    def _build_protocol(self, system: Any) -> Any:
        if self._checker_factory is None:
            return super()._build_protocol(system)
        return self._checker_factory(system)


@dataclass
class ReplayResult:
    """Outcome of replaying one journey under one checker."""

    journey_id: str
    checker: str
    recorded_checker: str
    #: Byte-identical recorded vs replayed event streams (the fidelity
    #: criterion; only expected to hold when ``checker`` is the
    #: recorded one).
    identical: bool
    recorded_events: List[Dict[str, Any]]
    replayed_events: List[Dict[str, Any]]
    #: Per-hop verdict comparison rows.
    hop_diffs: List[Dict[str, Any]]
    #: Outcome-level field comparison (detected, blamed, ...).
    outcome_diff: Dict[str, Dict[str, Any]]

    @property
    def verdicts_changed(self) -> bool:
        """Whether any hop verdict count or outcome field differs."""
        return any(row["changed"] for row in self.hop_diffs) or any(
            cell["recorded"] != cell["replayed"]
            for cell in self.outcome_diff.values()
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "journey": self.journey_id,
            "checker": self.checker,
            "recorded_checker": self.recorded_checker,
            "identical": self.identical,
            "verdicts_changed": self.verdicts_changed,
            "hops": self.hop_diffs,
            "outcome": self.outcome_diff,
        }


def _journey_index(journey_id: str) -> int:
    digits = journey_id.lstrip("j")
    if not digits.isdigit():
        raise ValueError("malformed journey id %r" % journey_id)
    index = int(digits)
    if journey_id_for_index(index) != journey_id:
        raise ValueError("malformed journey id %r" % journey_id)
    return index


def _hop_rows(events: List[Dict[str, Any]]) -> Dict[int, Dict[str, Any]]:
    return {
        int(event["hop_index"]): event
        for event in events
        if event.get("event") == "hop"
    }


def _complete_row(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    for event in events:
        if event.get("event") == "complete":
            return event
    return {}


def replay_journey(
    events: List[Dict[str, Any]],
    journey_id: str,
    checker: Optional[str] = None,
) -> ReplayResult:
    """Re-execute one recorded journey, optionally under another checker.

    The journey's configuration comes from the trace header; its index
    comes from the journey id (ids are a pure function of position).
    Replay runs a one-journey engine entirely in memory and compares
    the emitted events to the recorded ones.
    """
    config = trace_config(events)
    index = _journey_index(journey_id)
    if not 0 <= index < config.num_agents:
        raise ValueError(
            "journey %s outside the recorded fleet of %d journeys"
            % (journey_id, config.num_agents)
        )
    recorded = journey_events(events, journey_id)
    if not recorded:
        raise ValueError("journey %s not found in trace" % journey_id)

    recorded_checker = recorded_checker_name(config)
    effective = checker or recorded_checker
    if effective not in CHECKERS:
        raise ValueError(
            "unknown checker %r (known: %s)"
            % (effective, ", ".join(checker_names()))
        )

    run_config = replace(
        config,
        protected=(effective != "unprotected"),
        trace_path=None,
    )
    factory = CHECKERS[effective]
    if effective == "reference-state-protocol":
        # The engine's default _build_protocol is the production
        # construction; fidelity replay must exercise exactly it.
        factory = None
    engine = _PolicyReplayEngine(run_config, index, factory)
    engine.run()

    replayed = [
        event for event in sorted(engine.trace.events, key=fleet_event_key)
        if event.get("event") != "fleet"
    ]
    identical = events_to_jsonl(recorded) == events_to_jsonl(replayed)

    recorded_hops = _hop_rows(recorded)
    replayed_hops = _hop_rows(replayed)
    hop_diffs = []
    for hop_index in sorted(set(recorded_hops) | set(replayed_hops)):
        before = recorded_hops.get(hop_index, {})
        after = replayed_hops.get(hop_index, {})
        row = {
            "hop_index": hop_index,
            "host": before.get("host", after.get("host")),
            "recorded_verdicts": before.get("verdicts"),
            "replayed_verdicts": after.get("verdicts"),
        }
        row["changed"] = row["recorded_verdicts"] != row["replayed_verdicts"]
        hop_diffs.append(row)

    before_complete = _complete_row(recorded)
    after_complete = _complete_row(replayed)
    outcome_diff = {
        field: {
            "recorded": before_complete.get(field),
            "replayed": after_complete.get(field),
        }
        for field in (
            "detected", "blamed", "detected_at_hop", "expected",
        )
    }
    return ReplayResult(
        journey_id=journey_id,
        checker=effective,
        recorded_checker=recorded_checker,
        identical=identical,
        recorded_events=recorded,
        replayed_events=replayed,
        hop_diffs=hop_diffs,
        outcome_diff=outcome_diff,
    )
