"""Server replication with voting (Minsky, van Renesse, Schneider, Stoller).

Section 3.2: "The authors assume for every stage, i.e. an execution
session on one host, a set of independent, replicated hosts ... Every
execution step is processed in parallel by all replicated hosts.  After
the execution, the hosts vote about the result of the step. ... The
executions with the most votes wins, and the next step is executed.
Obviously, even (n/2 - 1) malicious hosts can be tolerated."

The replicated execution model does not fit the linear itinerary of the
other mechanisms, so this baseline ships its own journey driver,
:class:`ServerReplicationProtocol.run`, which executes every stage on
all of its replicas, votes on the resulting state (by canonical digest),
carries the majority state forward, and reports every minority replica
as a detected attacker.

Reproduction notes:

* "the input to the agent has to be shared and one host must not be
  able to hold back input to the other hosts" — replicas of a stage
  must offer the same services; the scenario builder is responsible for
  that (tests construct replicas with identical data and a malicious
  replica that tampers).
* collaboration attacks below the majority threshold are detected; at
  or above the threshold the wrong state wins, which the tests assert
  as the expected failure mode;
* the agent executed under replication must be *location independent*:
  its resulting state may depend on its inputs but not on the replica's
  host name, otherwise honest replicas produce different states and no
  quorum forms (the paper's shared-input requirement in code form).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agents.agent import AgentCodeRegistry, MobileAgent, default_registry
from repro.agents.itinerary import Itinerary
from repro.agents.state import AgentState
from repro.core.attributes import CheckMoment
from repro.core.verdict import CheckResult, Verdict, VerdictStatus
from repro.exceptions import ReplicationError
from repro.platform.host import Host
from repro.platform.session import SessionRecord

__all__ = ["ReplicationStage", "StageOutcome", "ReplicatedJourneyResult",
           "ServerReplicationProtocol"]


@dataclass
class ReplicationStage:
    """One stage: a set of independent replica hosts offering the same data."""

    replicas: List[Host]

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ReplicationError("a replication stage needs at least one replica")

    @property
    def size(self) -> int:
        """Number of replicas in this stage."""
        return len(self.replicas)

    def names(self) -> Tuple[str, ...]:
        """Replica host names in stage order."""
        return tuple(host.name for host in self.replicas)


@dataclass
class StageOutcome:
    """Result of executing and voting on one stage."""

    stage_index: int
    votes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    winning_digest: Optional[str] = None
    winning_state: Optional[AgentState] = None
    minority_hosts: Tuple[str, ...] = ()
    records: List[SessionRecord] = field(default_factory=list)
    tie: bool = False


@dataclass
class ReplicatedJourneyResult:
    """Everything observed when running an agent through replicated stages."""

    final_state: AgentState
    stage_outcomes: List[StageOutcome] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def detected_attack(self) -> bool:
        """Whether any stage produced minority (outvoted) results."""
        return any(outcome.minority_hosts for outcome in self.stage_outcomes)

    def blamed_hosts(self) -> Tuple[str, ...]:
        """All outvoted replica hosts across stages, deduplicated."""
        blamed = set()
        for outcome in self.stage_outcomes:
            blamed.update(outcome.minority_hosts)
        return tuple(sorted(blamed))


class ServerReplicationProtocol:
    """Executes an agent through stages of replicated hosts with voting.

    Parameters
    ----------
    code_registry:
        Registry used to re-instantiate the agent for every replica, so
        each replica executes from the same initial state with its own
        agent object (no accidental sharing).
    minimum_quorum:
        Minimum number of identical votes required for a stage result to
        be accepted; defaults to a strict majority of the stage size.
    """

    name = "server-replication"

    def __init__(self, code_registry: Optional[AgentCodeRegistry] = None,
                 minimum_quorum: Optional[int] = None) -> None:
        self.code_registry = code_registry or default_registry
        self.minimum_quorum = minimum_quorum

    def run(self, agent: MobileAgent,
            stages: Sequence[ReplicationStage]) -> ReplicatedJourneyResult:
        """Run ``agent`` through ``stages`` and return the voted result.

        Raises
        ------
        ReplicationError
            If a stage cannot reach the required quorum (a tie or too
            many diverging replicas).
        """
        if not stages:
            raise ReplicationError("at least one replication stage is required")

        current_state = agent.capture_state()
        result = ReplicatedJourneyResult(final_state=current_state)

        for stage_index, stage in enumerate(stages):
            outcome = self._run_stage(agent, stage, stage_index, current_state)
            result.stage_outcomes.append(outcome)
            result.verdicts.extend(
                self._stage_verdicts(stage, stage_index, outcome)
            )
            if outcome.winning_state is None:
                raise ReplicationError(
                    "stage %d could not reach a quorum (tie between %d vote groups)"
                    % (stage_index, len(outcome.votes))
                )
            current_state = outcome.winning_state

        result.final_state = current_state
        return result

    # -- internals -----------------------------------------------------------------

    def _run_stage(self, agent: MobileAgent, stage: ReplicationStage,
                   stage_index: int, initial_state: AgentState) -> StageOutcome:
        outcome = StageOutcome(stage_index=stage_index)
        digests: Dict[str, AgentState] = {}
        per_host_digest: Dict[str, str] = {}

        for replica in stage.replicas:
            replica_agent = self.code_registry.instantiate(
                agent.get_code_name(), initial_state,
                owner=agent.owner, agent_id=agent.agent_id,
            )
            # Each replica executes the stage as a standalone session; the
            # stage structure itself plays the role of the itinerary.
            replica_itinerary = Itinerary(hosts=[replica.name])
            record = replica.execute_agent(replica_agent, replica_itinerary, 0)
            outcome.records.append(record)
            digest = record.resulting_state.digest().hex()
            per_host_digest[replica.name] = digest
            digests.setdefault(digest, record.resulting_state)

        counts = Counter(per_host_digest.values())
        outcome.votes = {
            digest: tuple(sorted(
                name for name, host_digest in per_host_digest.items()
                if host_digest == digest
            ))
            for digest in counts
        }

        required = self.minimum_quorum or (stage.size // 2 + 1)
        winning_digest, winning_count = counts.most_common(1)[0]
        tied = [d for d, c in counts.items() if c == winning_count]
        if len(tied) > 1 or winning_count < required:
            outcome.tie = True
            return outcome

        outcome.winning_digest = winning_digest
        outcome.winning_state = digests[winning_digest]
        outcome.minority_hosts = tuple(sorted(
            name for name, digest in per_host_digest.items()
            if digest != winning_digest
        ))
        return outcome

    def _stage_verdicts(self, stage: ReplicationStage, stage_index: int,
                        outcome: StageOutcome) -> List[Verdict]:
        verdicts: List[Verdict] = []
        checking = ",".join(stage.names())
        for host in outcome.minority_hosts:
            result = CheckResult(
                checker="stage-vote",
                status=VerdictStatus.ATTACK_DETECTED,
                details={
                    "reason": "replica result was outvoted by the stage majority",
                    "stage": stage_index,
                },
            )
            verdicts.append(Verdict.from_results(
                [result],
                mechanism=self.name,
                moment=CheckMoment.AFTER_SESSION,
                checking_host=checking,
                checked_host=host,
                hop_index=stage_index,
            ))
        if not outcome.minority_hosts and outcome.winning_state is not None:
            result = CheckResult(checker="stage-vote", status=VerdictStatus.OK,
                                 details={"stage": stage_index})
            verdicts.append(Verdict.from_results(
                [result],
                mechanism=self.name,
                moment=CheckMoment.AFTER_SESSION,
                checking_host=checking,
                checked_host=None,
                hop_index=stage_index,
            ))
        return verdicts
