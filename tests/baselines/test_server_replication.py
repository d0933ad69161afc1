"""Tests for the server replication baseline (Section 3.2)."""

from __future__ import annotations

import pytest

from repro.attacks.injector import DataTamperInjector
from repro.baselines.server_replication import (
    ReplicationStage,
    ServerReplicationProtocol,
)
from repro.exceptions import ReplicationError
from repro.platform.host import Host
from repro.platform.malicious import MaliciousHost
from repro.platform.resources import InputFeedService
from repro.workloads.generic_agent import (
    GenericAgent,
    INPUT_FEED_SERVICE,
    make_input_elements,
)


def _replica(name, keystore, malicious=False, tamper_value=0):
    if malicious:
        host = MaliciousHost(name, keystore=keystore,
                             injectors=[DataTamperInjector("sum", tamper_value)])
    else:
        host = Host(name, keystore=keystore)
    host.add_service(InputFeedService(INPUT_FEED_SERVICE, make_input_elements(2)))
    return host


def _stage(names, keystore, malicious=()):
    return ReplicationStage([
        _replica(name, keystore, malicious=name in malicious) for name in names
    ])


@pytest.fixture
def agent():
    return GenericAgent.configured(cycles=1, input_elements=2)


class TestStageStructure:
    def test_empty_stage_rejected(self):
        with pytest.raises(ReplicationError):
            ReplicationStage([])

    def test_no_stages_rejected(self, agent):
        with pytest.raises(ReplicationError):
            ServerReplicationProtocol().run(agent, [])

    def test_stage_names(self, keystore):
        stage = _stage(["a", "b"], keystore)
        assert stage.names() == ("a", "b") and stage.size == 2


class TestVoting:
    def test_all_honest_replicas_agree(self, keystore, agent):
        stages = [_stage(["a1", "a2", "a3"], keystore),
                  _stage(["b1", "b2", "b3"], keystore)]
        result = ServerReplicationProtocol().run(agent, stages)
        assert not result.detected_attack
        assert result.blamed_hosts() == ()
        assert all(len(outcome.votes) == 1 for outcome in result.stage_outcomes)
        # two stages, one cycle each: 2 * 999*1000/2 ... the exact number only
        # matters in that every replica agreed on it
        assert result.final_state.data["visits"] == 2

    def test_single_malicious_replica_is_outvoted_and_blamed(self, keystore, agent):
        stages = [_stage(["a1", "a2", "a3"], keystore, malicious={"a2"})]
        result = ServerReplicationProtocol().run(agent, stages)
        assert result.detected_attack
        assert result.blamed_hosts() == ("a2",)
        outcome = result.stage_outcomes[0]
        assert outcome.minority_hosts == ("a2",)
        # the majority (honest) state went forward
        assert result.final_state.data["sum"] != 0

    def test_less_than_half_malicious_replicas_are_tolerated(self, keystore, agent):
        stages = [_stage(["a1", "a2", "a3", "a4", "a5"], keystore,
                         malicious={"a2", "a4"})]
        result = ServerReplicationProtocol().run(agent, stages)
        assert result.detected_attack
        assert set(result.blamed_hosts()) == {"a2", "a4"}
        assert result.final_state.data["sum"] != 0

    def test_majority_of_malicious_replicas_wins_with_the_wrong_state(self, keystore, agent):
        # the documented failure mode: >= n/2 colluding replicas
        stages = [_stage(["a1", "a2", "a3"], keystore, malicious={"a2", "a3"})]
        result = ServerReplicationProtocol().run(agent, stages)
        # the wrong (tampered) state won the vote; the honest replica is
        # reported as the minority
        assert result.final_state.data["sum"] == 0
        assert result.blamed_hosts() == ("a1",)

    def test_tie_raises_replication_error(self, keystore, agent):
        stages = [_stage(["a1", "a2"], keystore, malicious={"a2"})]
        with pytest.raises(ReplicationError):
            ServerReplicationProtocol().run(agent, stages)

    def test_explicit_quorum_requirement(self, keystore, agent):
        stages = [_stage(["a1", "a2", "a3"], keystore, malicious={"a2"})]
        protocol = ServerReplicationProtocol(minimum_quorum=3)
        with pytest.raises(ReplicationError):
            protocol.run(agent, stages)

    def test_verdicts_report_ok_stages_and_attacks(self, keystore, agent):
        stages = [_stage(["a1", "a2", "a3"], keystore),
                  _stage(["b1", "b2", "b3"], keystore, malicious={"b1"})]
        result = ServerReplicationProtocol().run(agent, stages)
        attack_verdicts = [v for v in result.verdicts if v.is_attack]
        ok_verdicts = [v for v in result.verdicts if not v.is_attack]
        assert len(attack_verdicts) == 1
        assert attack_verdicts[0].checked_host == "b1"
        assert ok_verdicts
