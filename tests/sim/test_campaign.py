"""Adversarial campaigns: assignment purity, metrics, trace round-trip.

The contracts under test:

1. campaign assignment is a pure function of ``(config, index)`` drawn
   from its own substream — benign journeys are bit-identical between a
   0%-attack and a 30%-attack run of the same seed (the regression the
   RNG-isolation satellite pins down);
2. campaign metrics match the paper: always-detectable scenarios reach
   recall 1.0, conceded scenarios never alarm, benign journeys never
   produce false positives;
3. the JSONL trace carries the full ground truth: after a sharded run
   and trace merge, ``campaign_result_from_trace(events)
   .detection_report()`` rebuilds the exact :class:`DetectionReport`
   of the live analysis.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.attacks.scenarios import catalogue_names, scenario_by_name
from repro.exceptions import ConfigurationError
from repro.sim import (
    FleetConfig,
    FleetEngine,
    analyze_campaign,
    attack_events,
    campaign_config,
    plan_journey_attack,
    read_trace,
    run_campaign,
)
from repro.trace import campaign_result_from_trace


def _config(**overrides):
    defaults = dict(
        num_agents=40,
        num_hosts=8,
        hops_per_journey=3,
        attack_fraction=0.35,
        seed=9,
    )
    defaults.update(overrides)
    return campaign_config(**defaults)


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(_config())


class TestAssignment:
    def test_assignment_is_deterministic_and_positional(self):
        config = _config()
        for index in range(config.num_agents):
            assert plan_journey_attack(config, index) == \
                plan_journey_attack(config, index)

    def test_fraction_zero_assigns_nothing(self):
        config = _config(attack_fraction=0.0, scenarios=())
        assert all(
            plan_journey_attack(config, index) is None
            for index in range(config.num_agents)
        )

    def test_fraction_one_assigns_everything(self):
        config = _config(attack_fraction=1.0)
        plans = [
            plan_journey_attack(config, index)
            for index in range(config.num_agents)
        ]
        assert all(plan is not None for plan in plans)
        names = {plan.scenario for plan in plans}
        assert names <= set(catalogue_names())
        assert len(names) > 1  # the draw spreads over the catalogue
        assert all(
            1 <= plan.hop <= config.hops_per_journey for plan in plans
        )

    def test_assignment_ignores_other_journeys(self):
        """Positional substreams: journey 7's plan is independent of
        the fleet size around it."""
        small = _config(num_agents=10)
        large = _config(num_agents=40)
        for index in range(10):
            assert plan_journey_attack(small, index) == \
                plan_journey_attack(large, index)

    def test_campaign_requires_scenarios(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(num_agents=4, num_hosts=4, hops_per_journey=2,
                        attack_fraction=0.5).validate()
        with pytest.raises(ConfigurationError):
            _config(attack_fraction=1.5).validate()
        with pytest.raises(KeyError):
            _config(scenarios=("no-such-attack",)).validate()


class TestRngIsolation:
    """Satellite regression: attack assignment must not consume the
    journey RNG substream — benign journeys of an adversarial campaign
    are bit-identical to the same journeys of a benign run."""

    def test_benign_journeys_invariant_under_attack_fraction(self, campaign):
        benign_config = replace(
            campaign.config, attack_fraction=0.0, journey_scenarios=()
        )
        benign_run = FleetEngine(benign_config).run()
        by_id = {o.journey_id: o for o in benign_run.outcomes}
        untouched = [
            o for o in campaign.fleet.outcomes if o.attack_scenario is None
        ]
        assert untouched  # sanity: the campaign left journeys benign
        for outcome in untouched:
            assert outcome.to_canonical() == \
                by_id[outcome.journey_id].to_canonical()

    def test_attacked_journeys_keep_their_itineraries(self, campaign):
        """The attack changes verdicts, never the journey's shape."""
        benign_config = replace(
            campaign.config, attack_fraction=0.0, journey_scenarios=()
        )
        benign_run = FleetEngine(benign_config).run()
        by_id = {o.journey_id: o for o in benign_run.outcomes}
        for outcome in campaign.campaign_journeys:
            twin = by_id[outcome.journey_id]
            assert outcome.itinerary == twin.itinerary
            assert outcome.workload == twin.workload
            assert outcome.launched_at == twin.launched_at


class TestCampaignMetrics:
    def test_recall_is_one_and_benign_traffic_is_silent(self, campaign):
        assert campaign.campaign_journeys  # sanity: attacks happened
        assert campaign.recall == 1.0
        assert campaign.precision == 1.0
        assert campaign.false_positive_rate == 0.0
        assert campaign.undetectable_flagged == 0

    def test_per_scenario_stats_match_the_paper(self, campaign):
        for name, stats in campaign.per_scenario().items():
            expected = scenario_by_name(name).expected_detected
            assert stats.expected_detected is expected, name
            if expected:
                assert stats.detection_rate == 1.0, name
                assert stats.mean_hops_to_detection is not None
                assert stats.mean_hops_to_detection >= 1.0
                assert stats.mean_time_to_detection > 0.0
            else:
                assert stats.detection_rate == 0.0, name
                assert stats.mean_hops_to_detection is None

    def test_summary_floor_metric(self, campaign):
        summary = campaign.summary()
        assert summary["always_detectable_recall"] == 1.0
        assert summary["campaign_attacked"] == len(campaign.campaign_journeys)
        assert set(summary["per_scenario"]) == \
            {o.attack_scenario for o in campaign.campaign_journeys}

    def test_detectability_matrix_buckets_by_class(self, campaign):
        matrix = campaign.detectability_matrix()
        assert "state-difference" in matrix
        mounted = sum(row["mounted"] for row in matrix.values())
        assert mounted == len(campaign.campaign_journeys)
        for row in matrix.values():
            assert row["detected"] <= row["mounted"]

    def test_detection_report_confusion_matrix(self, campaign):
        report = campaign.detection_report()
        assert report.attack_runs == len(campaign.campaign_journeys)
        assert report.honest_runs == len(campaign.benign_journeys)
        assert report.detection_rate == 1.0
        assert report.false_positives == 0
        assert report.conforms_to_expectation

    def test_unprotected_campaign_detects_nothing(self):
        campaign = run_campaign(_config(protected=False, num_agents=16))
        assert campaign.campaign_journeys
        assert not any(o.detected for o in campaign.fleet.outcomes)
        assert all(
            not stats.expected_detected
            for stats in campaign.per_scenario().values()
        )


class TestTraceRoundTrip:
    """Satellite: ground truth and verdicts survive the shard merge and
    replay to the same DetectionReport."""

    @pytest.fixture(scope="class")
    def merged_trace(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("campaign") / "campaign.jsonl")
        config = _config(trace_path=path)
        campaign = run_campaign(config, workers=2, unit_size=20)
        return campaign, read_trace(path)

    def test_attack_events_cover_exactly_the_attacked_journeys(
        self, merged_trace
    ):
        campaign, events = merged_trace
        ground_truth = attack_events(events)
        attacked_ids = {
            o.journey_id for o in campaign.campaign_journeys
        }
        assert set(ground_truth) == attacked_ids
        for outcome in campaign.campaign_journeys:
            event = ground_truth[outcome.journey_id]
            assert event["scenario"] == outcome.attack_scenario
            assert event["hop"] == outcome.attack_hop
            assert event["target"] == outcome.itinerary[outcome.attack_hop]

    def test_replayed_report_equals_the_live_report(self, merged_trace):
        campaign, events = merged_trace
        live = campaign.detection_report()
        replayed = campaign_result_from_trace(events).detection_report()
        assert replayed.outcomes == live.outcomes
        assert replayed.summary() == live.summary()

    def test_complete_events_carry_detection_positions(self, merged_trace):
        campaign, events = merged_trace
        completes = {
            e["journey"]: e for e in events if e.get("event") == "complete"
        }
        for outcome in campaign.campaign_journeys:
            event = completes[outcome.journey_id]
            assert event["detected"] == outcome.detected
            assert event["attack_scenario"] == outcome.attack_scenario
            assert event["detected_at_hop"] == outcome.detected_at_hop
            assert event["detected_at"] == outcome.detected_at
            if outcome.detected:
                assert event["detected_at_hop"] > event["attack_hop"] - 1

    def test_replay_survives_an_unprotected_header(self, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        run_campaign(_config(
            protected=False, num_agents=12, trace_path=path,
        ))
        replayed = campaign_result_from_trace(
            read_trace(path)
        ).detection_report()
        assert replayed.attack_runs > 0
        assert all(
            o.mechanism == "unprotected" for o in replayed.outcomes
        )


class TestAnalyzeExistingRuns:
    def test_analyze_campaign_wraps_any_fleet_result(self):
        result = FleetEngine(_config(num_agents=12)).run()
        campaign = analyze_campaign(result)
        assert campaign.fleet is result
        assert campaign.deterministic_signature() == \
            result.deterministic_signature()

    def test_host_attacked_journeys_are_excluded_from_campaign_metrics(self):
        config = _config(
            num_agents=24, malicious_host_fraction=0.25, seed=5,
        )
        campaign = run_campaign(config)
        excluded = campaign.host_attacked_journeys
        assert excluded  # sanity: resident attacks happened
        report = campaign.detection_report()
        counted = report.attack_runs + report.honest_runs
        assert counted == campaign.fleet.journeys - len(excluded)

    def test_mixed_journeys_cannot_corrupt_scenario_metrics(self):
        """A campaign journey that also crossed a resident malicious
        host must not attribute the resident attack's verdicts to its
        campaign scenario: conceded scenarios stay at detection rate
        0.0 and hops-to-detection means stay non-negative."""
        config = _config(
            num_agents=48, malicious_host_fraction=0.375,
            attack_fraction=0.6, seed=2,
        )
        campaign = run_campaign(config)
        mixed = [
            o for o in campaign.fleet.campaign_journeys
            if o.malicious_visited
        ]
        assert mixed  # sanity: overlap actually occurred
        assert all(
            o.journey_id not in {
                c.journey_id for c in campaign.campaign_journeys
            }
            for o in mixed
        )
        for stats in campaign.per_scenario().values():
            if not stats.expected_detected:
                assert stats.detection_rate == 0.0, stats.scenario
            if stats.mean_hops_to_detection is not None:
                assert stats.mean_hops_to_detection >= 1.0
        # The trace-replay exclusion matches the live one.
        assert campaign.undetectable_flagged == 0
