"""The trace forensics console: reconstruction, report, and replay.

Tentpole acceptance criteria pinned here:

1. the campaign section of ``repro.trace.report.build_report`` over a
   recorded 30%-attack campaign trace equals the live
   :meth:`CampaignResult.summary` **exactly** (same dict, not
   approximately);
2. single-journey fidelity replay under the recorded checker
   reproduces the recorded event stream byte-identically;
3. policy replay under a different checker diffs verdicts hop by hop
   (divergence is output, not an error), and the CLI's exit codes
   distinguish fidelity failure (1) from policy divergence (0).
"""

from __future__ import annotations

import json

import pytest

from repro.sim import campaign_config, read_trace, run_campaign
from repro.trace import (
    campaign_result_from_trace,
    fleet_result_from_trace,
    journey_timeline,
    list_journeys,
    load_trace,
    trace_config,
)
from repro.trace.replay import checker_names, replay_journey
from repro.trace.report import REPORT_SCHEMA, build_report, render_html
from repro.trace.__main__ import main


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A 30%-attack campaign run with its merged JSONL trace."""
    path = str(tmp_path_factory.mktemp("forensics") / "campaign.jsonl")
    config = campaign_config(
        num_agents=30,
        num_hosts=8,
        hops_per_journey=3,
        attack_fraction=0.3,
        seed=5,
        trace_path=path,
    )
    result = run_campaign(config, workers=2, unit_size=15)
    return result, read_trace(path), path


def _detected_journey(result):
    for outcome in result.campaign_journeys:
        if outcome.detected:
            return outcome
    raise AssertionError("campaign produced no detected journey")


def _benign_journey(result):
    for outcome in result.fleet.outcomes:
        if not outcome.attacked:
            return outcome
    raise AssertionError("campaign produced no benign journey")


class TestReconstruction:
    def test_config_round_trips_through_the_header(self, recorded):
        from dataclasses import replace

        result, events, _ = recorded
        # the canonical header omits the output path (it is not part of
        # the deterministic surface), everything else round-trips
        assert trace_config(events) == replace(result.config,
                                               trace_path=None)

    def test_fleet_result_recovers_every_outcome(self, recorded):
        result, events, _ = recorded
        rebuilt = fleet_result_from_trace(events)
        assert len(rebuilt.outcomes) == result.config.num_agents
        live = {o.journey_id: o for o in result.fleet.outcomes}
        for outcome in rebuilt.outcomes:
            twin = live[outcome.journey_id]
            assert outcome.detected == twin.detected
            assert outcome.blamed_hosts == twin.blamed_hosts
            assert outcome.attack_scenario == twin.attack_scenario
            assert outcome.time_to_detection == twin.time_to_detection

    def test_campaign_summary_matches_the_live_run_exactly(self, recorded):
        """Acceptance: the forensics report's campaign block *is* the
        live ``CampaignResult.summary()`` — same keys, same values."""
        result, events, path = recorded
        report = build_report(events, source=path)
        assert report["schema"] == REPORT_SCHEMA
        assert report["campaign"] == result.summary()

    def test_list_journeys_filters_attacked_and_detected(self, recorded):
        result, events, _ = recorded
        rows = list_journeys(events)
        assert len(rows) == result.config.num_agents
        attacked = list_journeys(events, attacked_only=True)
        assert len(attacked) == len(result.campaign_journeys)
        detected = list_journeys(events, attacked_only=True,
                                 detected_only=True)
        assert {row["journey"] for row in detected} == {
            o.journey_id for o in result.campaign_journeys if o.detected
        }

    def test_timeline_marks_the_strike_and_detection_hops(self, recorded):
        result, events, _ = recorded
        outcome = _detected_journey(result)
        timeline = journey_timeline(events, outcome.journey_id)
        assert len(timeline["hops"]) == outcome.hops
        attacked_hops = [h["hop_index"] for h in timeline["hops"]
                        if h["attacked_here"]]
        assert attacked_hops == [outcome.attack_hop]
        detected_hops = [h["hop_index"] for h in timeline["hops"]
                         if h["detected_here"]]
        assert detected_hops == [outcome.detected_at_hop]

    def test_unknown_journey_raises(self, recorded):
        _, events, _ = recorded
        with pytest.raises(ValueError):
            journey_timeline(events, "j99999")


class TestReport:
    def test_time_to_detection_percentiles_are_ordered(self, recorded):
        result, events, _ = recorded
        ttd = build_report(events)["time_to_detection"]
        detected = [o for o in result.campaign_journeys if o.detected]
        assert ttd["detections"] == len(detected)
        assert ttd["detections"] > 0  # the fixture must exercise the path
        assert ttd["p50"] <= ttd["p95"] <= ttd["p99"] <= ttd["max"]
        assert ttd["max"] == max(o.time_to_detection for o in detected)

    def test_blame_summary_counts_the_blamed_hosts(self, recorded):
        result, events, _ = recorded
        blame = build_report(events)["blame"]
        blamed = [o for o in result.campaign_journeys if o.blamed_hosts]
        assert blame["blamed_journeys"] == len(blamed)
        assert sum(blame["hosts"].values()) == sum(
            len(o.blamed_hosts) for o in blamed
        )
        assert blame["blame_accuracy"] == (
            blame["correct_blame"] / blame["blamed_journeys"]
        )

    def test_html_artifact_is_self_contained(self, recorded):
        _, events, path = recorded
        report = build_report(events, source=path)
        page = render_html(report)
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page and "href=" not in page
        for scenario in report["campaign"]["per_scenario"]:
            assert scenario in page


class TestReplay:
    def test_fidelity_replay_is_byte_identical(self, recorded):
        """Acceptance: replay under the recorded checker reproduces the
        recorded event stream bit for bit."""
        result, events, _ = recorded
        for outcome in (_detected_journey(result), _benign_journey(result)):
            replayed = replay_journey(events, outcome.journey_id)
            assert replayed.checker == replayed.recorded_checker
            assert replayed.identical, outcome.journey_id
            assert not replayed.verdicts_changed

    def test_policy_replay_under_unprotected_loses_the_detection(
        self, recorded
    ):
        result, events, _ = recorded
        outcome = _detected_journey(result)
        replayed = replay_journey(events, outcome.journey_id,
                                  checker="unprotected")
        assert replayed.checker == "unprotected"
        assert not replayed.identical
        assert replayed.verdicts_changed
        diff = replayed.outcome_diff["detected"]
        assert diff["recorded"] is True
        assert diff["replayed"] is False

    @pytest.mark.parametrize("batched", (True, False))
    def test_a_header_with_the_retired_batched_flag_still_replays(
        self, recorded, batched
    ):
        # Traces written while FleetConfig still had a
        # batched_verification field carry it in the header's config.
        result, events, _ = recorded
        old = [dict(event) for event in events]
        (header,) = [event for event in old if event.get("event") == "fleet"]
        header["config"] = dict(header["config"],
                                batched_verification=batched)
        assert trace_config(old) == trace_config(events)
        for outcome in (_detected_journey(result), _benign_journey(result)):
            replayed = replay_journey(old, outcome.journey_id)
            assert replayed.identical, outcome.journey_id
            assert not replayed.verdicts_changed

    def test_replay_rejects_unknown_journeys_and_checkers(self, recorded):
        _, events, _ = recorded
        with pytest.raises(ValueError):
            replay_journey(events, "j99999")
        with pytest.raises(ValueError):
            replay_journey(events, "j00000", checker="telepathy")
        with pytest.raises(ValueError):
            replay_journey(events, "journey-one")

    def test_checker_catalogue_covers_the_baselines(self):
        names = checker_names()
        assert "reference-state-protocol" in names
        assert "unprotected" in names
        assert "state-appraisal" in names


class TestConsole:
    def test_list_and_show_render_tables(self, recorded, capsys):
        result, _, path = recorded
        assert main(["list", path, "--attacked"]) == 0
        out = capsys.readouterr().out
        assert "%d journeys" % len(result.campaign_journeys) in out

        outcome = _detected_journey(result)
        assert main(["show", path, outcome.journey_id]) == 0
        out = capsys.readouterr().out
        assert "ATTACK" in out
        assert "DETECTED" in out

    def test_report_writes_the_artifacts(self, recorded, tmp_path, capsys):
        result, events, path = recorded
        json_path = str(tmp_path / "report.json")
        html_path = str(tmp_path / "report.html")
        assert main(["report", path, "--json", json_path,
                     "--html", html_path]) == 0
        capsys.readouterr()
        with open(json_path, encoding="utf-8") as handle:
            artifact = json.load(handle)
        assert artifact["schema"] == REPORT_SCHEMA
        assert artifact["campaign"] == result.summary()
        with open(html_path, encoding="utf-8") as handle:
            assert handle.read().startswith("<!DOCTYPE html>")

    def test_replay_exit_codes_separate_fidelity_from_policy(
        self, recorded, tmp_path, capsys
    ):
        result, events, path = recorded
        journey = _detected_journey(result).journey_id
        # fidelity replay: byte-identical, exit 0
        assert main(["replay", path, journey]) == 0
        # policy replay: divergence is the product, still exit 0
        assert main(["replay", path, journey, "--checker",
                     "unprotected"]) == 0
        capsys.readouterr()

        # a tampered trace must fail the fidelity check with exit 1
        tampered_path = str(tmp_path / "tampered.jsonl")
        with open(tampered_path, "w", encoding="utf-8") as handle:
            for event in events:
                if (event.get("event") == "hop"
                        and event.get("journey") == journey):
                    event = dict(
                        event,
                        wire_bytes=(event.get("wire_bytes") or 0) + 1,
                    )
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        assert main(["replay", tampered_path, journey]) == 1
        assert "FIDELITY FAILURE" in capsys.readouterr().err

    def test_strict_mode_refuses_a_torn_trace(self, recorded, tmp_path):
        _, events, path = recorded
        torn_path = str(tmp_path / "torn.jsonl")
        with open(path, encoding="utf-8") as handle:
            payload = handle.read()
        with open(torn_path, "w", encoding="utf-8") as handle:
            handle.write(payload + '{"event": "hop", "ts"')
        # tolerant default: the torn tail is dropped, the list renders
        assert main(["list", torn_path]) == 0
        with pytest.raises(ValueError):
            main(["--strict", "list", torn_path])
        assert len(load_trace(torn_path)) == len(events)

    def test_campaign_result_from_trace_is_the_console_substrate(
        self, recorded
    ):
        result, events, _ = recorded
        rebuilt = campaign_result_from_trace(events)
        assert rebuilt.summary() == result.summary()
