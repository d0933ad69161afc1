"""Sharded fleet execution: the merge must be invisible.

The contract under test: for the same seed, every ``(unit_size,
workers)`` execution strategy — including the unsharded single-process
engine — produces the same deterministic result signature and the same
merged JSONL trace bytes.  Plus the plumbing around it: partition
shape, pickle safety of what crosses process boundaries, one trace
file per run, and merge-time sanity checks.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.sim import (
    FleetConfig,
    FleetEngine,
    FleetWorkerPool,
    execute_unit,
    merge_shard_results,
    run_fleet,
    split_fleet,
)
from repro.sim.shard import plan_units


def _config(**overrides):
    defaults = dict(
        num_agents=24,
        num_hosts=8,
        hops_per_journey=3,
        malicious_host_fraction=0.25,
        seed=11,
        batched_verification=True,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestSplitFleet:
    def test_shards_tile_the_agent_range(self):
        specs = split_fleet(_config(), 5)
        assert [s.shard_index for s in specs] == [0, 1, 2, 3, 4]
        assert specs[0].agent_start == 0
        assert specs[-1].agent_stop == 24
        for left, right in zip(specs, specs[1:]):
            assert left.agent_stop == right.agent_start
        sizes = [s.num_agents for s in specs]
        assert sum(sizes) == 24
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_journeys_is_rejected(self):
        with pytest.raises(ConfigurationError):
            split_fleet(_config(num_agents=3), 4)
        with pytest.raises(ConfigurationError):
            split_fleet(_config(), 0)

    def test_trace_paths_are_derived_per_shard(self, tmp_path):
        merged = str(tmp_path / "fleet.jsonl")
        specs = split_fleet(_config(trace_path=merged), 3)
        # unit engines must not race on the merged file
        assert all(s.config.trace_path is None for s in specs)
        assert all(s.traced for s in specs)

    def test_only_units_of_a_traced_run_build_events(self, tmp_path):
        traced = split_fleet(
            _config(num_agents=4, trace_path=str(tmp_path / "t.jsonl")), 2
        )[0]
        untraced = split_fleet(_config(num_agents=4), 2)[0]
        assert not untraced.traced
        assert execute_unit(untraced).events == []
        assert execute_unit(traced).events


class TestShardDeterminism:
    """Satellite: equal seeds => identical merged results, workers 1/2/4."""

    @pytest.fixture(scope="class")
    def single_process(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("plain") / "fleet.jsonl")
        result = FleetEngine(_config(trace_path=path)).run()
        with open(path, "rb") as handle:
            return result, handle.read()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_merged_result_and_trace_match_single_process(
        self, workers, tmp_path, single_process
    ):
        plain_result, plain_trace = single_process
        path = str(tmp_path / "merged.jsonl")
        merged = run_fleet(
            _config(trace_path=path), workers=workers, unit_size=6
        )
        assert (merged.deterministic_signature()
                == plain_result.deterministic_signature())
        with open(path, "rb") as handle:
            assert handle.read() == plain_trace

    def test_shard_count_does_not_change_the_result(self, single_process):
        plain_result, _ = single_process
        for unit_size in (12, 8):
            merged = run_fleet(_config(), workers=1, unit_size=unit_size)
            assert (merged.deterministic_signature()
                    == plain_result.deterministic_signature())

    def test_merged_aggregates_add_up(self, single_process):
        plain_result, _ = single_process
        merged = run_fleet(_config(), workers=1, unit_size=8)
        assert merged.journeys == plain_result.journeys
        assert merged.events_processed == plain_result.events_processed
        assert merged.virtual_makespan == plain_result.virtual_makespan
        assert merged.malicious_hosts == plain_result.malicious_hosts
        assert merged.shards is not None and len(merged.shards) == 3

    def test_traced_run_writes_one_file(self, tmp_path):
        # No unit touches the disk: pooled units send their events in
        # their result frames, in-process units keep them in memory.
        for workers, unit_size in ((1, 24), (1, 7), (2, None)):
            workdir = tmp_path / ("w%d-u%s" % (workers, unit_size))
            workdir.mkdir()
            path = str(workdir / "fleet.jsonl")
            run_fleet(
                _config(trace_path=path), workers=workers,
                unit_size=unit_size,
            )
            assert os.listdir(str(workdir)) == ["fleet.jsonl"]

    def test_in_process_run_serializes_its_trace_once(
        self, tmp_path, monkeypatch, single_process
    ):
        import repro.sim.trace as trace_module

        _, plain_trace = single_process
        calls = []
        real = trace_module.events_to_jsonl

        def counting(events):
            calls.append(1)
            return real(events)

        writes = []
        real_write = trace_module.TraceWriter.write

        def counting_write(writer, path, canonical_order=False):
            writes.append(path)
            return real_write(writer, path, canonical_order)

        # Every trace serialization goes through this one routine, and
        # the merged trace is written by the one trace writer.
        monkeypatch.setattr(trace_module, "events_to_jsonl", counting)
        monkeypatch.setattr(trace_module.TraceWriter, "write", counting_write)
        path = str(tmp_path / "fleet.jsonl")
        run_fleet(_config(trace_path=path), workers=1, unit_size=7)
        assert len(calls) == 1
        assert writes == [path]
        with open(path, "rb") as handle:
            assert handle.read() == plain_trace


class TestCampaignShardDeterminism:
    """Satellite: adversarial campaigns shard exactly like benign fleets
    — workers 1/2/4 produce byte-identical merged traces and identical
    campaign analyses."""

    @staticmethod
    def _campaign_config(**overrides):
        return _config(
            malicious_host_fraction=0.0,
            attack_fraction=0.4,
            journey_scenarios=(
                "tamper-result-variable",
                "incorrect-execution",
                "lie-about-input",
                "strip-protocol-data",
            ),
            **overrides,
        )

    @pytest.fixture(scope="class")
    def single_process_campaign(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("campaign") / "campaign.jsonl")
        result = FleetEngine(self._campaign_config(trace_path=path)).run()
        with open(path, "rb") as handle:
            return result, handle.read()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_adversarial_merge_is_bit_identical(
        self, workers, tmp_path, single_process_campaign
    ):
        from repro.sim import analyze_campaign

        plain_result, plain_trace = single_process_campaign
        path = str(tmp_path / "merged.jsonl")
        merged = run_fleet(
            self._campaign_config(trace_path=path),
            workers=workers, unit_size=6,
        )
        assert (merged.deterministic_signature()
                == plain_result.deterministic_signature())
        with open(path, "rb") as handle:
            assert handle.read() == plain_trace
        # The campaign analysis is a pure function of the outcomes, so
        # equal runs must yield equal summaries (per-scenario included).
        assert (analyze_campaign(merged).summary()
                == analyze_campaign(plain_result).summary())

    def test_campaign_attacks_land_in_every_shard_range(
        self, single_process_campaign
    ):
        plain_result, _ = single_process_campaign
        merged = run_fleet(self._campaign_config(), workers=1, unit_size=8)
        assert merged.shards is not None
        per_shard = [shard["campaign_attacked"] for shard in merged.shards]
        assert sum(per_shard) == len(plain_result.campaign_journeys)
        assert len(plain_result.campaign_journeys) > 0


class TestPickleSafety:
    """What crosses the pool boundary must survive pickling unchanged."""

    def test_shard_spec_round_trips(self):
        spec = split_fleet(_config(), 3)[1]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_shard_result_round_trips(self):
        spec = split_fleet(_config(num_agents=6), 2)[0]
        result = execute_unit(spec)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.spec == spec
        assert ([o.to_canonical() for o in clone.outcomes]
                == [o.to_canonical() for o in result.outcomes])
        assert clone.events_processed == result.events_processed


class TestMergeSanity:
    def test_merge_rejects_incomplete_coverage(self):
        config = _config(num_agents=6)
        specs = split_fleet(config, 2)
        first = execute_unit(specs[0])
        with pytest.raises(ConfigurationError):
            merge_shard_results(config, [first], wall_seconds=0.0)

    def test_merge_rejects_empty_input(self):
        with pytest.raises(ConfigurationError):
            merge_shard_results(_config(), [], wall_seconds=0.0)

    def test_run_fleet_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            run_fleet(_config(), workers=0)


class TestPartialEngine:
    def test_partial_engine_reproduces_its_slice_of_the_full_run(self):
        config = _config()
        full = FleetEngine(config).run()
        partial = FleetEngine(
            config, agent_start=8, agent_stop=16, shard_index=1,
        ).run()
        by_id = {o.journey_id: o for o in full.outcomes}
        assert len(partial.outcomes) == 8
        for outcome in partial.outcomes:
            assert outcome.to_canonical() == by_id[outcome.journey_id].to_canonical()

    def test_invalid_ranges_are_rejected(self):
        config = _config()
        with pytest.raises(ConfigurationError):
            FleetEngine(config, agent_start=10, agent_stop=5)
        with pytest.raises(ConfigurationError):
            FleetEngine(config, agent_stop=config.num_agents + 1)


class TestPlanUnits:
    def test_unit_size_rounds_up(self):
        assert plan_units(_config(), workers=2, unit_size=7) == 4
        assert plan_units(_config(), workers=2, unit_size=24) == 1
        assert plan_units(_config(), workers=2, unit_size=1) == 24

    def test_default_plan_oversubscribes_the_queue(self):
        # Several units per worker is what makes stealing effective.
        assert plan_units(_config(), workers=1) == 1
        assert plan_units(_config(), workers=2) == 8
        assert plan_units(_config(num_agents=5), workers=4) == 5

    def test_conflicting_knobs_are_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_units(_config(), workers=2, unit_size=0)
        with pytest.raises(ConfigurationError):
            plan_units(_config(), workers=2, unit_size=-3)


class TestObservabilityPlumbing:
    """Per-unit telemetry snapshots must fold into one fleet-wide block
    on the merged result."""

    def test_worker_report_carries_merged_telemetry(self):
        from repro.obs import TELEMETRY_SCHEMA

        result = run_fleet(_config(), workers=2, unit_size=6)
        telemetry = result.worker_report["telemetry"]
        assert telemetry is not None
        assert telemetry["schema"] == TELEMETRY_SCHEMA
        counters = telemetry["counters"]
        assert counters["fleet.journeys"] == 24
        assert counters["pool.units"] == 4
        assert counters["pool.leases"] >= 4
        # fleet-wide latency histograms carry every hop observation
        histograms = telemetry["histograms"]
        assert histograms["fleet.hop.seconds"]["count"] == counters["fleet.hops"]
        assert histograms["fleet.check.seconds"]["count"] > 0

    def test_disabled_observability_yields_no_telemetry(self):
        from repro.obs import set_obs_enabled

        previous = set_obs_enabled(False)
        try:
            result = run_fleet(_config(), workers=1)
        finally:
            set_obs_enabled(previous)
        assert result.worker_report["telemetry"] is None


class TestSchedulingIndependence:
    """Tentpole property: any (workers, unit size) schedule — including
    a forced-adversarial one where a stalled worker's units are stolen
    — merges to the single-process trace bytes and signature."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("reference") / "fleet.jsonl")
        result = FleetEngine(_config(trace_path=path)).run()
        with open(path, "rb") as handle:
            return result.deterministic_signature(), handle.read()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("unit_size", [1, 7, 24])
    def test_any_schedule_is_bit_identical(
        self, workers, unit_size, tmp_path, reference
    ):
        signature, trace = reference
        path = str(tmp_path / "merged.jsonl")
        merged = run_fleet(
            _config(trace_path=path), workers=workers, unit_size=unit_size
        )
        assert merged.deterministic_signature() == signature
        with open(path, "rb") as handle:
            assert handle.read() == trace
        report = merged.worker_report
        assert report is not None
        assert report["num_units"] == -(-24 // unit_size)
        assert (sum(entry["units"] for entry in report["workers"])
                == report["num_units"])

    def test_adversarial_schedule_steals_the_stalled_workers_units(
        self, tmp_path, reference
    ):
        signature, trace = reference
        path = str(tmp_path / "stalled.jsonl")
        # Worker 0 sleeps between warmup and its first queue pull, so
        # worker 1 must steal (most of) its share for the run to finish
        # — the interleaving static partitioning can never produce.
        with FleetWorkerPool(2, stall_seconds={0: 2.0}) as pool:
            merged = run_fleet(
                _config(trace_path=path), workers=2, unit_size=3, pool=pool
            )
        assert merged.deterministic_signature() == signature
        with open(path, "rb") as handle:
            assert handle.read() == trace
        units = {
            entry["worker"]: entry["units"]
            for entry in merged.worker_report["workers"]
        }
        assert units[0] + units[1] == 8
        assert units[1] > units[0]
