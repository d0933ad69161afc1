"""The pickle-free result channel: frames and outcomes must round-trip
bit-exactly, because the coordinator hashes what it decodes."""

from __future__ import annotations

import pytest

from repro.sim import FleetConfig, execute_unit, run_fleet, split_fleet
from repro.sim.shard import (
    _unit_result_from_wire,
    _unit_result_to_wire,
    _write_merged_trace,
)
from repro.sim.wire import (
    WIRE_VERSION,
    decode_message,
    encode_message,
    outcome_from_wire,
    outcome_to_wire,
)


def _config(**overrides):
    defaults = dict(
        num_agents=6,
        num_hosts=5,
        hops_per_journey=2,
        malicious_host_fraction=0.3,
        seed=23,
        batched_verification=True,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def unit_result():
    spec = split_fleet(_config(), 2)[0]
    return spec, execute_unit(spec)


class TestOutcomeCodec:
    def test_outcomes_round_trip_bit_exactly(self, unit_result):
        _spec, result = unit_result
        assert result.outcomes
        for outcome in result.outcomes:
            clone = outcome_from_wire(outcome_to_wire(outcome))
            assert clone.to_canonical() == outcome.to_canonical()
            # Tuple-typed fields must come back as tuples, not lists.
            assert isinstance(clone.itinerary, tuple)
            assert isinstance(clone.blamed_hosts, tuple)
            # Wall-clock phase timings ride along outside the canonical
            # surface (per_phase_seconds needs them on the coordinator).
            assert clone.check_seconds == outcome.check_seconds
            assert clone.session_seconds == outcome.session_seconds
            assert clone.migrate_seconds == outcome.migrate_seconds

    def test_float_fields_survive_json_exactly(self, unit_result):
        _spec, result = unit_result
        for outcome in result.outcomes:
            clone = outcome_from_wire(outcome_to_wire(outcome))
            assert clone.completed_at == outcome.completed_at
            assert clone.launched_at == outcome.launched_at


class TestFrameCodec:
    def test_frames_round_trip(self):
        message = {"kind": "unit", "version": WIRE_VERSION,
                   "wall": 0.1 + 0.2, "values": [1, None, "x"]}
        assert decode_message(encode_message(message)) == message

    def test_non_object_frames_are_rejected(self):
        with pytest.raises(ValueError):
            decode_message(b"[1,2,3]")

    def test_unit_results_round_trip_via_frames(self, unit_result):
        spec, result = unit_result
        frame = decode_message(encode_message(_unit_result_to_wire(result)))
        assert frame["version"] == WIRE_VERSION
        clone = _unit_result_from_wire(frame, spec)
        assert clone.spec == spec
        assert ([o.to_canonical() for o in clone.outcomes]
                == [o.to_canonical() for o in result.outcomes])
        assert clone.malicious_hosts == result.malicious_hosts
        assert clone.virtual_makespan == result.virtual_makespan
        assert clone.events_processed == result.events_processed
        assert clone.verifier_stats == result.verifier_stats
        assert clone.compute_cpu_seconds == result.compute_cpu_seconds

    def test_untraced_frame_carries_no_events(self, unit_result):
        _spec, result = unit_result
        assert "events" not in _unit_result_to_wire(result)

    def test_traced_frames_carry_events_the_merge_writes_unchanged(
        self, tmp_path
    ):
        """A traced unit's events ride its frame; the trace merged from
        decoded frames is byte-identical to the in-process one."""
        path = str(tmp_path / "fleet.jsonl")
        config = _config(trace_path=path)
        run_fleet(config, workers=1)
        with open(path, "rb") as handle:
            in_process = handle.read()
        clones = []
        for spec in split_fleet(config, 3):
            result = execute_unit(spec)
            frame = decode_message(
                encode_message(_unit_result_to_wire(result))
            )
            assert frame["events"] == result.events
            clones.append(_unit_result_from_wire(frame, spec))
        merged = str(tmp_path / "from-frames.jsonl")
        _write_merged_trace(config, merged, [c.events for c in clones])
        with open(merged, "rb") as handle:
            assert handle.read() == in_process

    def test_frame_for_the_wrong_spec_is_rejected(self, unit_result):
        spec, result = unit_result
        other = split_fleet(_config(), 2)[1]
        frame = decode_message(encode_message(_unit_result_to_wire(result)))
        with pytest.raises(RuntimeError):
            _unit_result_from_wire(frame, other)
