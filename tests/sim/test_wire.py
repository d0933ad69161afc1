"""The pickle-free result channel: frames and outcomes must round-trip
bit-exactly, because the coordinator hashes what it decodes."""

from __future__ import annotations

import pytest

from repro.sim import FleetConfig, execute_unit, split_fleet
from repro.sim.shard import _unit_result_from_wire, _unit_result_to_wire
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

    def test_frame_for_the_wrong_spec_is_rejected(self, unit_result):
        spec, result = unit_result
        other = split_fleet(_config(), 2)[1]
        frame = decode_message(encode_message(_unit_result_to_wire(result)))
        with pytest.raises(RuntimeError):
            _unit_result_from_wire(frame, other)
