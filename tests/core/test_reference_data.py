"""Tests for reference data bundles."""

from __future__ import annotations

import pytest

from repro.agents.execution_log import ExecutionLog
from repro.agents.input import INPUT_KIND_SERVICE, InputLog
from repro.agents.state import AgentState
from repro.core.attributes import ALL_REFERENCE_DATA, ReferenceDataKind
from repro.core.reference_data import ReferenceDataSet
from repro.exceptions import CheckingError
from repro.platform.session import SessionRecord


def _session_record():
    initial = AgentState(data={"counter": 0}, execution={"hop_index": 1})
    resulting = AgentState(data={"counter": 4}, execution={"hop_index": 1})
    input_log = InputLog()
    input_log.record(INPUT_KIND_SERVICE, "numbers", "increment", 4)
    execution_log = ExecutionLog()
    execution_log.append(None, {"increment": 4})
    return SessionRecord(
        host="vendor", hop_index=1, agent_id="owner/1",
        code_name="test-counter-agent", owner="owner",
        initial_state=initial, resulting_state=resulting,
        input_log=input_log, execution_log=execution_log, actions=(),
        resources_snapshot={"numbers": {"increment": 4}},
    )


class TestAssembly:
    def test_full_collection(self):
        data = ReferenceDataSet.from_session_record(_session_record())
        assert data.available_kinds() == frozenset(ALL_REFERENCE_DATA)
        assert data.session_host == "vendor"
        assert data.initial_state.data["counter"] == 0
        assert data.resulting_state.data["counter"] == 4
        assert len(data.input_log) == 1
        assert len(data.execution_log) == 1
        assert data.resources == {"numbers": {"increment": 4}}

    def test_partial_collection(self):
        data = ReferenceDataSet.from_session_record(
            _session_record(),
            kinds=[ReferenceDataKind.RESULTING_STATE, ReferenceDataKind.INPUT],
        )
        assert data.available_kinds() == frozenset({
            ReferenceDataKind.RESULTING_STATE, ReferenceDataKind.INPUT,
        })
        assert data.initial_state is None
        assert data.execution_log is None
        assert data.resources is None

    def test_collected_logs_are_copies(self):
        record = _session_record()
        data = ReferenceDataSet.from_session_record(record)
        record.input_log.record(INPUT_KIND_SERVICE, "numbers", "increment", 999)
        assert len(data.input_log) == 1


class TestRequire:
    def test_require_passes_for_present_kinds(self):
        data = ReferenceDataSet.from_session_record(_session_record())
        data.require(ReferenceDataKind.INITIAL_STATE, ReferenceDataKind.INPUT)

    def test_require_raises_for_missing_kinds(self):
        data = ReferenceDataSet.from_session_record(
            _session_record(), kinds=[ReferenceDataKind.RESULTING_STATE]
        )
        with pytest.raises(CheckingError):
            data.require(ReferenceDataKind.INPUT)


class TestTransport:
    def test_canonical_round_trip(self):
        data = ReferenceDataSet.from_session_record(_session_record())
        restored = ReferenceDataSet.from_canonical(data.to_canonical())
        assert restored.available_kinds() == data.available_kinds()
        assert restored.resulting_state.equals(data.resulting_state)
        assert restored.input_log.to_canonical() == data.input_log.to_canonical()
        assert restored.execution_log.matches(data.execution_log)

    def test_partial_round_trip_preserves_absence(self):
        data = ReferenceDataSet.from_session_record(
            _session_record(), kinds=[ReferenceDataKind.INPUT]
        )
        restored = ReferenceDataSet.from_canonical(data.to_canonical())
        assert restored.initial_state is None
        assert restored.resulting_state is None
        assert len(restored.input_log) == 1

    def test_malformed_payload_rejected(self):
        with pytest.raises(CheckingError):
            ReferenceDataSet.from_canonical({"hop_index": "not there"})

    def test_size_grows_with_collected_kinds(self):
        record = _session_record()
        small = ReferenceDataSet.from_session_record(
            record, kinds=[ReferenceDataKind.RESULTING_STATE]
        )
        large = ReferenceDataSet.from_session_record(record)
        assert len(large.canonical_bytes()) > len(small.canonical_bytes())
