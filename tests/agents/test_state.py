"""Tests for agent data/execution state and reference-state snapshots."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.state import AgentState, DataState, ExecutionState, state_diff
from repro.exceptions import AgentStateError


class TestDataState:
    def test_set_and_get(self):
        state = DataState()
        state["price"] = 42.5
        assert state["price"] == 42.5
        assert "price" in state

    def test_missing_variable_raises(self):
        with pytest.raises(AgentStateError):
            DataState()["missing"]

    def test_get_with_default(self):
        assert DataState().get("missing", 7) == 7

    def test_non_string_keys_rejected(self):
        state = DataState()
        with pytest.raises(AgentStateError):
            state[42] = "value"

    def test_snapshot_is_deep_copy(self):
        state = DataState({"items": [1, 2]})
        snapshot = state.snapshot()
        state["items"].append(3)
        assert snapshot["items"] == [1, 2]

    def test_iteration_is_sorted(self):
        state = DataState({"zeta": 1, "alpha": 2})
        assert list(state) == ["alpha", "zeta"]

    def test_delete_is_idempotent(self):
        state = DataState({"a": 1})
        del state["a"]
        del state["a"]
        assert "a" not in state

    def test_update_and_set_default(self):
        state = DataState()
        state.update({"a": 1, "b": 2})
        assert state.set_default("a", 99) == 1
        assert state.set_default("c", 3) == 3
        assert len(state) == 3


class TestExecutionState:
    def test_defaults(self):
        execution = ExecutionState()
        assert execution.hop_index == 0
        assert execution.finished is False

    def test_hop_index_setter(self):
        execution = ExecutionState()
        execution.hop_index = 3
        assert execution.hop_index == 3

    def test_finished_setter(self):
        execution = ExecutionState()
        execution.finished = True
        assert execution.finished is True

    def test_custom_fields(self):
        execution = ExecutionState({"phase": "collect"})
        assert execution["phase"] == "collect"
        execution["phase"] = "buy"
        assert execution.get("phase") == "buy"
        assert execution.get("missing", "x") == "x"


class TestAgentState:
    def test_capture_and_restore(self):
        data = DataState({"counter": 5})
        execution = ExecutionState({"hop_index": 2})
        snapshot = AgentState.capture(data, execution)
        restored_data, restored_execution = snapshot.restore()
        assert restored_data["counter"] == 5
        assert restored_execution.hop_index == 2

    def test_capture_is_immutable_against_later_mutation(self):
        data = DataState({"counter": 5})
        snapshot = AgentState.capture(data, ExecutionState())
        data["counter"] = 99
        assert snapshot.data["counter"] == 5

    def test_digest_is_stable_and_discriminating(self):
        first = AgentState(data={"a": 1}, execution={"hop_index": 0})
        same = AgentState(data={"a": 1}, execution={"hop_index": 0})
        different = AgentState(data={"a": 2}, execution={"hop_index": 0})
        assert first.digest() == same.digest()
        assert first.digest() != different.digest()

    def test_equals_uses_canonical_comparison(self):
        first = AgentState(data={"items": (1, 2)}, execution={})
        second = AgentState(data={"items": [1, 2]}, execution={})
        assert first.equals(second)

    def test_canonical_round_trip(self):
        state = AgentState(data={"a": 1}, execution={"hop_index": 1, "finished": True})
        restored = AgentState.from_canonical(state.to_canonical())
        assert restored.equals(state)

    def test_malformed_canonical_rejected(self):
        with pytest.raises(AgentStateError):
            AgentState.from_canonical({"only_data": {}})

    def test_from_canonical_passes_a_snapshot_through(self):
        state = AgentState(data={"a": 1}, execution={})
        assert AgentState.from_canonical(state) is state

    def test_snapshots_are_canonical_copies(self):
        data = DataState({"pair": (1, 2), "nested": {"items": [1]}})
        snapshot = data.snapshot()
        assert snapshot == {"pair": [1, 2], "nested": {"items": [1]}}
        assert snapshot["nested"] is not data.get("nested")


def _restored():
    """A snapshot and the live state freshly restored from it."""
    snapshot = AgentState(
        data={"counter": 1, "items": [1, 2], "table": {"a": 1}},
        execution={"hop_index": 2, "finished": False, "log": ["x"]},
    )
    data, execution = snapshot.restore()
    return snapshot, data, execution


class TestCaptureMemo:
    """A capture right after a restore returns the restored snapshot."""

    def test_untouched_restore_captures_as_the_snapshot(self):
        snapshot, data, execution = _restored()
        assert AgentState.capture(data, execution) is snapshot

    def test_reading_immutable_values_keeps_the_memo(self):
        snapshot, data, execution = _restored()
        assert data["counter"] == 1
        assert data.get("missing") is None
        assert execution.hop_index == 2
        assert not execution.finished
        assert "items" in data and len(data) == 3 and list(data)
        assert AgentState.capture(data, execution) is snapshot

    @pytest.mark.parametrize("read", [
        lambda data, execution: data["items"],
        lambda data, execution: data.get("items"),
        lambda data, execution: data["table"],
        lambda data, execution: execution["log"],
        lambda data, execution: execution.get("log"),
    ], ids=["data-getitem", "data-get", "data-dict", "execution-getitem",
            "execution-get"])
    def test_mutable_value_read_then_mutated_shows_up(self, read):
        snapshot, data, execution = _restored()
        value = read(data, execution)
        if isinstance(value, dict):
            value["b"] = 2
        else:
            value.append("new")
        captured = AgentState.capture(data, execution)
        assert captured is not snapshot
        assert not captured.equals(snapshot)
        # The restored snapshot itself never changes.
        assert snapshot.data == {"counter": 1, "items": [1, 2], "table": {"a": 1}}
        assert snapshot.execution["log"] == ["x"]

    @pytest.mark.parametrize("mutate", [
        lambda data, execution: data.__setitem__("counter", 2),
        lambda data, execution: data.__delitem__("counter"),
        lambda data, execution: data.set_default("fresh", 0),
        lambda data, execution: data.update({"counter": 3}),
        lambda data, execution: execution.__setitem__("phase", "buy"),
        lambda data, execution: setattr(execution, "hop_index", 3),
        lambda data, execution: setattr(execution, "finished", True),
    ], ids=["setitem", "delitem", "set_default", "update",
            "execution-setitem", "hop_index", "finished"])
    def test_every_mutator_clears_the_memo(self, mutate):
        snapshot, data, execution = _restored()
        mutate(data, execution)
        captured = AgentState.capture(data, execution)
        assert captured is not snapshot
        assert captured.canonical_bytes() == AgentState(
            data=data.snapshot(), execution=execution.snapshot()
        ).canonical_bytes()
        assert not captured.equals(snapshot)

    def test_capture_is_never_reused_by_the_next_capture(self):
        data = DataState({"items": [1]})
        execution = ExecutionState()
        items = data["items"]  # a reference handed out before the capture
        first = AgentState.capture(data, execution)
        items.append(2)
        second = AgentState.capture(data, execution)
        assert first.data["items"] == [1]
        assert second.data["items"] == [1, 2]

    def test_reference_from_before_a_capture_after_restore(self):
        snapshot, data, execution = _restored()
        items = data["items"]
        first = AgentState.capture(data, execution)
        items.append(3)
        second = AgentState.capture(data, execution)
        assert first.data["items"] == [1, 2]
        assert second.data["items"] == [1, 2, 3]
        assert snapshot.data["items"] == [1, 2]

    def test_states_from_different_snapshots_do_not_match(self):
        snapshot, data, _ = _restored()
        _, execution = AgentState(data={}, execution=dict(
            snapshot.execution)).restore()
        captured = AgentState.capture(data, execution)
        assert captured is not snapshot
        assert captured.equals(snapshot)

    def test_default_fields_filled_on_restore_are_captured(self):
        snapshot = AgentState(data={"a": 1}, execution={})
        data, execution = snapshot.restore()
        captured = AgentState.capture(data, execution)
        assert captured is not snapshot
        assert captured.execution == {"hop_index": 0, "finished": False}


class TestStateDiff:
    def test_identical_states_empty_diff(self):
        state = AgentState(data={"a": 1}, execution={"hop_index": 0})
        diff = state_diff(state, state)
        assert diff == {"missing": [], "unexpected": [], "changed": {}}

    def test_changed_variable_reported(self):
        reference = AgentState(data={"price": 10.0}, execution={})
        observed = AgentState(data={"price": 1.0}, execution={})
        diff = state_diff(reference, observed)
        assert diff["changed"]["price"] == {"reference": 10.0, "observed": 1.0}

    def test_missing_and_unexpected_variables(self):
        reference = AgentState(data={"kept": 1, "dropped": 2}, execution={})
        observed = AgentState(data={"kept": 1, "added": 3}, execution={})
        diff = state_diff(reference, observed)
        assert diff["missing"] == ["dropped"]
        assert diff["unexpected"] == ["added"]

    def test_execution_state_prefix(self):
        reference = AgentState(data={}, execution={"hop_index": 1})
        observed = AgentState(data={}, execution={"hop_index": 2})
        diff = state_diff(reference, observed)
        assert "execution.hop_index" in diff["changed"]


_data_dicts = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(-1000, 1000), st.text(max_size=10), st.booleans()),
    max_size=6,
)


class TestStateProperties:
    @given(data=_data_dicts)
    @settings(max_examples=100)
    def test_capture_restore_round_trip(self, data):
        snapshot = AgentState.capture(DataState(data), ExecutionState())
        restored_data, _ = snapshot.restore()
        assert restored_data.snapshot() == data

    @given(data=_data_dicts)
    @settings(max_examples=100)
    def test_digest_matches_canonical_round_trip(self, data):
        state = AgentState(data=data, execution={"hop_index": 0, "finished": False})
        assert AgentState.from_canonical(state.to_canonical()).digest() == state.digest()

    @given(data=_data_dicts, key=st.text(min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_any_single_change_is_visible_in_diff_and_digest(self, data, key):
        reference = AgentState(data=data, execution={})
        changed_data = dict(data)
        original = changed_data.get(key)
        changed_data[key] = (original or 0, "changed")
        observed = AgentState(data=changed_data, execution={})
        diff = state_diff(reference, observed)
        touched = diff["changed"] or diff["unexpected"] or diff["missing"]
        assert touched
        assert reference.digest() != observed.digest()
