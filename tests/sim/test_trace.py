"""JSONL journey traces: structure, round-trip, and replayability."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    FleetConfig,
    FleetEngine,
    TraceWriter,
    execution_log_at,
    journey_events,
    read_trace,
)
from repro.sim.trace import (
    _read_events_tolerant,
    events_to_jsonl,
    merge_trace_files,
)


class TestTraceWriter:
    def test_round_trip_through_jsonl(self, tmp_path):
        writer = TraceWriter()
        writer.emit("launch", ts=0.5, journey="j00000")
        writer.emit("hop", ts=0.75, journey="j00000", hop_index=0,
                    execution_log=[{"statement": "1", "assignments": {"x": 1}}])
        path = str(tmp_path / "trace.jsonl")
        writer.write(path)
        events = read_trace(path)
        assert [event["event"] for event in events] == ["launch", "hop"]
        assert events[1]["execution_log"][0]["assignments"] == {"x": 1}

    def test_emit_preserves_order_and_counts(self):
        writer = TraceWriter()
        for index in range(5):
            writer.emit("hop", n=index)
        assert len(writer) == 5
        assert [event["n"] for event in writer.events] == list(range(5))

    def test_writer_seeded_with_events_writes_them_unchanged(self, tmp_path):
        events = [{"event": "fleet", "config": {}},
                  {"event": "hop", "ts": 1.0, "journey": "j00000"}]
        path = str(tmp_path / "trace.jsonl")
        TraceWriter(events).write(path)
        assert read_trace(path) == events
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == events_to_jsonl(events)


def _reference_jsonl(events):
    """The streaming ``json.dump`` serialization the writer must match."""
    buffer = io.StringIO()
    for event in events:
        json.dump(event, buffer, sort_keys=True, separators=(",", ":"))
        buffer.write("\n")
    return buffer.getvalue()


_json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=True, allow_infinity=True), st.text(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonlBytes:
    @given(events=st.lists(
        st.dictionaries(st.text(), _json_values, max_size=5), max_size=6,
    ))
    @settings(max_examples=200)
    def test_matches_the_json_dump_reference(self, events):
        assert events_to_jsonl(events) == _reference_jsonl(events)

    def test_fleet_trace_matches_the_reference(self):
        engine = FleetEngine(FleetConfig(num_agents=6, num_hosts=4, seed=2),
                             record_trace=True)
        engine.run()
        events = list(engine.trace.events)
        assert events
        assert events_to_jsonl(events) == _reference_jsonl(events)


class TestFleetTraces:
    def _events(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        config = FleetConfig(
            num_agents=6, num_hosts=5, hops_per_journey=2,
            malicious_host_fraction=0.2, seed=2, trace_path=path,
        )
        result = FleetEngine(config).run()
        return result, read_trace(path)

    def test_every_journey_has_a_complete_lifecycle(self, tmp_path):
        result, events = self._events(tmp_path)
        assert events[0]["event"] == "fleet"
        for outcome in result.outcomes:
            kinds = [e["event"] for e in journey_events(events, outcome.journey_id)]
            assert kinds[0] == "launch"
            assert kinds[-1] == "complete"
            assert kinds.count("hop") == outcome.hops

    def test_timestamps_are_monotonic_per_journey(self, tmp_path):
        _, events = self._events(tmp_path)
        for journey_id in {e.get("journey") for e in events} - {None}:
            stamps = [e["ts"] for e in journey_events(events, journey_id)]
            assert stamps == sorted(stamps)

    def test_execution_logs_replay_from_the_trace(self, tmp_path):
        """The trace embeds each session's execution log in canonical
        form, so post-hoc analysis can rebuild and digest it exactly as
        the live checking framework did."""
        result, events = self._events(tmp_path)
        outcome = result.outcomes[0]
        replayed = execution_log_at(events, outcome.journey_id, hop_index=1)
        assert replayed is not None
        raw = [
            e for e in journey_events(events, outcome.journey_id)
            if e["event"] == "hop" and e["hop_index"] == 1
        ][0]["execution_log"]
        assert replayed.to_canonical() == raw
        assert replayed.digest() == replayed.copy().digest()

    def test_missing_hop_returns_none(self, tmp_path):
        _, events = self._events(tmp_path)
        assert execution_log_at(events, "j99999", 0) is None


class TestTruncatedStreams:
    """Merging JSONL files: a torn final line is dropped unless the
    merge is strict; corruption anywhere else still raises."""

    @staticmethod
    def _stream(path, journeys, torn_tail=False):
        lines = [
            json.dumps({"event": "hop", "ts": float(i), "journey": j})
            for i, j in enumerate(journeys)
        ]
        payload = "\n".join(lines) + "\n"
        if torn_tail:
            extra = json.dumps(
                {"event": "settle", "ts": 99.0, "journey": journeys[-1]}
            )
            payload += extra[: len(extra) // 2]  # the interrupted append
        path.write_text(payload, encoding="utf-8")
        return str(path)

    def test_strict_mode_still_raises_on_a_torn_tail(self, tmp_path):
        torn = self._stream(tmp_path / "w0.jsonl", ["j00000"],
                            torn_tail=True)
        with pytest.raises(ValueError):
            merge_trace_files([torn], tolerate_truncated_tail=False)

    def test_mid_file_corruption_is_not_mistaken_for_a_crash(
        self, tmp_path
    ):
        path = tmp_path / "w0.jsonl"
        good = json.dumps({"event": "hop", "ts": 1.0, "journey": "j00000"})
        path.write_text("{broken\n" + good + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            merge_trace_files([str(path)])

    def test_missing_stream_files_count_as_empty(self, tmp_path):
        intact = self._stream(tmp_path / "w0.jsonl", ["j00000"])
        events = merge_trace_files([intact, str(tmp_path / "absent.jsonl")])
        assert len(events) == 1


class TestTolerantReader:
    """Edge cases of the tolerant JSONL reader the forensics console
    (``repro.trace``) sits on: only a *final* torn line is a crash
    signature; anything earlier is corruption and must still raise."""

    def test_empty_file_yields_no_events_and_no_losses(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        events, dropped = _read_events_tolerant(str(path))
        assert events == []
        assert dropped == 0

    def test_file_holding_only_a_torn_line_drops_exactly_it(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"event": "hop", "ts"', encoding="utf-8")
        events, dropped = _read_events_tolerant(str(path))
        assert events == []
        assert dropped == 1

    def test_torn_line_followed_by_a_valid_line_raises(self, tmp_path):
        # A tear can only happen at the tail — a decodable line *after*
        # an undecodable one proves the file is corrupt, and tolerating
        # it would silently lose mid-stream events.
        path = tmp_path / "corrupt.jsonl"
        good = json.dumps({"event": "hop", "ts": 1.0, "journey": "j00000"})
        path.write_text('{"event": "hop", "ts"\n' + good + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError):
            _read_events_tolerant(str(path))

    def test_blank_lines_are_skipped_not_counted_as_torn(self, tmp_path):
        path = tmp_path / "blanks.jsonl"
        good = json.dumps({"event": "hop", "ts": 1.0, "journey": "j00000"})
        path.write_text("\n" + good + "\n\n", encoding="utf-8")
        events, dropped = _read_events_tolerant(str(path))
        assert [e["journey"] for e in events] == ["j00000"]
        assert dropped == 0
