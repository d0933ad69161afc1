"""Tests for execution logs, including the paper's Figure 3 example."""

from __future__ import annotations

from repro.agents.execution_log import ExecutionLog, TraceEntry


class TestTraceRecording:
    def test_append_and_length(self):
        log = ExecutionLog()
        log.append("10", {"x": 5})
        log.append("11")
        assert len(log) == 2
        assert log[0].assignments == {"x": 5}
        assert log[1].assignments == {}

    def test_statement_identifiers_can_be_disabled(self):
        log = ExecutionLog(record_statements=False)
        entry = log.append("10", {"x": 5})
        assert entry.statement is None

    def test_input_dependent_entries(self):
        log = ExecutionLog()
        log.append("10", {"x": 5})
        log.append("11")
        log.append("13", {"k": 2})
        dependent = log.input_dependent_entries()
        assert [entry.statement for entry in dependent] == ["10", "13"]


class TestFigure3Example:
    """The code fragment and trace of the paper's Figure 3.

    Fragment::

        10 read(x)
        11 y=x+z
        12 m=y+1
        13 k=cryptInput
        14 m=m+k

    Trace (only statements with external input record assignments)::

        10 x=5
        13 k=2
    """

    def _figure3_trace(self) -> ExecutionLog:
        log = ExecutionLog()
        log.append("10", {"x": 5})     # read(x) — external input
        log.append("11")               # y = x + z — internal
        log.append("12")               # m = y + 1 — internal
        log.append("13", {"k": 2})     # k = cryptInput — external input
        log.append("14")               # m = m + k — internal
        return log

    def test_only_external_statements_carry_assignments(self):
        log = self._figure3_trace()
        dependent = log.input_dependent_entries()
        assert len(dependent) == 2
        assert dependent[0].assignments == {"x": 5}
        assert dependent[1].assignments == {"k": 2}

    def test_stripping_statement_identifiers_preserves_assignments(self):
        log = self._figure3_trace()
        stripped = log.strip_statements()
        assert all(entry.statement is None for entry in stripped)
        assert [entry.assignments for entry in stripped.input_dependent_entries()] == [
            {"x": 5}, {"k": 2},
        ]

    def test_stripped_trace_commits_differently(self):
        # The optimized trace is a different (smaller) commitment object.
        log = self._figure3_trace()
        assert log.digest() != log.strip_statements().digest()


class TestTraceCommitments:
    def test_digest_is_order_sensitive(self):
        first = ExecutionLog()
        first.append("a", {"x": 1})
        first.append("b", {"y": 2})
        second = ExecutionLog()
        second.append("b", {"y": 2})
        second.append("a", {"x": 1})
        assert first.digest() != second.digest()

    def test_matches_compares_by_digest(self):
        first = ExecutionLog()
        first.append(None, {"x": 1})
        second = ExecutionLog()
        second.append(None, {"x": 1})
        third = ExecutionLog()
        third.append(None, {"x": 2})
        assert first.matches(second)
        assert not first.matches(third)

    def test_canonical_round_trip(self):
        log = ExecutionLog()
        log.append("10", {"x": 5})
        log.append(None, {"price": 99.5})
        restored = ExecutionLog.from_canonical(log.to_canonical())
        assert restored.matches(log)

    def test_copy_is_independent(self):
        log = ExecutionLog()
        log.append("10", {"x": 5})
        clone = log.copy()
        clone.append("11", {"y": 1})
        assert len(log) == 1 and len(clone) == 2

    def test_trace_entry_canonical_round_trip(self):
        entry = TraceEntry(statement="42", assignments={"v": [1, 2]})
        restored = TraceEntry.from_canonical(entry.to_canonical())
        assert restored == entry
