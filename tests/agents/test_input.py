"""Tests for input records, logs, and replay sources."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.input import (
    EnvironmentInputSource,
    INPUT_KIND_HOST_DATA,
    INPUT_KIND_MESSAGE,
    INPUT_KIND_SERVICE,
    INPUT_KIND_SYSTEM,
    InputLog,
    ReplayInputSource,
)
from repro.exceptions import InputReplayError


class _StaticEnvironment:
    """Environment returning predictable values for tests."""

    def provide(self, kind, source, key):
        return "%s/%s/%s" % (kind, source, key)


class TestInputLog:
    def test_record_assigns_sequence_numbers(self):
        log = InputLog()
        first = log.record(INPUT_KIND_SERVICE, "shop", "flight", 100)
        second = log.record(INPUT_KIND_SYSTEM, "host", "random", 0.5)
        assert (first.sequence, second.sequence) == (0, 1)
        assert len(log) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputReplayError):
            InputLog().record("telepathy", "host", "key", 1)

    def test_canonical_round_trip(self):
        log = InputLog()
        log.record(INPUT_KIND_MESSAGE, "mailbox", "mailbox", {"body": 1})
        restored = InputLog.from_canonical(log.to_canonical())
        assert len(restored) == 1
        assert restored[0].value == {"body": 1}
        assert restored[0].kind == INPUT_KIND_MESSAGE

    def test_copy_is_independent(self):
        log = InputLog()
        log.record(INPUT_KIND_HOST_DATA, "host", "param", "x")
        clone = log.copy()
        clone.record(INPUT_KIND_HOST_DATA, "host", "param2", "y")
        assert len(log) == 1 and len(clone) == 2


class TestEnvironmentInputSource:
    def test_fetch_records_everything(self):
        source = EnvironmentInputSource(_StaticEnvironment())
        value = source.fetch(INPUT_KIND_SERVICE, "shop", "flight")
        assert value == "service/shop/flight"
        assert len(source.log) == 1
        record = source.log[0]
        assert (record.kind, record.source, record.key) == (
            INPUT_KIND_SERVICE, "shop", "flight",
        )


class TestReplayInputSource:
    def _recorded(self):
        log = InputLog()
        log.record(INPUT_KIND_SERVICE, "shop", "flight", 120.0)
        log.record(INPUT_KIND_SYSTEM, "host", "random", 0.25)
        return log

    def test_replay_returns_recorded_values_in_order(self):
        replay = ReplayInputSource(self._recorded())
        assert replay.fetch(INPUT_KIND_SERVICE, "shop", "flight") == 120.0
        assert replay.fetch(INPUT_KIND_SYSTEM, "host", "random") == 0.25
        assert replay.exhausted

    def test_replay_log_mirrors_consumption(self):
        replay = ReplayInputSource(self._recorded())
        replay.fetch(INPUT_KIND_SERVICE, "shop", "flight")
        assert len(replay.log) == 1 and replay.remaining == 1

    def test_exhausted_log_raises(self):
        replay = ReplayInputSource(InputLog())
        with pytest.raises(InputReplayError):
            replay.fetch(INPUT_KIND_SERVICE, "shop", "flight")

    def test_kind_mismatch_raises(self):
        replay = ReplayInputSource(self._recorded())
        with pytest.raises(InputReplayError):
            replay.fetch(INPUT_KIND_SYSTEM, "shop", "flight")

    def test_key_mismatch_raises_in_strict_mode(self):
        replay = ReplayInputSource(self._recorded())
        with pytest.raises(InputReplayError):
            replay.fetch(INPUT_KIND_SERVICE, "shop", "hotel")

    def test_key_mismatch_tolerated_in_lenient_mode(self):
        replay = ReplayInputSource(self._recorded(), strict_keys=False)
        assert replay.fetch(INPUT_KIND_SERVICE, "other-shop", "hotel") == 120.0

    def test_replay_does_not_mutate_recorded_log(self):
        recorded = self._recorded()
        replay = ReplayInputSource(recorded)
        replay.fetch(INPUT_KIND_SERVICE, "shop", "flight")
        assert len(recorded) == 2


_records = st.lists(
    st.tuples(
        st.sampled_from([INPUT_KIND_SERVICE, INPUT_KIND_SYSTEM, INPUT_KIND_HOST_DATA]),
        st.text(min_size=1, max_size=6),
        st.text(min_size=1, max_size=6),
        st.one_of(st.integers(-100, 100), st.text(max_size=8), st.none()),
    ),
    max_size=10,
)


class TestReplayProperties:
    @given(entries=_records)
    @settings(max_examples=100)
    def test_full_replay_reproduces_the_log(self, entries):
        recorded = InputLog()
        for kind, source, key, value in entries:
            recorded.record(kind, source, key, value)
        replay = ReplayInputSource(recorded)
        values = [replay.fetch(kind, source, key) for kind, source, key, _ in entries]
        assert values == [value for _, _, _, value in entries]
        assert replay.exhausted
        assert replay.log.to_canonical() == recorded.to_canonical()

    @given(entries=_records)
    @settings(max_examples=100)
    def test_canonical_round_trip(self, entries):
        recorded = InputLog()
        for kind, source, key, value in entries:
            recorded.record(kind, source, key, value)
        restored = InputLog.from_canonical(recorded.to_canonical())
        assert restored.to_canonical() == recorded.to_canonical()
