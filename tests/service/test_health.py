"""Health monitor: thresholds, transitions, holds, restart detection."""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ServiceError
from repro.service.health import (
    FLAP_WINDOW_SECONDS,
    HOLD_SECONDS,
    MAX_HOLD_SECONDS,
    HealthMonitor,
)


class _Clock:
    """A hand-wound monotonic clock."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def _monitor(**kwargs):
    events = []

    async def probe(name):  # pragma: no cover - replaced per-test
        raise ServiceError("no probe wired")

    monitor = HealthMonitor(
        probe,
        on_down=lambda state: events.append(("down", state.name)),
        on_restart=lambda state, old: events.append(
            ("restart", state.name, old, state.instance)
        ),
        **kwargs,
    )
    return monitor, events


class TestTransitions:
    def test_backends_start_down_until_probed(self):
        monitor, _ = _monitor()
        state = monitor.add("b1")
        assert not state.up
        assert monitor.up_backends() == ()

    @pytest.mark.parametrize("threshold", (0, -1))
    def test_the_threshold_must_be_positive(self, threshold):
        with pytest.raises(ValueError):
            _monitor(failure_threshold=threshold)

    def test_success_marks_up(self):
        monitor, events = _monitor()
        state = monitor.record_success("b1", {"instance": "aaa"})
        assert state.up
        assert state.instance == "aaa"
        assert events == []
        assert monitor.up_backends() == ("b1",)

    def test_mark_down_needs_k_consecutive_failures(self):
        monitor, events = _monitor(failure_threshold=3)
        monitor.record_success("b1", {"instance": "aaa"})
        monitor.record_failure("b1")
        monitor.record_failure("b1")
        assert monitor.get("b1").up  # two of three: still up
        monitor.record_failure("b1")
        assert not monitor.get("b1").up
        assert events == [("down", "b1")]

    def test_a_success_resets_the_failure_streak(self):
        monitor, _ = _monitor(failure_threshold=3)
        monitor.record_success("b1", {"instance": "aaa"})
        monitor.record_failure("b1")
        monitor.record_failure("b1")
        monitor.record_success("b1", {"instance": "aaa"})
        monitor.record_failure("b1")
        monitor.record_failure("b1")
        assert monitor.get("b1").up  # the streak restarted from zero

    def test_request_path_failures_mark_down_immediately(self):
        monitor, events = _monitor(failure_threshold=5)
        monitor.record_success("b1", {"instance": "aaa"})
        monitor.record_request_failure("b1")
        assert not monitor.get("b1").up
        assert ("down", "b1") in events

    def test_a_probe_success_rejoins_a_downed_backend(self):
        monitor, _ = _monitor(failure_threshold=1)
        monitor.record_success("b1", {"instance": "aaa"})
        monitor.record_failure("b1")
        assert not monitor.get("b1").up
        monitor.record_success("b1", {"instance": "aaa"})
        assert monitor.get("b1").up


class TestRestartDetection:
    def test_changed_instance_fires_restart(self):
        monitor, events = _monitor()
        monitor.record_success("b1", {"instance": "old-process"})
        monitor.record_success("b1", {"instance": "new-process"})
        state = monitor.get("b1")
        assert state.restarts == 1
        assert state.instance == "new-process"
        assert ("restart", "b1", "old-process", "new-process") in events

    def test_same_instance_never_fires_restart(self):
        monitor, events = _monitor()
        for _ in range(5):
            monitor.record_success("b1", {"instance": "stable"})
        assert monitor.get("b1").restarts == 0
        assert all(event[0] != "restart" for event in events)

    def test_restart_detected_across_a_down_period(self):
        # The realistic sequence: process dies, probes fail, a new
        # process comes up under a new instance id — both the rejoin
        # and the restart must be observed, in that order.
        monitor, events = _monitor(failure_threshold=1)
        monitor.record_success("b1", {"instance": "old"})
        monitor.record_failure("b1")
        monitor.record_success("b1", {"instance": "new"})
        assert monitor.get("b1").up
        assert events == [("down", "b1"), ("restart", "b1", "old", "new")]


class TestProbing:
    def test_probe_once_drives_every_backend(self):
        calls = []

        async def probe(name):
            calls.append(name)
            if name == "bad":
                raise ServiceError("unreachable")
            return {"instance": "i-" + name}

        monitor = HealthMonitor(probe, failure_threshold=1)
        monitor.add("good")
        monitor.add("bad")
        monitor.record_success("bad", {"instance": "i-bad"})  # was up

        asyncio.run(monitor.probe_once())
        assert sorted(calls) == ["bad", "good"]
        assert monitor.get("good").up
        assert not monitor.get("bad").up
        assert monitor.up_backends() == ("good",)

    def test_background_loop_starts_and_stops(self):
        async def run():
            probes = []

            async def probe(name):
                probes.append(name)
                return {"instance": "x"}

            monitor = HealthMonitor(probe, interval=0.01)
            monitor.add("b1")
            monitor.start()
            await asyncio.sleep(0.05)
            await monitor.stop()
            return probes

        probes = asyncio.run(run())
        assert len(probes) >= 2  # several rounds fit in the window

    def test_stats_exposes_every_state(self):
        monitor, _ = _monitor()
        monitor.record_success("b1", {"instance": "aaa"})
        stats = monitor.stats()
        assert stats["failure_threshold"] == monitor.failure_threshold
        assert stats["backends"]["b1"]["up"] is True
        assert stats["backends"]["b1"]["instance"] == "aaa"


def _flap(monitor, name):
    """One flap: a probe lands, then a real request fails."""
    monitor.record_success(name, {"instance": "i-" + name})
    return monitor.record_request_failure(name)


def _held(monitor, name):
    return monitor.stats()["backends"][name]["held"]


class TestHolds:
    """A flapping backend passes probes and fails requests: a streak of
    request-path failures holds it out of routing."""

    def _monitor(self, clock, failure_threshold=3):
        monitor, _ = _monitor(failure_threshold=failure_threshold,
                              clock=clock)
        monitor.record_success("survivor", {"instance": "s"})
        return monitor

    def _hold(self, monitor, name="b1"):
        """Flap ``name`` until it is held; returns its hold length."""
        for _ in range(monitor.failure_threshold):
            started = _flap(monitor, name)
        assert started
        monitor.record_success(name, {"instance": "i-" + name})
        return monitor.get(name).hold

    def test_the_hold_constants(self):
        assert (HOLD_SECONDS, MAX_HOLD_SECONDS, FLAP_WINDOW_SECONDS) == (
            1.0, 30.0, 10.0
        )

    def test_threshold_request_failures_start_a_hold(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        assert _flap(monitor, "b1") is False
        assert _flap(monitor, "b1") is False
        monitor.record_success("b1", {"instance": "i-b1"})
        assert not _held(monitor, "b1")
        assert monitor.avoid() == ([], 0)
        assert _flap(monitor, "b1") is True
        monitor.record_success("b1", {"instance": "i-b1"})
        state = monitor.get("b1")
        assert state.up and _held(monitor, "b1")
        assert (state.hold, state.holds) == (HOLD_SECONDS, 1)
        assert state.held_until == clock.now + HOLD_SECONDS
        assert monitor.avoid() == (["b1"], 1)

    def test_a_hold_ends_when_its_time_is_up(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        self._hold(monitor)
        clock.now += HOLD_SECONDS - 0.01
        assert monitor.avoid() == (["b1"], 1)
        clock.now += 0.01
        assert monitor.avoid() == ([], 0)
        assert not _held(monitor, "b1")

    def test_probe_and_hello_successes_never_reset_the_streak(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        _flap(monitor, "b1")
        _flap(monitor, "b1")
        for _ in range(5):  # probes and fresh connections' hellos
            monitor.record_success("b1", {"instance": "i-b1"})
        assert monitor.get("b1").request_failures == 2
        assert _flap(monitor, "b1") is True

    def test_only_a_request_success_resets_the_streak(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        _flap(monitor, "b1")
        _flap(monitor, "b1")
        monitor.record_request_success("b1")
        assert monitor.get("b1").request_failures == 0
        assert _flap(monitor, "b1") is False
        assert _flap(monitor, "b1") is False
        assert _flap(monitor, "b1") is True

    def test_failures_during_a_hold_do_not_stack(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        self._hold(monitor)
        held_until = monitor.get("b1").held_until
        for _ in range(5):
            clock.now += 0.1
            assert _flap(monitor, "b1") is False
        state = monitor.get("b1")
        assert (state.holds, state.hold) == (1, HOLD_SECONDS)
        assert state.held_until == held_until

    def test_an_expired_hold_re_arms_at_the_first_failure_doubled(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        self._hold(monitor)
        clock.now += HOLD_SECONDS + 0.5
        assert monitor.avoid() == ([], 0)
        assert _flap(monitor, "b1") is True  # one failure, not three
        monitor.record_success("b1", {"instance": "i-b1"})
        state = monitor.get("b1")
        assert (state.holds, state.hold) == (2, 2 * HOLD_SECONDS)
        assert monitor.avoid() == (["b1"], 1)

    def test_recurring_holds_double_up_to_the_cap(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        lengths = [self._hold(monitor)]
        for _ in range(7):
            clock.now = monitor.get("b1").held_until
            assert _flap(monitor, "b1") is True
            lengths.append(monitor.get("b1").hold)
        assert lengths == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0]
        assert monitor.get("b1").holds == 8

    def test_a_success_between_recurring_holds_keeps_the_doubling(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        self._hold(monitor)
        clock.now = monitor.get("b1").held_until + 0.5
        monitor.record_request_success("b1")  # one good request ...
        assert self._hold(monitor) == 2 * HOLD_SECONDS  # ... then K bad

    def test_holds_recurring_at_the_window_edge_still_double(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        self._hold(monitor)
        clock.now = monitor.get("b1").held_until + FLAP_WINDOW_SECONDS
        assert _flap(monitor, "b1") is True
        assert monitor.get("b1").hold == 2 * HOLD_SECONDS

    def test_a_quiet_flap_window_resets_the_hold(self):
        clock = _Clock()
        monitor = self._monitor(clock)
        self._hold(monitor)
        clock.now = monitor.get("b1").held_until
        _flap(monitor, "b1")
        assert monitor.get("b1").hold == 2 * HOLD_SECONDS
        clock.now = (monitor.get("b1").held_until
                     + FLAP_WINDOW_SECONDS + 0.01)
        # The streak outlived the quiet spell, so one failure holds
        # again — for the base hold, not a doubled one.
        assert _flap(monitor, "b1") is True
        assert monitor.get("b1").hold == HOLD_SECONDS
        assert monitor.get("b1").holds == 3

    def test_restart_is_detected_on_a_held_backend(self):
        clock = _Clock()
        monitor, events = _monitor(failure_threshold=1, clock=clock)
        monitor.record_success("survivor", {"instance": "s"})
        monitor.record_success("b1", {"instance": "old"})
        assert monitor.record_request_failure("b1") is True
        monitor.record_success("b1", {"instance": "new"})
        state = monitor.get("b1")
        assert state.restarts == 1
        assert events[-1] == ("restart", "b1", "old", "new")
        # The new process inherits the hold: only a request-path
        # success or the hold's expiry clears it.
        assert state.up and _held(monitor, "b1")
        assert monitor.avoid() == (["b1"], 1)


class TestAvoid:
    def _monitor(self, clock):
        monitor, _ = _monitor(failure_threshold=1, clock=clock)
        for name in ("a", "b", "c"):
            monitor.record_success(name, {"instance": name})
        return monitor

    def _hold(self, monitor, name):
        assert monitor.record_request_failure(name) is True
        monitor.record_success(name, {"instance": name})

    def test_down_and_held_backends_are_avoided(self):
        monitor = self._monitor(_Clock())
        monitor.record_request_failure("a")  # down
        self._hold(monitor, "b")
        avoid, shed = monitor.avoid()
        assert (sorted(avoid), shed) == (["a", "b"], 1)

    def test_the_last_routable_backend_is_never_held_out(self):
        monitor = self._monitor(_Clock())
        monitor.record_request_failure("a")  # down
        self._hold(monitor, "b")
        self._hold(monitor, "c")
        # b and c are up but held; a is down.  Holding both out would
        # leave nothing to route to, so routing uses probe health.
        assert monitor.avoid() == (["a"], 0)

    def test_with_every_backend_held_none_is_avoided(self):
        monitor = self._monitor(_Clock())
        for name in ("a", "b", "c"):
            self._hold(monitor, name)
        assert monitor.avoid() == ([], 0)
        assert all(_held(monitor, name) for name in ("a", "b", "c"))
