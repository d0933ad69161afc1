"""Tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.net.clock import VirtualClock
from repro.net.simulator import Event, EventSimulator


class TestScheduling:
    def test_events_fire_in_timestamp_order(self):
        simulator = EventSimulator()
        fired = []
        simulator.schedule(3.0, lambda: fired.append("late"))
        simulator.schedule(1.0, lambda: fired.append("early"))
        simulator.schedule(2.0, lambda: fired.append("middle"))
        simulator.run()
        assert fired == ["early", "middle", "late"]

    def test_ties_broken_by_schedule_order(self):
        simulator = EventSimulator()
        fired = []
        simulator.schedule(1.0, lambda: fired.append("first"))
        simulator.schedule(1.0, lambda: fired.append("second"))
        simulator.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        simulator = EventSimulator()
        observed = []
        simulator.schedule(2.5, lambda: observed.append(simulator.clock.now()))
        simulator.run()
        assert observed == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventSimulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        simulator = EventSimulator()
        simulator.clock.advance_to(5.0)
        event = simulator.schedule_at(7.0, lambda: None)
        assert event.timestamp == pytest.approx(7.0)

    def test_schedule_at_past_fires_immediately(self):
        simulator = EventSimulator()
        simulator.clock.advance_to(5.0)
        event = simulator.schedule_at(1.0, lambda: None)
        assert event.timestamp == pytest.approx(5.0)


class TestExecution:
    def test_step_returns_false_when_empty(self):
        assert not EventSimulator().step()

    def test_run_respects_max_events(self):
        simulator = EventSimulator()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda d=delay: fired.append(d))
        executed = simulator.run(max_events=2)
        assert executed == 2 and fired == [1.0, 2.0]
        assert simulator.run() == 1 and fired == [1.0, 2.0, 3.0]

    def test_run_respects_until(self):
        simulator = EventSimulator()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda d=delay: fired.append(d))
        simulator.run(until=2.0)
        assert fired == [1.0, 2.0]

    def test_events_scheduled_during_execution(self):
        simulator = EventSimulator()
        fired = []

        def chain():
            fired.append("outer")
            simulator.schedule(1.0, lambda: fired.append("inner"))

        simulator.schedule(1.0, chain)
        simulator.run()
        assert fired == ["outer", "inner"]
        assert simulator.processed == 2

    def test_until_leaves_later_events_for_the_next_run(self):
        simulator = EventSimulator()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda d=delay: fired.append(d))
        assert simulator.run(until=1.5) == 1
        assert simulator.clock.now() == 1.0
        assert simulator.run() == 2 and fired == [1.0, 2.0, 3.0]

    def test_processed_counts_across_runs_and_steps(self):
        simulator = EventSimulator()
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda: None)
        assert simulator.step()
        simulator.run(max_events=1)
        simulator.run()
        assert simulator.processed == 3

    def test_run_on_an_empty_queue_executes_nothing(self):
        simulator = EventSimulator()
        assert simulator.run() == 0
        assert simulator.processed == 0


class TestClockSharing:
    def test_a_given_clock_is_used_and_advanced(self):
        clock = VirtualClock(start=10.0)
        simulator = EventSimulator(clock=clock)
        event = simulator.schedule(1.5, lambda: None)
        assert event.timestamp == pytest.approx(11.5)
        simulator.run()
        assert clock.now() == pytest.approx(11.5)

    def test_delay_is_measured_from_the_current_time(self):
        simulator = EventSimulator()
        stamps = []

        def later():
            stamps.append(simulator.schedule(2.0, lambda: None).timestamp)

        simulator.schedule(3.0, later)
        simulator.run()
        assert stamps == [5.0]
        assert simulator.clock.now() == 5.0


class TestEventOrdering:
    def test_events_compare_by_time_then_sequence(self):
        assert Event(1.0, 5, lambda: None) < Event(2.0, 0, lambda: None)
        assert Event(1.0, 0, lambda: None) < Event(1.0, 1, lambda: None)

    def test_callback_is_not_compared(self):
        assert Event(1.0, 0, lambda: "a") == Event(1.0, 0, lambda: "b")

    def test_sequence_numbers_increase_with_each_schedule(self):
        simulator = EventSimulator()
        sequences = [simulator.schedule(0.0, lambda: None).sequence
                     for _ in range(3)]
        assert sequences == [0, 1, 2]
