"""Tests for clock abstractions."""

from __future__ import annotations

import pytest

from repro.net.clock import Clock, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=5.0).now() == 5.0

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now() == 3.5

    def test_cannot_move_backwards(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_does_not_move_on_its_own(self):
        clock = VirtualClock()
        assert clock.now() == clock.now() == 0.0

    def test_advancing_to_the_current_time_is_allowed(self):
        clock = VirtualClock(start=4.0)
        clock.advance_to(4.0)
        assert clock.now() == 4.0

    def test_backwards_error_names_both_times(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ValueError, match=r"9\.000000 < 10\.000000"):
            clock.advance_to(9.0)
        assert clock.now() == 10.0

    def test_times_are_floats(self):
        clock = VirtualClock(start=2)
        assert isinstance(clock.now(), float)
        clock.advance_to(3)
        assert isinstance(clock.now(), float)


class TestClockInterface:
    def test_clock_is_abstract(self):
        with pytest.raises(TypeError):
            Clock()

    def test_virtual_clock_is_a_clock(self):
        assert isinstance(VirtualClock(), Clock)
