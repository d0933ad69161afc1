"""Tests for the requester interfaces (Fig. 4)."""

from __future__ import annotations

from repro.agents.agent import MobileAgent
from repro.core.attributes import ReferenceDataKind
from repro.core.requesters import (
    ExecutionLogRequester,
    InitialStateRequester,
    InputRequester,
    ResourceRequester,
    ResultingStateRequester,
    requested_data_kinds,
)

from tests.helpers import CounterAgent, ProtectedCounterAgent


class TestRequestedDataKinds:
    def test_plain_agent_requests_nothing(self):
        assert requested_data_kinds(CounterAgent()) == frozenset()
        assert requested_data_kinds(CounterAgent) == frozenset()

    def test_protected_counter_agent_declares_four_kinds(self):
        kinds = requested_data_kinds(ProtectedCounterAgent)
        assert kinds == frozenset({
            ReferenceDataKind.INITIAL_STATE,
            ReferenceDataKind.RESULTING_STATE,
            ReferenceDataKind.INPUT,
            ReferenceDataKind.EXECUTION_LOG,
        })

    def test_single_marker(self):
        class OnlyInput(MobileAgent, InputRequester):
            pass

        assert requested_data_kinds(OnlyInput) == frozenset({ReferenceDataKind.INPUT})

    def test_all_five_markers_cover_everything(self):
        class Everything(MobileAgent, InitialStateRequester,
                         ResultingStateRequester, InputRequester,
                         ExecutionLogRequester, ResourceRequester):
            pass

        assert requested_data_kinds(Everything) == frozenset(ReferenceDataKind)

    def test_each_marker_maps_to_its_kind(self):
        pairs = [
            (InitialStateRequester, ReferenceDataKind.INITIAL_STATE),
            (ResultingStateRequester, ReferenceDataKind.RESULTING_STATE),
            (InputRequester, ReferenceDataKind.INPUT),
            (ExecutionLogRequester, ReferenceDataKind.EXECUTION_LOG),
            (ResourceRequester, ReferenceDataKind.RESOURCES),
        ]
        for marker, kind in pairs:
            cls = type("Agent_%s" % marker.__name__, (MobileAgent, marker), {})
            assert requested_data_kinds(cls) == frozenset({kind})
