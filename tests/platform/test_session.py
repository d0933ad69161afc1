"""Tests for execution sessions and session records."""

from __future__ import annotations

import pytest

from repro.agents.messaging import MessageBoard
from repro.exceptions import ExecutionError
from repro.platform.resources import ResourceCatalog, StaticDataService, SystemFacilities
from repro.platform.session import ExecutionSession, SessionEnvironment

from tests.helpers import CounterAgent, FaultyAgent


def _environment(increment=3, host_data=None):
    catalog = ResourceCatalog()
    catalog.add(StaticDataService("numbers", {"increment": increment}))
    return SessionEnvironment(
        host_name="vendor",
        resources=catalog,
        message_board=MessageBoard(),
        system=SystemFacilities("vendor", seed=1),
        host_data=host_data or {},
    )


class TestSessionEnvironment:
    def test_service_routing(self):
        assert _environment(increment=9).provide("service", "numbers", "increment") == 9

    def test_system_routing(self):
        value = _environment().provide("system", "vendor", "random")
        assert 0.0 <= value < 1.0

    def test_host_data_routing(self):
        environment = _environment(host_data={"param": "x"})
        assert environment.provide("host-data", "vendor", "param") == "x"
        assert environment.provide("host-data", "vendor", "missing") is None

    def test_message_routing(self):
        environment = _environment()
        environment._message_board.deposit("partner", "box", {"hello": 1})
        value = environment.provide("message", "box", "box")
        assert value["body"] == {"hello": 1}

    def test_unknown_kind_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            _environment().provide("telepathy", "a", "b")

    def test_set_host_data(self):
        environment = _environment()
        environment.set_host_data("flag", True)
        assert environment.provide("host-data", "vendor", "flag") is True


class TestExecutionSession:
    def test_successful_session_record(self):
        agent = CounterAgent()
        session = ExecutionSession("vendor", _environment(increment=4))
        record = session.execute(agent, hop_index=1, is_final_hop=False)
        assert record.error is None
        assert record.host == "vendor"
        assert record.hop_index == 1
        assert record.initial_state.data["counter"] == 0
        assert record.resulting_state.data["counter"] == 4
        assert len(record.input_log) == 1
        assert agent.data["counter"] == 4  # live agent was mutated

    def test_failed_session_is_recorded_not_raised(self):
        session = ExecutionSession("vendor", _environment())
        record = session.execute(FaultyAgent(), hop_index=0, is_final_hop=True)
        assert "RuntimeError" in record.error

    def test_failed_session_can_raise_when_asked(self):
        session = ExecutionSession("vendor", _environment())
        with pytest.raises(ExecutionError):
            session.execute(FaultyAgent(), hop_index=0, is_final_hop=True,
                            raise_on_error=True)

    def test_final_hop_flag_reaches_the_agent(self):
        agent = CounterAgent()
        session = ExecutionSession("vendor", _environment())
        record = session.execute(agent, hop_index=2, is_final_hop=True)
        assert record.resulting_state.execution["finished"] is True

    def test_output_handler_receives_actions(self):
        from tests.helpers import ActingAgent

        performed = []
        session = ExecutionSession("vendor", _environment())
        session.execute(ActingAgent(), hop_index=0, is_final_hop=False,
                        output_handler=lambda action: performed.append(action) or {"ok": True})
        assert len(performed) == 1

    def test_record_canonical_form(self):
        agent = CounterAgent()
        session = ExecutionSession("vendor", _environment())
        record = session.execute(agent, hop_index=0, is_final_hop=False)
        canonical = record.to_canonical()
        assert canonical["host"] == "vendor"
        assert canonical["resulting_state"]["data"]["counter"] == 3
        assert canonical["error"] is None
