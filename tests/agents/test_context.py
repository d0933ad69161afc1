"""Tests for the execution context."""

from __future__ import annotations


from repro.agents.context import ExecutionContext, NullMetrics
from repro.agents.input import (
    EnvironmentInputSource,
    INPUT_KIND_HOST_DATA,
    INPUT_KIND_MESSAGE,
    INPUT_KIND_SERVICE,
    INPUT_KIND_SYSTEM,
    InputLog,
    ReplayInputSource,
)


class _RecordingEnvironment:
    def __init__(self):
        self.requests = []

    def provide(self, kind, source, key):
        self.requests.append((kind, source, key))
        if kind == INPUT_KIND_SYSTEM and key == "random":
            return 0.42
        if kind == INPUT_KIND_SYSTEM and key == "time":
            return 1000.0
        return "value-for-%s" % key


def _live_context(environment=None, output_handler=None):
    environment = environment or _RecordingEnvironment()
    return ExecutionContext(
        host_name="vendor",
        hop_index=1,
        is_final_hop=False,
        input_source=EnvironmentInputSource(environment),
        output_handler=output_handler,
    ), environment


class TestInputRouting:
    def test_get_input_defaults_source_to_host(self):
        context, environment = _live_context()
        context.get_input("start-param")
        assert environment.requests == [(INPUT_KIND_HOST_DATA, "vendor", "start-param")]

    def test_query_service(self):
        context, environment = _live_context()
        value = context.query_service("shop", "flight")
        assert value == "value-for-flight"
        assert environment.requests[0][0] == INPUT_KIND_SERVICE

    def test_receive_message(self):
        context, environment = _live_context()
        context.receive_message("answers")
        assert environment.requests[0] == (INPUT_KIND_MESSAGE, "answers", "answers")

    def test_system_call_helpers(self):
        context, _ = _live_context()
        assert context.random() == 0.42
        assert context.system_call("time") == 1000.0

    def test_inputs_are_logged_and_traced(self):
        source = EnvironmentInputSource(_RecordingEnvironment())
        context = ExecutionContext(
            host_name="vendor", hop_index=1, is_final_hop=False,
            input_source=source,
        )
        context.query_service("shop", "flight")
        context.random()
        assert len(source.log) == 2
        assert len(context.execution_log) == 2
        assert context.execution_log[0].assignments == {"flight": "value-for-flight"}


class TestOutputActions:
    def test_actions_delivered_to_handler_in_live_mode(self):
        performed = []
        context, _ = _live_context(output_handler=lambda action: performed.append(action) or "ack")
        result = context.act("purchase", {"total": 10})
        assert result == "ack"
        assert len(performed) == 1
        assert performed[0].kind == "purchase"

    def test_actions_suppressed_without_handler(self):
        context = ExecutionContext(
            host_name="vendor", hop_index=1, is_final_hop=False,
            input_source=ReplayInputSource(InputLog()),
            output_handler=None,
        )
        assert context.act("purchase", {"total": 10}) is None
        assert len(context.actions) == 1

    def test_action_sequence_numbers(self):
        context, _ = _live_context(output_handler=lambda action: None)
        context.act("a", 1)
        context.act("b", 2)
        assert [action.sequence for action in context.actions] == [0, 1]


class TestTracingAndNotes:
    def test_manual_trace(self):
        context, _ = _live_context()
        context.trace("stmt-7", price=99.0)
        assert context.execution_log[0].statement == "stmt-7"
        assert context.execution_log[0].assignments == {"price": 99.0}

    def test_metrics_defaults_to_null(self):
        context, _ = _live_context()
        assert isinstance(context.metrics, NullMetrics)
        with context.metrics.measure("anything"):
            pass
        context.metrics.add("anything", 1.0)


class TestContextMetadata:
    def test_exposed_attributes(self):
        context, _ = _live_context()
        assert context.host_name == "vendor"
        assert context.hop_index == 1
        assert context.is_final_hop is False
