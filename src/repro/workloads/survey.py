"""Survey / data-collection workload with partner communication.

This workload exercises the part of the input model the generic and
shopping agents do not touch: "communication with partners residing on
other hosts".  A :class:`SurveyAgent` visits one host per survey
participant, receives the participant's (optionally signed) answer as a
partner message, and aggregates statistics.

With signed answers the Section 4.3 extension becomes testable: the
:func:`repro.core.checkers.arbitrary.partner_confirmation_program`
checker can confirm that every recorded answer really came from the
claimed participant, which closes the "host lies about input" gap for
this workload.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.agents.agent import MobileAgent, register_agent
from repro.agents.context import ExecutionContext
from repro.core.requesters import (
    ExecutionLogRequester,
    InitialStateRequester,
    InputRequester,
    ResultingStateRequester,
)

__all__ = ["SurveyAgent", "SURVEY_MAILBOX"]

#: Mailbox on each host from which the agent takes the participant answer.
SURVEY_MAILBOX = "survey-answers"


@register_agent
class SurveyAgent(MobileAgent, InitialStateRequester, ResultingStateRequester,
                  InputRequester, ExecutionLogRequester):
    """Collects one numeric answer per host and keeps running statistics.

    Data-state variables
    --------------------
    ``question``
        The survey question (carried for documentation only).
    ``answers``
        ``{host: {"sender": str, "value": float, "signed": bool}}``.
    ``answer_count`` / ``answer_sum`` / ``answer_min`` / ``answer_max``
        Aggregates over the collected answers.
    """

    code_name = "survey-agent"

    def __init__(self, initial_data: Optional[Dict[str, Any]] = None,
                 owner: str = "owner", agent_id: Optional[str] = None) -> None:
        super().__init__(initial_data, owner=owner, agent_id=agent_id)
        self.data.set_default("question", "How many agents does your host run?")
        self.data.set_default("answers", {})
        self.data.set_default("answer_count", 0)
        self.data.set_default("answer_sum", 0.0)
        self.data.set_default("answer_min", None)
        self.data.set_default("answer_max", None)

    # -- behaviour -----------------------------------------------------------------

    def run(self, context: ExecutionContext) -> None:
        # Hosts that host a participant expose the ``survey_participant``
        # flag as host data; the home host (first and last hop) does not,
        # and the agent simply passes through it.
        if not context.get_input("survey_participant"):
            self.execution["finished"] = context.is_final_hop
            return

        message = context.receive_message(SURVEY_MAILBOX)
        answers = dict(self.data["answers"])

        if isinstance(message, dict):
            body = message.get("body")
            sender = message.get("sender", "unknown")
            signed = message.get("signature_envelope") is not None
        else:  # defensive: a malformed mailbox value still gets recorded
            body, sender, signed = message, "unknown", False

        value = float(body) if isinstance(body, (int, float)) else 0.0
        answers[context.host_name] = {
            "sender": sender,
            "value": value,
            "signed": signed,
        }
        self.data["answers"] = answers

        count = self.data["answer_count"] + 1
        total = self.data["answer_sum"] + value
        minimum = self.data["answer_min"]
        maximum = self.data["answer_max"]
        self.data["answer_count"] = count
        self.data["answer_sum"] = round(total, 6)
        self.data["answer_min"] = value if minimum is None else min(minimum, value)
        self.data["answer_max"] = value if maximum is None else max(maximum, value)

        self.execution["finished"] = context.is_final_hop

    # -- derived values ----------------------------------------------------------------
