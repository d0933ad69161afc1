"""The generic attributes of reference-state mechanisms (Section 3.5).

The paper extracts three orthogonal attributes from the existing
approaches; their combinations span the space of possible mechanisms:

* **moment of checking** — after every execution session, or after the
  agent finished its task;
* **used reference data** — initial state, resulting state, input,
  execution log, replicated host resources;
* **checking algorithm** — rules, proofs, re-execution, or an arbitrary
  program.

These enums are used by policies, checkers, requester interfaces, and
the benchmark ablations to name points in that space.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import Tuple

__all__ = ["CheckMoment", "ReferenceDataKind", "CheckerKind", "ALL_REFERENCE_DATA"]


@unique
class CheckMoment(Enum):
    """When the reference state is checked."""

    #: Checked as the first action on the next host (callback
    #: ``checkAfterSession``).
    AFTER_SESSION = "after-session"
    #: Checked by the last host after the task finished (callback
    #: ``checkAfterTask``).
    AFTER_TASK = "after-task"

    @property
    def callback_name(self) -> str:
        """Name of the agent callback invoked at this moment (Fig. 4)."""
        return {
            CheckMoment.AFTER_SESSION: "checkAfterSession",
            CheckMoment.AFTER_TASK: "checkAfterTask",
        }[self]


@unique
class ReferenceDataKind(Enum):
    """Which reference data a checking mechanism uses (Fig. 4 / Fig. 5)."""

    INITIAL_STATE = "initial-state"
    RESULTING_STATE = "resulting-state"
    INPUT = "input"
    EXECUTION_LOG = "execution-log"
    RESOURCES = "resources"


#: Every reference data kind, in a stable order.
ALL_REFERENCE_DATA: Tuple[ReferenceDataKind, ...] = (
    ReferenceDataKind.INITIAL_STATE,
    ReferenceDataKind.RESULTING_STATE,
    ReferenceDataKind.INPUT,
    ReferenceDataKind.EXECUTION_LOG,
    ReferenceDataKind.RESOURCES,
)


@unique
class CheckerKind(Enum):
    """Which checking algorithm a mechanism employs (Section 3.5).

    The members are listed by increasing power as discussed in the
    paper: rules < proofs ≈ re-execution < arbitrary program (the
    arbitrary program subsumes all the others).
    """

    RULES = "rules"
    PROOFS = "proofs"
    RE_EXECUTION = "re-execution"
    ARBITRARY_PROGRAM = "arbitrary-program"

    @property
    def required_data(self) -> Tuple[ReferenceDataKind, ...]:
        """The reference data kinds this algorithm needs (Section 3.5).

        Rules can work on any data but need at least the resulting
        state; proofs are self-contained apart from the resulting state
        they bind; re-execution needs input, initial state, and either
        the execution log or the resulting state; an arbitrary program
        may use anything (we declare the full set so frameworks collect
        everything).
        """
        if self is CheckerKind.RULES:
            return (ReferenceDataKind.RESULTING_STATE,)
        if self is CheckerKind.PROOFS:
            return (ReferenceDataKind.RESULTING_STATE,
                    ReferenceDataKind.EXECUTION_LOG)
        if self is CheckerKind.RE_EXECUTION:
            return (
                ReferenceDataKind.INITIAL_STATE,
                ReferenceDataKind.INPUT,
                ReferenceDataKind.RESULTING_STATE,
            )
        return ALL_REFERENCE_DATA
