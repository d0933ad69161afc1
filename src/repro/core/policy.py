"""Protection policies: choosing a point in the mechanism space.

The paper's framework exists so that "the programmer [can] choose a
protection mechanism that is appropriate for his/her specific
application".  A :class:`ProtectionPolicy` is that choice, expressed in
the three generic attributes of Section 3.5 (moment of checking,
reference data, checking algorithm) plus a few operational switches
(skip trusted hosts, sign reference data, attach proofs).

Three presets mark the ends and the middle of the protection bandwidth
discussed in Section 4.1:

* :func:`minimal_policy` — check after the task, use only the resulting
  state, employ rules.  Cheap, weak.
* :func:`session_reexecution_policy` — check after every session by
  re-execution with full reference data.  This is the configuration of
  the paper's example mechanism.
* :func:`maximal_policy` — check after every session *and* after the
  task, collect everything, run re-execution plus any additional
  checkers handed in (e.g. partner confirmation).  Powerful, costly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.core.attributes import (
    ALL_REFERENCE_DATA,
    CheckMoment,
    ReferenceDataKind,
)
from repro.core.checkers.base import Checker
from repro.core.checkers.reexecution import ReExecutionChecker
from repro.core.checkers.rules import Rule, RuleChecker
from repro.exceptions import ConfigurationError

__all__ = [
    "ProtectionPolicy",
    "minimal_policy",
    "session_reexecution_policy",
    "maximal_policy",
]


@dataclass
class ProtectionPolicy:
    """A complete configuration of the checking framework.

    Attributes
    ----------
    name:
        Identifier used in verdicts and reports.
    moments:
        At which moments checks run (after session, after task, or both).
    data_kinds:
        Reference data kinds to collect in addition to whatever the
        agent's requester interfaces declare and the checkers require.
    checkers:
        The checking algorithms to execute at each checking moment.
    skip_trusted_hosts:
        Do not check sessions executed on trusted hosts (the example
        mechanism's optimization: "trusted hosts will not attack by
        definition").
    sign_reference_data:
        Have the executing host sign the reference data it hands over.
    attach_proofs:
        Have the executing host additionally attach a (simulated)
        execution proof that the :class:`ProofChecker` can verify.
    """

    name: str
    moments: FrozenSet[CheckMoment]
    data_kinds: FrozenSet[ReferenceDataKind] = frozenset()
    checkers: Tuple[Checker, ...] = ()
    skip_trusted_hosts: bool = True
    sign_reference_data: bool = True
    attach_proofs: bool = False

    def __post_init__(self) -> None:
        if not self.moments:
            raise ConfigurationError("a protection policy needs at least one moment")
        if not self.checkers:
            raise ConfigurationError("a protection policy needs at least one checker")

    # -- derived configuration -----------------------------------------------------

    def required_data_kinds(self) -> FrozenSet[ReferenceDataKind]:
        """All kinds the policy itself implies (explicit + checker needs)."""
        kinds = set(self.data_kinds)
        for checker in self.checkers:
            kinds.update(checker.kind.required_data)
        if self.attach_proofs:
            kinds.add(ReferenceDataKind.EXECUTION_LOG)
            kinds.add(ReferenceDataKind.RESULTING_STATE)
        return frozenset(kinds)

    def checks_after_session(self) -> bool:
        """Whether the policy checks at the after-session moment."""
        return CheckMoment.AFTER_SESSION in self.moments

    def checks_after_task(self) -> bool:
        """Whether the policy checks at the after-task moment."""
        return CheckMoment.AFTER_TASK in self.moments

    def describe(self) -> dict:
        """Summary dictionary used by reports and benchmarks."""
        return {
            "name": self.name,
            "moments": sorted(moment.value for moment in self.moments),
            "data_kinds": sorted(kind.value for kind in self.required_data_kinds()),
            "checkers": [checker.name for checker in self.checkers],
            "skip_trusted_hosts": self.skip_trusted_hosts,
            "sign_reference_data": self.sign_reference_data,
            "attach_proofs": self.attach_proofs,
        }


def minimal_policy(rules: Iterable[Rule], name: str = "minimal-rules") -> ProtectionPolicy:
    """The weak end of the bandwidth: after-task rule checking.

    "A mechanism at the lower end of the protection scale ... checks
    after the execution task, uses only the resulting agent state, and
    employs rules to check the execution." (Section 4.1)
    """
    return ProtectionPolicy(
        name=name,
        moments=frozenset({CheckMoment.AFTER_TASK}),
        data_kinds=frozenset({ReferenceDataKind.RESULTING_STATE}),
        checkers=(RuleChecker(list(rules)),),
        skip_trusted_hosts=True,
        sign_reference_data=False,
        attach_proofs=False,
    )


def session_reexecution_policy(name: str = "session-reexecution",
                               compare_execution_log: bool = False) -> ProtectionPolicy:
    """Per-session re-execution: the example mechanism's configuration."""
    return ProtectionPolicy(
        name=name,
        moments=frozenset({CheckMoment.AFTER_SESSION}),
        data_kinds=frozenset({
            ReferenceDataKind.INITIAL_STATE,
            ReferenceDataKind.RESULTING_STATE,
            ReferenceDataKind.INPUT,
        }),
        checkers=(ReExecutionChecker(compare_execution_log=compare_execution_log),),
        skip_trusted_hosts=True,
        sign_reference_data=True,
        attach_proofs=False,
    )


def maximal_policy(extra_checkers: Sequence[Checker] = (),
                   name: str = "maximal") -> ProtectionPolicy:
    """The strong end of the bandwidth: everything, at both moments."""
    checkers: List[Checker] = [ReExecutionChecker(compare_execution_log=True)]
    checkers.extend(extra_checkers)
    return ProtectionPolicy(
        name=name,
        moments=frozenset({CheckMoment.AFTER_SESSION, CheckMoment.AFTER_TASK}),
        data_kinds=frozenset(ALL_REFERENCE_DATA),
        checkers=tuple(checkers),
        skip_trusted_hosts=True,
        sign_reference_data=True,
        attach_proofs=True,
    )
