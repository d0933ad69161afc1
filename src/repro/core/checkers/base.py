"""Checker interface and checking context.

A checker implements one of the paper's checking algorithms (rules,
proofs, re-execution, arbitrary program).  All checkers share the same
call shape: given a :class:`CheckContext` — the reference data of the
checked session plus the state the agent actually showed up with — they
return a :class:`~repro.core.verdict.CheckResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.agents.agent import AgentCodeRegistry, default_registry
from repro.agents.state import AgentState
from repro.core.attributes import CheckerKind
from repro.core.reference_data import ReferenceDataSet
from repro.core.verdict import CheckResult, VerdictStatus
from repro.crypto.keys import KeyStore

__all__ = ["CheckContext", "Checker"]


@dataclass
class CheckContext:
    """Everything a checker may look at when checking one session.

    Attributes
    ----------
    reference_data:
        The reference data collected for the checked session.
    observed_state:
        The agent state actually observed by the checking party (the
        state the agent arrived with, or its final state at task end).
    checked_host:
        Host whose session is being checked.
    checking_host:
        Host performing the check.
    hop_index:
        Hop index of the checked session.
    keystore:
        Public keys for verifying any embedded signatures.
    code_registry:
        Registry resolving the agent's code identity for re-execution.
    metrics:
        Optional timing collector (the re-execution checker passes it to
        the replayed agent so "cycle" time is attributed correctly).
    extras:
        Mechanism-specific additional material (signed envelopes,
        partner confirmations, ...) for arbitrary-program checkers.
    """

    reference_data: ReferenceDataSet
    observed_state: Optional[AgentState]
    checked_host: str
    checking_host: str
    hop_index: int
    keystore: Optional[KeyStore] = None
    code_registry: AgentCodeRegistry = field(default_factory=lambda: default_registry)
    metrics: Optional[Any] = None
    extras: Dict[str, Any] = field(default_factory=dict)


class Checker:
    """Base class for checking algorithms."""

    #: Which point of the algorithm bandwidth this checker occupies.
    kind: CheckerKind = CheckerKind.ARBITRARY_PROGRAM
    #: Short name used in check results.
    name: str = "checker"

    def check(self, context: CheckContext) -> CheckResult:
        """Check one session; never raises for ordinary mismatches."""
        raise NotImplementedError

    # -- helpers for subclasses ---------------------------------------------------

    def _ok(self, **details: Any) -> CheckResult:
        return CheckResult(checker=self.name, status=VerdictStatus.OK, details=details)

    def _attack(self, **details: Any) -> CheckResult:
        return CheckResult(
            checker=self.name, status=VerdictStatus.ATTACK_DETECTED, details=details
        )

    def _inconclusive(self, reason: str, **details: Any) -> CheckResult:
        details = dict(details)
        details["reason"] = reason
        return CheckResult(
            checker=self.name, status=VerdictStatus.INCONCLUSIVE, details=details
        )
