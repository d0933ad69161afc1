"""The paper's contribution: the reference-states checking framework.

Public surface:

* generic attributes (:mod:`repro.core.attributes`),
* requester interfaces (:mod:`repro.core.requesters`),
* reference data bundles (:mod:`repro.core.reference_data`),
* checking algorithms (:mod:`repro.core.checkers`),
* verdicts (:mod:`repro.core.verdict`),
* the policy-driven framework (:mod:`repro.core.framework`,
  :mod:`repro.core.policy`), and
* the measured example mechanism (:mod:`repro.core.protocol`).
"""

from repro.core.attributes import (
    ALL_REFERENCE_DATA,
    CheckerKind,
    CheckMoment,
    ReferenceDataKind,
)
from repro.core.callbacks import (
    agent_overrides_callback,
    dispatch_check,
    normalize_callback_result,
)
from repro.core.checkers import (
    ArbitraryProgramChecker,
    CheckContext,
    Checker,
    ExecutionProof,
    ProofChecker,
    ReExecutionChecker,
    Rule,
    RuleChecker,
    RuleSet,
    build_proof,
    build_rule_environment,
    partner_confirmation_program,
    state_equality_program,
    var,
)
from repro.core.framework import CheckingFramework
from repro.core.policy import (
    ProtectionPolicy,
    maximal_policy,
    minimal_policy,
    session_reexecution_policy,
)
from repro.core.protocol import (
    ReferenceStateProtocol,
    SessionVerifier,
    check_session_payload,
)
from repro.core.reference_data import ReferenceDataSet
from repro.core.requesters import (
    ExecutionLogRequester,
    InitialStateRequester,
    InputRequester,
    ResourceRequester,
    ResultingStateRequester,
    requested_data_kinds,
)
from repro.core.verdict import CheckResult, Verdict, VerdictStatus

__all__ = [
    "ALL_REFERENCE_DATA",
    "CheckerKind",
    "CheckMoment",
    "ReferenceDataKind",
    "agent_overrides_callback",
    "dispatch_check",
    "normalize_callback_result",
    "ArbitraryProgramChecker",
    "CheckContext",
    "Checker",
    "ExecutionProof",
    "ProofChecker",
    "ReExecutionChecker",
    "Rule",
    "RuleChecker",
    "RuleSet",
    "build_proof",
    "build_rule_environment",
    "partner_confirmation_program",
    "state_equality_program",
    "var",
    "CheckingFramework",
    "ProtectionPolicy",
    "maximal_policy",
    "minimal_policy",
    "session_reexecution_policy",
    "ReferenceStateProtocol",
    "SessionVerifier",
    "check_session_payload",
    "ReferenceDataSet",
    "ExecutionLogRequester",
    "InitialStateRequester",
    "InputRequester",
    "ResourceRequester",
    "ResultingStateRequester",
    "requested_data_kinds",
    "CheckResult",
    "Verdict",
    "VerdictStatus",
]
