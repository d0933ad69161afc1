"""Checking algorithms: rules, proofs, re-execution, arbitrary programs."""

from repro.core.checkers.arbitrary import (
    ArbitraryProgramChecker,
    partner_confirmation_program,
    state_equality_program,
)
from repro.core.checkers.base import Checker, CheckContext
from repro.core.checkers.proofs import ExecutionProof, ProofChecker, build_proof
from repro.core.checkers.reexecution import ReExecutionChecker
from repro.core.checkers.rules import (
    Const,
    Expr,
    Rule,
    RuleChecker,
    RuleSet,
    Var,
    build_rule_environment,
    var,
)

__all__ = [
    "ArbitraryProgramChecker",
    "partner_confirmation_program",
    "state_equality_program",
    "Checker",
    "CheckContext",
    "ExecutionProof",
    "ProofChecker",
    "build_proof",
    "ReExecutionChecker",
    "Const",
    "Expr",
    "Rule",
    "RuleChecker",
    "RuleSet",
    "Var",
    "build_rule_environment",
    "var",
]
