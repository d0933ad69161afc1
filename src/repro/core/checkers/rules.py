"""Rule-based checking: non-Turing-complete postconditions.

Section 3.5: "This term subsumes simple (i.e. non turing complete) rule
mechanisms that allow to check e.g. postconditions in form of first
order logic (e.g. ``moneySpent + moneyRest = moneyInitial``)".

The DSL below expresses exactly that class of conditions: constants,
variable references into the agent state, arithmetic, comparisons,
and boolean connectives.  There is deliberately no loop, recursion, or
user function call — rules are data, not programs, which is what makes
them cheap to transport, evaluate, and reason about (and also what
limits the attacks they can detect, as the paper's state-appraisal
analysis points out).

Example
-------
>>> from repro.core.checkers.rules import var, Rule, RuleChecker
>>> conservation = Rule(
...     "money-conservation",
...     var("money_spent") + var("money_left") == var("initial.money_left"),
... )
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.attributes import CheckerKind
from repro.core.checkers.base import Checker, CheckContext
from repro.core.verdict import CheckResult
from repro.exceptions import CheckingError

__all__ = [
    "Expr",
    "Var",
    "Const",
    "var",
    "Rule",
    "RuleSet",
    "RuleChecker",
    "build_rule_environment",
]


class Expr:
    """Base class of rule expressions; supports operator composition."""

    def evaluate(self, environment: Dict[str, Any]) -> Any:
        """Evaluate the expression against a variable environment."""
        raise NotImplementedError

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: Any) -> "Expr":
        return BinaryOp("+", self, _wrap(other))

    def __sub__(self, other: Any) -> "Expr":
        return BinaryOp("-", self, _wrap(other))

    def __mul__(self, other: Any) -> "Expr":
        return BinaryOp("*", self, _wrap(other))

    def __truediv__(self, other: Any) -> "Expr":
        return BinaryOp("/", self, _wrap(other))

    # -- comparisons --------------------------------------------------------------

    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return BinaryOp("==", self, _wrap(other))

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return BinaryOp("!=", self, _wrap(other))

    def __lt__(self, other: Any) -> "Expr":
        return BinaryOp("<", self, _wrap(other))

    def __le__(self, other: Any) -> "Expr":
        return BinaryOp("<=", self, _wrap(other))

    def __gt__(self, other: Any) -> "Expr":
        return BinaryOp(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "Expr":
        return BinaryOp(">=", self, _wrap(other))

    # -- boolean connectives -------------------------------------------------------

    def __and__(self, other: Any) -> "Expr":
        return BinaryOp("and", self, _wrap(other))

    def __or__(self, other: Any) -> "Expr":
        return BinaryOp("or", self, _wrap(other))

    def __invert__(self) -> "Expr":
        return UnaryOp("not", self)

    # -- hashing (needed because __eq__ is overloaded) ------------------------------

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)


class Var(Expr):
    """A reference to a state variable.

    Plain names (``"best_price"``) refer to the checked (resulting)
    state; names prefixed with ``initial.`` refer to the initial state
    and names prefixed with ``execution.`` to the execution-state
    fields, when those are available in the environment.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, environment: Dict[str, Any]) -> Any:
        if self.name not in environment:
            raise CheckingError("rule references unknown variable %r" % self.name)
        return environment[self.name]

    def __repr__(self) -> str:
        return "Var(%r)" % self.name


class Const(Expr):
    """A literal constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, environment: Dict[str, Any]) -> Any:
        return self.value

    def __repr__(self) -> str:
        return "Const(%r)" % (self.value,)


class BinaryOp(Expr):
    """A binary operation over two sub-expressions."""

    _OPERATIONS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "and": lambda a, b: bool(a) and bool(b),
        "or": lambda a, b: bool(a) or bool(b),
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._OPERATIONS:
            raise CheckingError("unknown rule operator %r" % op)
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, environment: Dict[str, Any]) -> Any:
        left = self.left.evaluate(environment)
        right = self.right.evaluate(environment)
        try:
            return self._OPERATIONS[self.op](left, right)
        except (TypeError, ZeroDivisionError) as exc:
            raise CheckingError(
                "rule operator %r failed on %r and %r: %s"
                % (self.op, left, right, exc)
            ) from exc

    def __repr__(self) -> str:
        return "(%r %s %r)" % (self.left, self.op, self.right)


class UnaryOp(Expr):
    """A unary operation (boolean negation or arithmetic negation)."""

    def __init__(self, op: str, operand: Expr) -> None:
        if op not in ("not", "neg"):
            raise CheckingError("unknown unary rule operator %r" % op)
        self.op = op
        self.operand = operand

    def evaluate(self, environment: Dict[str, Any]) -> Any:
        value = self.operand.evaluate(environment)
        if self.op == "not":
            return not bool(value)
        return -value


def _wrap(value: Any) -> Expr:
    return value if isinstance(value, Expr) else Const(value)


def var(name: str) -> Var:
    """Shorthand constructor for a variable reference."""
    return Var(name)


@dataclass
class Rule:
    """A named postcondition that must evaluate to a truthy value."""

    name: str
    expression: Expr
    description: str = ""

    def holds(self, environment: Dict[str, Any]) -> bool:
        """Evaluate the rule; raises :class:`CheckingError` on bad rules."""
        return bool(self.expression.evaluate(environment))


@dataclass
class RuleSet:
    """An ordered collection of rules evaluated together."""

    rules: List[Rule] = field(default_factory=list)

    def add(self, rule: Rule) -> "RuleSet":
        """Append a rule (returns self for chaining)."""
        self.rules.append(rule)
        return self

    def evaluate(self, environment: Dict[str, Any]) -> List[Tuple[Rule, Optional[bool], Optional[str]]]:
        """Evaluate every rule.

        Returns a list of ``(rule, passed, error)`` triples where
        ``passed`` is ``None`` when the rule could not be evaluated and
        ``error`` carries the reason.
        """
        outcomes: List[Tuple[Rule, Optional[bool], Optional[str]]] = []
        for rule in self.rules:
            try:
                outcomes.append((rule, rule.holds(environment), None))
            except CheckingError as exc:
                outcomes.append((rule, None, str(exc)))
        return outcomes

    def __len__(self) -> int:
        return len(self.rules)


def build_rule_environment(context: CheckContext) -> Dict[str, Any]:
    """Build the variable environment rules are evaluated against.

    The environment exposes:

    * the observed (or, failing that, the claimed resulting) state's
      data variables under their plain names,
    * the same state's execution-state fields under ``execution.<name>``,
    * the initial state's data variables under ``initial.<name>`` when
      the initial state is part of the reference data,
    * the number of input records under ``input.count`` when the input
      log is available.
    """
    environment: Dict[str, Any] = {}
    observed = context.observed_state or context.reference_data.resulting_state
    if observed is not None:
        environment.update(observed.data)
        for key, value in observed.execution.items():
            environment["execution.%s" % key] = value
    initial = context.reference_data.initial_state
    if initial is not None:
        for key, value in initial.data.items():
            environment["initial.%s" % key] = value
    if context.reference_data.input_log is not None:
        environment["input.count"] = len(context.reference_data.input_log)
    return environment


class RuleChecker(Checker):
    """Checks a session by evaluating a rule set against its states."""

    kind = CheckerKind.RULES
    name = "rules"

    def __init__(self, rules: Iterable[Rule],
                 name: str = "rules") -> None:
        self._ruleset = RuleSet(list(rules))
        self.name = name

    def check(self, context: CheckContext) -> CheckResult:
        if (context.observed_state is None
                and context.reference_data.resulting_state is None):
            return self._inconclusive("no state available to evaluate rules on")

        environment = build_rule_environment(context)
        outcomes = self._ruleset.evaluate(environment)

        failed = [rule.name for rule, passed, _error in outcomes if passed is False]
        errored = {
            rule.name: error for rule, passed, error in outcomes if passed is None
        }
        if failed:
            return self._attack(failed_rules=failed, errored_rules=errored)
        if errored:
            return self._inconclusive(
                "some rules could not be evaluated", errored_rules=errored
            )
        return self._ok(evaluated_rules=[rule.name for rule, _p, _e in outcomes])
