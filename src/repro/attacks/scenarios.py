"""Attack scenario catalogue.

A scenario couples an :class:`~repro.attacks.injector.AttackInjector`
factory with a human-readable description and the paper-derived
expectation of whether the reference-states scheme should detect it.
The catalogue is used by the failure-injection tests and by the
detection-coverage benchmarks (Ablations B and C of DESIGN.md).

Scenarios are declarative: they do not reference concrete hosts.  A test
or benchmark binds a scenario to a malicious host via
:meth:`AttackScenario.build`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.agents.state import AgentState
from repro.attacks.injector import (
    AttackInjector,
    DataTamperInjector,
    DropInputRecordInjector,
    ExecutionLogForgeryInjector,
    IncorrectExecutionInjector,
    InitialStateTamperInjector,
    InputLyingInjector,
    ProtocolDataTamperInjector,
    ReadAttackInjector,
    StateFieldOverwriteInjector,
    WrongSystemCallInjector,
)
from repro.attacks.model import AttackDescriptor

__all__ = [
    "AttackScenario",
    "standard_catalogue",
    "scenario_by_name",
    "catalogue_names",
]


@dataclass(frozen=True)
class AttackScenario:
    """A named, reusable attack configuration."""

    name: str
    description: str
    injector_factory: Callable[[], AttackInjector]
    #: Whether the paper's reference-states scheme is expected to detect
    #: the attack (per-session checking by an honest next host).
    expected_detected: bool

    def build(self) -> AttackInjector:
        """Instantiate a fresh injector for this scenario."""
        return self.injector_factory()

    def describe(self, target_host: str,
                 collaboration: Tuple[str, ...] = ()) -> AttackDescriptor:
        """Descriptor of the scenario mounted on ``target_host``."""
        return self.build().describe(target_host, collaboration)


def _fabricate_inflated_state(state: AgentState) -> AgentState:
    """Fabrication used by the incorrect-execution scenario.

    Takes the genuine resulting state and perturbs every integer and
    float variable, which is what a host skipping the real computation
    and guessing plausible results would produce.
    """
    data = dict(state.data)
    for key, value in data.items():
        if isinstance(value, bool):
            data[key] = not value
        elif isinstance(value, int):
            data[key] = value + 1
        elif isinstance(value, float):
            data[key] = value * 1.5 + 1.0
    return AgentState(data=data, execution=dict(state.execution))


def _plant_marker_field(agent: Any) -> None:
    """Mutation used by the mutate-state-field scenario.

    Plants a variable that no honest execution produces, so the attack
    is guaranteed to change the resulting state regardless of workload.
    """
    agent.data["planted_by_attacker"] = "owned"


def _strip_commitments(protocol_data: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Protocol tampering used by the strip-protocol-data scenario.

    Removes the per-session commitment containers used by the example
    protocol (``prev_session``), the generic framework (``prev_session`` /
    ``sessions``), the traces baseline (``commitments``), and the proof
    baseline (``proof_packages``) — i.e. whatever signed material the
    active mechanism appended for the session the malicious host just ran.
    """
    stripped = dict(protocol_data)
    for key in ("prev_session", "sessions", "commitments", "proof_packages"):
        stripped.pop(key, None)
    for key in list(stripped):
        if "commitment" in key or "signature" in key or "signed" in key:
            stripped.pop(key)
    return stripped


def standard_catalogue(
    tamper_variable: str = "best_price",
    tamper_value: Any = 1.0,
    quote_service: str = "shop",
    fake_quote: Any = 9999.0,
    read_variables: Optional[Tuple[str, ...]] = None,
) -> List[AttackScenario]:
    """The default catalogue of concrete attacks.

    Parameters are the knobs that adapt the catalogue to a particular
    workload agent (which variable to tamper with, which service to lie
    about); the defaults fit the shopping workload.
    """
    return [
        AttackScenario(
            name="tamper-result-variable",
            description=(
                "after execution, overwrite %r with a value favourable to "
                "the host (manipulation of data)" % tamper_variable
            ),
            injector_factory=lambda: DataTamperInjector(
                tamper_variable, tamper_value, name="tamper-result-variable"
            ),
            expected_detected=True,
        ),
        AttackScenario(
            name="tamper-initial-state",
            description=(
                "modify %r before executing the agent (manipulation of "
                "data before the session)" % tamper_variable
            ),
            injector_factory=lambda: InitialStateTamperInjector(
                tamper_variable, tamper_value, name="tamper-initial-state"
            ),
            expected_detected=True,
        ),
        AttackScenario(
            name="mutate-state-field",
            description=(
                "apply an arbitrary mutation to the resulting state: plant "
                "a variable no honest execution produces (manipulation of "
                "data)"
            ),
            injector_factory=lambda: StateFieldOverwriteInjector(
                _plant_marker_field, name="mutate-state-field"
            ),
            expected_detected=True,
        ),
        AttackScenario(
            name="incorrect-execution",
            description=(
                "do not execute the code faithfully; hand over a fabricated "
                "resulting state (incorrect execution of code)"
            ),
            injector_factory=lambda: IncorrectExecutionInjector(
                _fabricate_inflated_state, name="incorrect-execution"
            ),
            expected_detected=True,
        ),
        AttackScenario(
            name="drop-input-records",
            description=(
                "execute faithfully but suppress the recorded input before "
                "handing it over as reference data"
            ),
            injector_factory=lambda: DropInputRecordInjector(
                drop_from=0, name="drop-input-records"
            ),
            expected_detected=True,
        ),
        AttackScenario(
            name="forge-execution-log",
            description=(
                "replace the execution trace by a fabricated one while "
                "keeping the genuine resulting state (the paper: statement "
                "lists prove nothing by themselves, so this is not expected "
                "to be caught by state comparison)"
            ),
            injector_factory=lambda: ExecutionLogForgeryInjector(
                forged_entries=[{"statement": "0", "assignments": {"x": 0}}],
                name="forge-execution-log",
            ),
            expected_detected=False,
        ),
        AttackScenario(
            name="lie-about-input",
            description=(
                "quote a fake price of %r to the agent and record it as the "
                "genuine input (host lies about input — undetectable by "
                "reference states, Section 4.2)" % fake_quote
            ),
            injector_factory=lambda: InputLyingInjector(
                quote_service, fake_quote, name="lie-about-input"
            ),
            expected_detected=False,
        ),
        AttackScenario(
            name="wrong-system-call",
            description=(
                "return a constant instead of a random number (wrong system "
                "call results — area 12, not preventable)"
            ),
            injector_factory=lambda: WrongSystemCallInjector(
                "random", 0.0, name="wrong-system-call"
            ),
            expected_detected=False,
        ),
        AttackScenario(
            name="read-agent-data",
            description=(
                "spy out agent data without modifying anything (read attack "
                "— outside the scheme's scope, Section 4.2)"
            ),
            injector_factory=lambda: ReadAttackInjector(
                read_variables, name="read-agent-data"
            ),
            expected_detected=False,
        ),
        AttackScenario(
            name="strip-protocol-data",
            description=(
                "remove the protection protocol's signed commitments from "
                "the migrating agent"
            ),
            injector_factory=lambda: ProtocolDataTamperInjector(
                _strip_commitments, name="strip-protocol-data"
            ),
            expected_detected=True,
        ),
    ]


@lru_cache(maxsize=1)
def _default_catalogue_by_name() -> Dict[str, AttackScenario]:
    """The default-parameter catalogue, indexed once.

    Scenario objects are immutable and their factories build fresh
    injectors, so sharing them is safe; campaign analysis looks up
    expectations per journey and must not rebuild the catalogue each
    time.
    """
    return {s.name: s for s in standard_catalogue()}


def scenario_by_name(name: str, **catalogue_kwargs: Any) -> AttackScenario:
    """Look up a single scenario from the standard catalogue by name."""
    if not catalogue_kwargs:
        try:
            return _default_catalogue_by_name()[name]
        except KeyError:
            raise KeyError("no attack scenario named %r" % name) from None
    for scenario in standard_catalogue(**catalogue_kwargs):
        if scenario.name == name:
            return scenario
    raise KeyError("no attack scenario named %r" % name)


def catalogue_names() -> Tuple[str, ...]:
    """The names of every scenario in the standard catalogue, in order."""
    return tuple(_default_catalogue_by_name())
