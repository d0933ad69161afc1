"""Attack injectors: concrete malicious-host behaviours.

A :class:`repro.platform.malicious.MaliciousHost` is an ordinary host
that runs a list of injectors at well-defined points of an execution
session:

* ``before_session`` — may tamper with the agent *before* the code runs
  (manipulation of the initial data state, i.e. area 5);
* ``wrap_environment`` — may interpose on the input environment (lying
  about input, returning wrong system call results, manipulating
  interaction — areas 11 and 12, plus the undetectable "fake input"
  attack of Section 4.2);
* ``after_session`` — may tamper with the session record and/or the live
  agent *after* the code ran (manipulation of data / incorrect
  execution, areas 5-7, and read attacks, area 2);
* ``tamper_protocol_data`` — may tamper with the protection protocol's
  own payload before migration (attempted frame-ups / cover-ups).

Each injector knows which Figure-2 area it instantiates and whether it
changes the resulting agent state, so scenarios can automatically derive
the expected detection outcome.

Session records are treated as opaque dataclasses here (mutated through
:func:`dataclasses.replace`) so this module stays independent of the
platform package and no import cycle arises.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.agents.agent import MobileAgent
from repro.agents.execution_log import ExecutionLog
from repro.agents.input import InputLog
from repro.agents.state import AgentState
from repro.attacks.model import AttackArea, AttackDescriptor

__all__ = [
    "AttackInjector",
    "DataTamperInjector",
    "StateFieldOverwriteInjector",
    "InitialStateTamperInjector",
    "IncorrectExecutionInjector",
    "InputLyingInjector",
    "WrongSystemCallInjector",
    "ReadAttackInjector",
    "DropInputRecordInjector",
    "ProtocolDataTamperInjector",
    "ExecutionLogForgeryInjector",
    "INJECTOR_REGISTRY",
    "registered_injectors",
]

#: Every concrete :class:`AttackInjector` subclass, keyed by class name.
#: Populated automatically by ``__init_subclass__`` so the campaign test
#: matrix covers new injectors without anyone remembering to list them.
INJECTOR_REGISTRY: Dict[str, Type["AttackInjector"]] = {}


def registered_injectors() -> Tuple[Type["AttackInjector"], ...]:
    """All registered injector classes, sorted by class name."""
    return tuple(INJECTOR_REGISTRY[name] for name in sorted(INJECTOR_REGISTRY))


class AttackInjector:
    """Base class: a do-nothing injector that subclasses specialize."""

    #: The Figure-2 area this injector instantiates.
    area: AttackArea = AttackArea.MANIPULATION_OF_DATA
    #: Whether the injector changes the agent's resulting state.
    changes_resulting_state: bool = True
    #: Short identifier used in scenario descriptions and reports.
    name: str = "noop"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        INJECTOR_REGISTRY[cls.__name__] = cls

    def describe(self, target_host: str,
                 collaboration: Tuple[str, ...] = ()) -> AttackDescriptor:
        """Build the descriptor for this injector mounted on a host."""
        doc = type(self).__doc__ or ""
        return AttackDescriptor(
            name=self.name,
            area=self.area,
            target_host=target_host,
            changes_resulting_state=self.changes_resulting_state,
            collaboration=collaboration,
            notes=doc.splitlines()[0] if doc else "",
        )

    # -- hooks ------------------------------------------------------------------

    def before_session(self, agent: MobileAgent, hop_index: int) -> None:
        """Tamper with the agent before its code runs (default: nothing)."""

    def wrap_environment(self, environment):
        """Interpose on the input environment (default: unchanged)."""
        return environment

    def after_session(self, agent: MobileAgent, record):
        """Tamper with agent and/or record after the code ran."""
        return record

    def tamper_protocol_data(self, protocol_data: Optional[Dict[str, Any]]
                             ) -> Optional[Dict[str, Any]]:
        """Tamper with protection-protocol payload before migration."""
        return protocol_data


class DataTamperInjector(AttackInjector):
    """Overwrite a data variable in the resulting state (area 5).

    The canonical "malicious shop" attack: after the agent computed its
    best price, the host replaces the stored best offer with its own.
    """

    area = AttackArea.MANIPULATION_OF_DATA
    changes_resulting_state = True

    def __init__(self, variable: str, value: Any,
                 name: str = "tamper-data") -> None:
        self.variable = variable
        self.value = value
        self.name = name

    def after_session(self, agent: MobileAgent, record):
        agent.data[self.variable] = copy.deepcopy(self.value)
        tampered_state = agent.capture_state()
        return dataclasses.replace(record, resulting_state=tampered_state)


class StateFieldOverwriteInjector(AttackInjector):
    """Apply an arbitrary mutation function to the resulting state (area 5)."""

    area = AttackArea.MANIPULATION_OF_DATA
    changes_resulting_state = True

    def __init__(self, mutator: Callable[[MobileAgent], None],
                 name: str = "mutate-state") -> None:
        self._mutator = mutator
        self.name = name

    def after_session(self, agent: MobileAgent, record):
        self._mutator(agent)
        return dataclasses.replace(record, resulting_state=agent.capture_state())


class InitialStateTamperInjector(AttackInjector):
    """Modify the agent's data *before* executing it (area 5).

    Under the example protocol the initial state was committed to by the
    previous host (and by this host, in its session manifest), so
    executing from a
    modified initial state yields a resulting state the checker cannot
    reproduce from the committed initial state.
    """

    area = AttackArea.MANIPULATION_OF_DATA
    changes_resulting_state = True

    def __init__(self, variable: str, value: Any,
                 name: str = "tamper-initial-state") -> None:
        self.variable = variable
        self.value = value
        self.name = name

    def before_session(self, agent: MobileAgent, hop_index: int) -> None:
        agent.data[self.variable] = copy.deepcopy(self.value)


class IncorrectExecutionInjector(AttackInjector):
    """Skip or distort the execution itself (area 7).

    Modelled as: let the code run, then replace the resulting state with
    a fabricated one (what a host that did not faithfully execute the
    code would hand to the next hop).
    """

    area = AttackArea.INCORRECT_EXECUTION_OF_CODE
    changes_resulting_state = True

    def __init__(self, fabricate: Callable[[AgentState], AgentState],
                 name: str = "incorrect-execution") -> None:
        self._fabricate = fabricate
        self.name = name

    def after_session(self, agent: MobileAgent, record):
        fabricated = self._fabricate(record.resulting_state)
        agent.restore_state(fabricated)
        return dataclasses.replace(record, resulting_state=fabricated)


class InputLyingInjector(AttackInjector):
    """Feed the agent fabricated input and record it as genuine.

    This is the attack the paper explicitly concedes (Section 4.2):
    "attacks where the executing host lies about the input an agent
    receives" cannot be detected by reference states, because the
    recorded log and the execution are consistent with each other.
    Detection requires the signed-input extension.
    """

    area = AttackArea.MANIPULATION_OF_INTERACTION
    changes_resulting_state = True

    def __init__(self, service: str, fake_value: Any,
                 request_filter: Optional[str] = None,
                 name: str = "lie-about-input") -> None:
        self.service = service
        self.fake_value = fake_value
        self.request_filter = request_filter
        self.name = name

    def describe(self, target_host: str,
                 collaboration: Tuple[str, ...] = ()) -> AttackDescriptor:
        # The resulting state differs from an honest execution, but it is
        # consistent with the (lied-about) input log, so reference-state
        # checking is expected NOT to flag it.
        return AttackDescriptor(
            name=self.name,
            area=self.area,
            target_host=target_host,
            changes_resulting_state=False,
            collaboration=collaboration,
            notes="host lies about input; consistent log, undetectable",
        )

    def wrap_environment(self, environment):
        injector = self

        class _LyingEnvironment:
            def provide(self, kind: str, source: str, key: str):
                if kind == "service" and source == injector.service and (
                    injector.request_filter is None
                    or key == injector.request_filter
                ):
                    return copy.deepcopy(injector.fake_value)
                return environment.provide(kind, source, key)

            def set_host_data(self, key: str, value: Any) -> None:
                environment.set_host_data(key, value)

        return _LyingEnvironment()


class WrongSystemCallInjector(AttackInjector):
    """Return wrong results for a system call (area 12).

    Like input lying, the recorded log stays self-consistent, so the
    paper classifies this as not preventable by the scheme.
    """

    area = AttackArea.WRONG_SYSTEM_CALL_RESULTS
    changes_resulting_state = False

    def __init__(self, call_name: str, fake_value: Any,
                 name: str = "wrong-system-call") -> None:
        self.call_name = call_name
        self.fake_value = fake_value
        self.name = name

    def wrap_environment(self, environment):
        injector = self

        class _WrongSyscallEnvironment:
            def provide(self, kind: str, source: str, key: str):
                if kind == "system" and key == injector.call_name:
                    return copy.deepcopy(injector.fake_value)
                return environment.provide(kind, source, key)

            def set_host_data(self, key: str, value: Any) -> None:
                environment.set_host_data(key, value)

        return _WrongSyscallEnvironment()


class ReadAttackInjector(AttackInjector):
    """Read (spy out) agent data without modifying anything (area 2).

    The stolen values are stored on the injector so tests can confirm
    the attack "succeeded" while the protection scheme — by design —
    sees nothing.
    """

    area = AttackArea.SPYING_OUT_DATA
    changes_resulting_state = False

    def __init__(self, variables: Optional[Tuple[str, ...]] = None,
                 name: str = "read-data") -> None:
        self.variables = variables
        self.name = name
        self.stolen: Dict[str, Any] = {}

    def after_session(self, agent: MobileAgent, record):
        snapshot = record.resulting_state.data
        names = self.variables if self.variables is not None else tuple(snapshot)
        for variable in names:
            if variable in snapshot:
                self.stolen[variable] = copy.deepcopy(snapshot[variable])
        return record


class DropInputRecordInjector(AttackInjector):
    """Suppress part of the recorded input before it becomes reference data.

    The host executes faithfully but then hands over an input log with
    entries removed.  The resulting state itself is untouched, but
    re-execution from the truncated log diverges (the code asks for more
    input than the log contains), so the example protocol flags the
    session: the host cannot substantiate its claimed state.
    """

    area = AttackArea.MANIPULATION_OF_DATA
    changes_resulting_state = False

    def __init__(self, drop_from: int = 0, name: str = "drop-input-records") -> None:
        self.drop_from = drop_from
        self.name = name

    def after_session(self, agent: MobileAgent, record):
        kept = list(record.input_log.records())[: self.drop_from]
        truncated = InputLog()
        for entry in kept:
            truncated.record(entry.kind, entry.source, entry.key, entry.value)
        return dataclasses.replace(record, input_log=truncated)


class ExecutionLogForgeryInjector(AttackInjector):
    """Replace the execution log with a fabricated one (area 6).

    The paper notes that a list of statement identifiers "does not prove
    anything since an attacker can create a correct list and augment it
    with correct or incorrect input data"; detection must come from
    comparing resulting states, which is what the checkers do.  A forged
    log by itself leaves the resulting state untouched and is therefore
    *not* expected to be detected by mechanisms that only compare states.
    """

    area = AttackArea.MANIPULATION_OF_CONTROL_FLOW
    changes_resulting_state = False

    def __init__(self, forged_entries: Optional[List[Dict[str, Any]]] = None,
                 name: str = "forge-execution-log") -> None:
        self.forged_entries = forged_entries or []
        self.name = name

    def after_session(self, agent: MobileAgent, record):
        forged = ExecutionLog()
        for entry in self.forged_entries:
            forged.append(entry.get("statement"), entry.get("assignments", {}))
        return dataclasses.replace(record, execution_log=forged)


class ProtocolDataTamperInjector(AttackInjector):
    """Tamper with the protection protocol payload itself.

    A malicious host may try to strip or rewrite the signed commitments
    the protection mechanism appended to the agent; the protocol must
    treat missing or unverifiable protocol data as an attack indication.
    """

    area = AttackArea.MANIPULATION_OF_DATA
    changes_resulting_state = False

    def __init__(self, mutator: Callable[[Dict[str, Any]], Optional[Dict[str, Any]]],
                 name: str = "tamper-protocol-data") -> None:
        self._mutator = mutator
        self.name = name

    def tamper_protocol_data(self, protocol_data: Optional[Dict[str, Any]]
                             ) -> Optional[Dict[str, Any]]:
        if protocol_data is None:
            return None
        return self._mutator(copy.deepcopy(protocol_data))
