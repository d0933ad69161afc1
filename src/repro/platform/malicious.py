"""Malicious hosts: hosts that mount attacks on visiting agents.

A :class:`MaliciousHost` behaves exactly like an honest
:class:`~repro.platform.host.Host` except that a list of
:class:`~repro.attacks.injector.AttackInjector` objects is given the
opportunity to interfere at the points the attack model defines:

* before the session (tampering with the initial state),
* around the input environment (lying about input / system calls),
* after the session (tampering with the resulting state, the logs, or
  just reading data),
* when protocol data is packed for migration (stripping or rewriting
  the protection mechanism's commitments).

The class also carries an optional set of *collaborators* — other host
names it colludes with — which scenario code uses to model the
collaboration attacks the example protocol cannot detect.

Two attack placements share the same hook discipline:

* **host-resident** attacks (:class:`MaliciousHost`): the host mounts
  its injectors on *every* session it runs — the topology-level model
  of the fleet engine's ``malicious_host_fraction``;
* **journey-resident** attacks (:class:`InjectedHostView`): the attack
  travels with one journey and strikes at one specific hop of its
  itinerary, regardless of which host happens to sit there — the model
  of the adversarial campaign layer (:mod:`repro.sim.campaign`).

Both funnel through :func:`run_injected_session` /
:func:`tamper_protocol_payload` so the hook order (before-session →
environment wrapping → session → after-session; protocol tampering at
migration time) is defined exactly once.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.agents.agent import MobileAgent
from repro.agents.itinerary import Itinerary
from repro.attacks.injector import AttackInjector
from repro.platform.host import Host
from repro.platform.session import ExecutionSession, SessionRecord

__all__ = [
    "MaliciousHost",
    "InjectedHostView",
    "run_injected_session",
    "tamper_protocol_payload",
]


def run_injected_session(
    host: Host,
    injectors: Sequence[AttackInjector],
    agent: MobileAgent,
    itinerary: Itinerary,
    hop_index: int,
    raise_on_error: bool = False,
) -> SessionRecord:
    """Execute one session on ``host`` with injector hooks applied.

    The canonical hook order of the attack model: every injector may
    tamper before the code runs, interpose on the input environment,
    and rewrite the session record afterwards.  The (possibly tampered)
    record is appended to the host's session history, exactly like an
    honest session.
    """
    for injector in injectors:
        injector.before_session(agent, hop_index)

    environment = host._build_environment()
    for injector in injectors:
        environment = injector.wrap_environment(environment)

    session = ExecutionSession(host.name, environment, metrics=host.metrics)
    record = session.execute(
        agent,
        hop_index=hop_index,
        is_final_hop=itinerary.is_last_hop(hop_index),
        output_handler=host.perform_action,
        resources_snapshot=host.resources.snapshot(),
        raise_on_error=raise_on_error,
    )

    for injector in injectors:
        record = injector.after_session(agent, record)
    return record


def tamper_protocol_payload(
    injectors: Sequence[AttackInjector],
    protocol_data: Optional[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Give every injector a chance to tamper with protocol payload."""
    for injector in injectors:
        protocol_data = injector.tamper_protocol_data(protocol_data)
    return protocol_data


class MaliciousHost(Host):
    """A host that applies attack injectors to the sessions it runs.

    Parameters are those of :class:`~repro.platform.host.Host` plus:

    injectors:
        The attacks to mount, applied in order at each hook point.
    collaborators:
        Names of other hosts this host collaborates with (e.g. the next
        host on the itinerary agreeing not to check this host's
        session).
    """

    def __init__(self, *args: Any,
                 injectors: Optional[Iterable[AttackInjector]] = None,
                 collaborators: Optional[Iterable[str]] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.injectors: List[AttackInjector] = list(injectors or [])
        self.collaborators: Set[str] = set(collaborators or ())

    # -- configuration ---------------------------------------------------------

    def collaborates_with(self, other: str) -> bool:
        """Whether this host colludes with ``other``."""
        return other in self.collaborators

    # -- attack application --------------------------------------------------------

    def execute_agent(
        self,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        raise_on_error: bool = False,
    ) -> SessionRecord:
        """Run the session with every injector's hooks applied."""
        return run_injected_session(
            self, self.injectors, agent, itinerary, hop_index,
            raise_on_error=raise_on_error,
        )

    def tamper_protocol_data(self, protocol_data: Optional[Dict[str, Any]]
                             ) -> Optional[Dict[str, Any]]:
        """Give every injector a chance to tamper with protocol payload."""
        return tamper_protocol_payload(self.injectors, protocol_data)


class InjectedHostView:
    """A per-journey view of a host that applies journey-resident attacks.

    The campaign layer assigns attacks to *journeys*, not hosts: the
    injector strikes at one hop of one itinerary while every other
    journey crossing the same host sees the honest behaviour.  This
    view wraps the underlying host for exactly that one hop — identity,
    keys, services, and session history all remain the wrapped host's
    (every other attribute delegates); only :meth:`execute_agent` and
    :meth:`tamper_protocol_data` gain the injector hooks.

    The platform treats hosts duck-typed (``sign`` / ``verify`` /
    ``execute_agent`` / optional ``tamper_protocol_data``), so the view
    is accepted everywhere a host is.
    """

    def __init__(self, host: Host,
                 injectors: Sequence[AttackInjector]) -> None:
        self._host = host
        self._injectors: List[AttackInjector] = list(injectors)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._host, name)

    def execute_agent(
        self,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        raise_on_error: bool = False,
    ) -> SessionRecord:
        """Run the wrapped host's session with journey injectors applied.

        Host-resident injectors (a :class:`MaliciousHost` underneath)
        keep striking first; the journey's attack composes on top.
        """
        combined = list(getattr(self._host, "injectors", ()))
        combined.extend(self._injectors)
        return run_injected_session(
            self._host, combined, agent, itinerary,
            hop_index, raise_on_error=raise_on_error,
        )

    def tamper_protocol_data(self, protocol_data: Optional[Dict[str, Any]]
                             ) -> Optional[Dict[str, Any]]:
        """Apply host-level tampering (if any), then the journey's."""
        inner = getattr(self._host, "tamper_protocol_data", None)
        if callable(inner):
            protocol_data = inner(protocol_data)
        return tamper_protocol_payload(self._injectors, protocol_data)
