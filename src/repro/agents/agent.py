"""Mobile agents: code identity, state, and lifecycle callbacks.

The agent model follows the paper (Section 2.1) and the Mole platform it
was prototyped on:

* an agent consists of **code** (a registered :class:`MobileAgent`
  subclass), a **data state** (:class:`~repro.agents.state.DataState`),
  and a manually encoded **execution state**
  (:class:`~repro.agents.state.ExecutionState`) — weak migration;
* the host calls a start procedure after every migration — here the
  :meth:`MobileAgent.run` method with an
  :class:`~repro.agents.context.ExecutionContext`;
* the protection framework's callbacks (``checkAfterSession`` /
  ``checkAfterTask``) are methods on the agent that the host invokes at
  the corresponding checking moments.

Because re-execution based checking must be able to *re-instantiate the
agent's code* on a different host, agent classes are registered by name
in the :class:`AgentCodeRegistry`; the transfer payload carries only the
code name (plus the state), exactly as the paper assumes the agent code
to be available or cacheable at the destination.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional, Type

from repro.agents.context import ExecutionContext
from repro.agents.state import AgentState, DataState, ExecutionState
from repro.exceptions import AgentError, ConfigurationError

__all__ = ["MobileAgent", "AgentCodeRegistry", "default_registry", "register_agent"]


class MobileAgent:
    """Base class for all mobile agents.

    Subclasses implement :meth:`run` using only the passed
    :class:`~repro.agents.context.ExecutionContext` for anything
    external, and store all persistent variables in ``self.data`` /
    ``self.execution`` so the state can be captured and transported.

    Class attributes
    ----------------
    code_name:
        The registered code identity.  Defaults to the class name.
    """

    code_name: Optional[str] = None

    _id_counter = itertools.count(1)

    def __init__(self, initial_data: Optional[Dict[str, Any]] = None,
                 owner: str = "owner", agent_id: Optional[str] = None) -> None:
        #: The agent's data state (instance variables, in the paper's terms).
        self.data = DataState(initial_data)
        #: The agent's manually encoded execution state (weak migration).
        self.execution = ExecutionState()
        #: Name of the principal the agent acts for.
        self.owner = owner
        #: Globally unique agent instance identifier.
        self.agent_id = agent_id or "%s/%s-%d" % (
            owner, self.get_code_name(), next(self._id_counter)
        )

    # -- code identity -----------------------------------------------------

    @classmethod
    def get_code_name(cls) -> str:
        """Return the registered code identity of this agent class."""
        return cls.code_name or cls.__name__

    # -- behaviour -----------------------------------------------------------

    def run(self, context: ExecutionContext) -> None:
        """Execute one session on the current host.

        Subclasses must override this.  The method is called once per
        hop (weak migration start procedure); the agent advances its own
        ``execution.hop_index`` bookkeeping via the platform, not here.
        """
        raise NotImplementedError(
            "%s does not implement run()" % type(self).__name__
        )

    # -- protection framework callbacks (Fig. 4) ------------------------------

    def check_after_session(self, check_context) -> Optional[Any]:
        """Called by the host as the first action when the agent arrives.

        This is the framework's ``checkAfterSession`` callback.  The
        default implementation does nothing and returns ``None`` (no
        verdict); protected agents override it.
        """
        return None

    def check_after_task(self, check_context) -> Optional[Any]:
        """Called by the last host after the agent finished its task.

        This is the framework's ``checkAfterTask`` callback; see
        :meth:`check_after_session`.
        """
        return None

    # -- state capture / restore ----------------------------------------------

    def capture_state(self) -> AgentState:
        """Snapshot the agent's variable parts (a candidate reference state)."""
        return AgentState.capture(self.data, self.execution)

    def restore_state(self, state: AgentState) -> None:
        """Replace the agent's variable parts with a snapshot."""
        self.data, self.execution = state.restore()

    # -- convenience ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s id=%r hop=%d finished=%s>" % (
            type(self).__name__,
            self.agent_id,
            self.execution.hop_index,
            self.execution.finished,
        )


class AgentCodeRegistry:
    """Maps code identities to agent classes.

    Hosts use the registry to instantiate an agent from a transfer
    payload, and checkers use it to re-instantiate the *same code* for
    re-execution.  The registry models the paper's assumption that agent
    code is either shipped alongside or already cached at the host; in
    both cases the code a checker runs is the reference code, not
    whatever a malicious host claims to have run.
    """

    def __init__(self) -> None:
        self._classes: Dict[str, Type[MobileAgent]] = {}

    def register(self, agent_class: Type[MobileAgent]) -> Type[MobileAgent]:
        """Register an agent class under its code name.

        Can be used as a decorator.  Re-registering the same class is a
        no-op; registering a *different* class under an existing name is
        an error (code identities must be unambiguous for checking to
        mean anything).
        """
        if not (isinstance(agent_class, type) and issubclass(agent_class, MobileAgent)):
            raise ConfigurationError(
                "only MobileAgent subclasses can be registered as agent code"
            )
        name = agent_class.get_code_name()
        existing = self._classes.get(name)
        if existing is not None and existing is not agent_class:
            raise ConfigurationError(
                "agent code name %r is already registered to %r"
                % (name, existing.__name__)
            )
        self._classes[name] = agent_class
        return agent_class

    def get(self, code_name: str) -> Type[MobileAgent]:
        """Return the class registered under ``code_name``.

        Raises
        ------
        AgentError
            If the code name is unknown.
        """
        try:
            return self._classes[code_name]
        except KeyError as exc:
            raise AgentError("unknown agent code %r" % code_name) from exc

    def __contains__(self, code_name: str) -> bool:
        return code_name in self._classes

    def names(self) -> tuple:
        """All registered code names, sorted."""
        return tuple(sorted(self._classes))

    def instantiate(self, code_name: str, state: AgentState,
                    owner: str, agent_id: str) -> MobileAgent:
        """Create an agent instance from its code name and a state snapshot."""
        agent_class = self.get(code_name)
        agent = agent_class(owner=owner, agent_id=agent_id)
        agent.restore_state(state)
        return agent


#: Process-wide default registry.  Library workloads and examples
#: register their agent classes here; scenario builders may also create
#: isolated registries for tests.
default_registry = AgentCodeRegistry()


def register_agent(agent_class: Type[MobileAgent]) -> Type[MobileAgent]:
    """Class decorator registering an agent in the default registry."""
    return default_registry.register(agent_class)
