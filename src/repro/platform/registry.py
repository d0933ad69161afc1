"""Host registry, protection-mechanism plug-in API, and the journey driver.

The :class:`AgentSystem` is the piece that actually moves an agent along
its itinerary: it executes a session at each host, packs the agent
(together with whatever data the active protection mechanism appended),
ships it over the simulated wire, unpacks it at the next host, and gives
the protection mechanism its callbacks at the moments the framework
defines — on arrival (``checkAfterSession`` time) and after the task
(``checkAfterTask`` time).

Protection mechanisms — the paper's framework-based protocol as well as
the baseline approaches — plug in through the
:class:`ProtectionMechanism` interface, keeping the platform free of any
knowledge about *how* checking works.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.agents.agent import AgentCodeRegistry, MobileAgent, default_registry
from repro.agents.itinerary import Itinerary, RouteEntry, RouteRecord
from repro.agents.migration import MigrationEngine
from repro.agents.state import AgentState
from repro.crypto.canonical import canonical_copy, canonical_encode
from repro.exceptions import ConfigurationError, HostNotFoundError, ProtocolError
from repro.net.transport import AgentTransfer
from repro.platform.host import Host
from repro.platform.session import SessionRecord

__all__ = [
    "HostRegistry",
    "ProtectionMechanism",
    "JourneyResult",
    "HopOutcome",
    "JourneyRunner",
    "AgentSystem",
    "verdict_is_attack",
]


def verdict_is_attack(verdict: Any) -> bool:
    """Duck-typed attack check shared by every verdict consumer.

    Anything with a truthy ``is_attack`` attribute counts, as does a
    plain dictionary with ``{"is_attack": True}``.
    """
    if getattr(verdict, "is_attack", False):
        return True
    return isinstance(verdict, dict) and bool(verdict.get("is_attack"))


class HostRegistry:
    """Name → host directory plus the owner's trust database.

    Trust is an attribute the *owner* assigns to hosts (Section 1: trust
    "may change depending e.g. on the tasks an agent has to fulfil"); in
    the simulation it is simply the host's ``trusted`` flag, which the
    registry exposes so protection mechanisms can skip checking trusted
    hosts as the example protocol does.
    """

    def __init__(self) -> None:
        self._hosts: Dict[str, Host] = {}

    def add(self, host: Host) -> Host:
        """Register a host under its name."""
        if host.name in self._hosts:
            raise ConfigurationError("host %r is already registered" % host.name)
        self._hosts[host.name] = host
        return host

    def get(self, name: str) -> Host:
        """Return the host called ``name``.

        Raises
        ------
        HostNotFoundError
            If no host of that name is registered.
        """
        try:
            return self._hosts[name]
        except KeyError as exc:
            raise HostNotFoundError("unknown host %r" % name) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)

    def names(self) -> Tuple[str, ...]:
        """All registered host names, sorted."""
        return tuple(sorted(self._hosts))

    def hosts(self) -> Tuple[Host, ...]:
        """All registered hosts, sorted by name."""
        return tuple(self._hosts[name] for name in self.names())


class ProtectionMechanism:
    """Plug-in interface for agent protection mechanisms.

    The default implementation protects nothing: every hook is a no-op.
    Mechanisms override the hooks they need; all hooks are optional.

    The ``protocol_data`` value threaded through the hooks is the
    mechanism's own payload that travels with the agent (the paper:
    "include the data in the data part of the agent as this part is
    transported automatically"); it must be canonically encodable.
    """

    #: Human-readable mechanism name (reports, detection outcomes).
    name = "unprotected"

    def prepare_launch(self, agent: MobileAgent, itinerary: Itinerary,
                       home_host: Host) -> Optional[Dict[str, Any]]:
        """Called once before the first session; returns initial payload."""
        return None

    def on_arrival(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        protocol_data: Optional[Dict[str, Any]],
    ) -> Tuple[List[Any], Optional[Dict[str, Any]]]:
        """Called as the first action when the agent arrives at a host.

        This is the ``checkAfterSession`` moment: the mechanism may check
        the previous host's execution session here.  Returns the list of
        verdicts produced (possibly empty) and the possibly updated
        protocol payload.
        """
        return [], protocol_data

    def after_session(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        record: SessionRecord,
        protocol_data: Optional[Dict[str, Any]],
    ) -> Optional[Dict[str, Any]]:
        """Called after a session finished, before the agent migrates."""
        return protocol_data

    def after_task(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        protocol_data: Optional[Dict[str, Any]],
    ) -> List[Any]:
        """Called by the last host after the agent finished its task.

        This is the ``checkAfterTask`` moment; returns verdicts.
        """
        return []


@dataclass
class JourneyResult:
    """Everything observed while driving one agent along its itinerary."""

    agent: MobileAgent
    itinerary: Itinerary
    final_state: AgentState
    records: List[SessionRecord] = field(default_factory=list)
    verdicts: List[Any] = field(default_factory=list)
    transfer_sizes: List[int] = field(default_factory=list)
    transfer_signature_failures: List[int] = field(default_factory=list)
    route_record: Optional[RouteRecord] = None
    mechanism: str = "unprotected"
    wall_time_seconds: float = 0.0
    #: The protection mechanism's payload as it looked when the task
    #: finished (what the agent "brought home"); owner-side verification
    #: such as the traces investigation or proof checking starts here.
    final_protocol_data: Optional[Dict[str, Any]] = None

    @property
    def hops(self) -> int:
        """Number of execution sessions that took place."""
        return len(self.records)

    @property
    def total_transfer_bytes(self) -> int:
        """Total bytes shipped across all migrations."""
        return sum(self.transfer_sizes)

    @property
    def visited_hosts(self) -> Tuple[str, ...]:
        """Hosts that executed a session, in order."""
        return tuple(record.host for record in self.records)

    def detected_attack(self) -> bool:
        """Whether any verdict reports a detected attack.

        Verdict objects are duck-typed via :func:`verdict_is_attack`.
        """
        return any(verdict_is_attack(verdict) for verdict in self.verdicts)

    def blamed_hosts(self) -> Tuple[str, ...]:
        """Hosts blamed by any attack verdict, deduplicated, sorted."""
        blamed = set()
        for verdict in self.verdicts:
            if getattr(verdict, "is_attack", False):
                host = getattr(verdict, "blamed_host", None)
                if host:
                    blamed.add(host)
            elif isinstance(verdict, dict) and verdict.get("is_attack"):
                host = verdict.get("blamed_host")
                if host:
                    blamed.add(host)
        return tuple(sorted(blamed))


@dataclass(frozen=True)
class HopOutcome:
    """What one :meth:`JourneyRunner.step` call did.

    The wall-clock phase timings let a driver (notably the fleet
    simulation engine) attribute real compute cost to the checking,
    session, and migration phases of a hop without owning a metrics
    collector.

    Attributes
    ----------
    host:
        Name of the host that executed this hop's session.
    hop_index:
        Zero-based hop position in the itinerary.
    is_final:
        Whether this was the last hop (the agent did not migrate).
    wire_bytes:
        Size of the outbound transfer, or ``None`` on the final hop.
    new_verdicts:
        Verdicts produced during this hop (arrival check and, on the
        final hop, the after-task check).
    check_seconds:
        Wall time spent in the protection mechanism's checking hooks
        (``on_arrival`` and ``after_task``).
    session_seconds:
        Wall time spent executing the agent's session.
    migrate_seconds:
        Wall time spent producing commitments (``after_session``) and
        packing / signing / shipping the agent.
    """

    host: str
    hop_index: int
    is_final: bool
    wire_bytes: Optional[int]
    new_verdicts: Tuple[Any, ...] = ()
    check_seconds: float = 0.0
    session_seconds: float = 0.0
    migrate_seconds: float = 0.0


class JourneyRunner:
    """Drives one agent journey hop by hop.

    :meth:`AgentSystem.launch` runs a whole journey in one call by
    draining a runner; the discrete-event fleet engine instead
    schedules each :meth:`step` as an event on a virtual timeline so
    that thousands of journeys interleave.

    Parameters
    ----------
    system:
        The agent system providing hosts and the migration engine.
    agent:
        The agent instance to execute at the home host.
    itinerary:
        The route to drive the agent along.
    protection:
        Optional protection mechanism; defaults to the no-op mechanism.
    transfer_verifier:
        Optional override for whole-transfer signature checking.  When
        given, it must expose ``verify_transfer(sender, receiver,
        payload) -> bool``; the batched fleet path plugs in a
        :class:`~repro.crypto.batch.BatchedTransferVerifier` here.
    hop_injectors:
        Optional journey-resident attacks: hop index → attack injectors
        mounted at that hop regardless of which host executes it.  The
        adversarial campaign layer (:mod:`repro.sim.campaign`) uses
        this to strike a deterministic fraction of journeys while every
        other journey crossing the same hosts stays untouched.
    """

    def __init__(
        self,
        system: "AgentSystem",
        agent: MobileAgent,
        itinerary: Itinerary,
        protection: Optional[ProtectionMechanism] = None,
        transfer_verifier: Optional[Any] = None,
        hop_injectors: Optional[Dict[int, Sequence[Any]]] = None,
    ) -> None:
        self.system = system
        self.itinerary = itinerary
        self.mechanism = protection or ProtectionMechanism()
        self.transfer_verifier = transfer_verifier
        self.hop_injectors: Dict[int, Sequence[Any]] = dict(hop_injectors or {})
        self.route_record = RouteRecord() if system.record_route else None
        self.result = JourneyResult(
            agent=agent,
            itinerary=itinerary,
            final_state=agent.capture_state(),
            mechanism=self.mechanism.name,
            route_record=self.route_record,
        )
        self._agent = agent
        self._protocol_data: Optional[Dict[str, Any]] = None
        self._arrived_from: Optional[str] = None
        self._hop_index = 0
        self._started_at: Optional[float] = None
        self._done = False

    # -- introspection -----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the journey has finished (after-task check included)."""
        return self._done

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run."""
        return self._started_at is not None

    @property
    def agent(self) -> MobileAgent:
        """The current agent instance (re-instantiated at each hop)."""
        return self._agent

    # -- driving -----------------------------------------------------------------

    def start(self) -> None:
        """Run the launch-time hook of the protection mechanism."""
        if self.started:
            raise ProtocolError("journey has already been started")
        self._started_at = time.perf_counter()
        home = self.system.registry.get(self.itinerary.home)
        self._protocol_data = self.mechanism.prepare_launch(
            self._agent, self.itinerary, home
        )

    def step(self) -> HopOutcome:
        """Execute the next hop (arrival check, session, migration).

        Returns the :class:`HopOutcome` describing what happened.  On
        the final hop the after-task check runs and the journey result
        is finalized.
        """
        if not self.started:
            self.start()
        if self._done:
            raise ProtocolError("journey has already finished")

        hop_index = self._hop_index
        itinerary = self.itinerary
        host = self.system.registry.get(itinerary.host_at(hop_index))
        injectors = self.hop_injectors.get(hop_index)
        if injectors:
            # Journey-resident attack: decorate this hop's host with the
            # injector hooks without touching the shared host object.
            from repro.platform.malicious import InjectedHostView

            host = InjectedHostView(host, injectors)
        verdicts_before = len(self.result.verdicts)
        check_seconds = 0.0

        if self.route_record is not None:
            self.route_record.append(
                host.signer,
                RouteEntry(hop_index=hop_index, host=host.name,
                           arrived_from=self._arrived_from),
            )

        if hop_index > 0:
            checkpoint = time.perf_counter()
            verdicts, self._protocol_data = self.mechanism.on_arrival(
                host, self._agent, itinerary, hop_index, self._protocol_data
            )
            check_seconds += time.perf_counter() - checkpoint
            self.result.verdicts.extend(verdicts)

        checkpoint = time.perf_counter()
        record = host.execute_agent(self._agent, itinerary, hop_index)
        session_seconds = time.perf_counter() - checkpoint
        self.result.records.append(record)

        checkpoint = time.perf_counter()
        self._protocol_data = self.mechanism.after_session(
            host, self._agent, itinerary, hop_index, record, self._protocol_data
        )
        migrate_seconds = time.perf_counter() - checkpoint

        is_final = itinerary.is_last_hop(hop_index)
        wire_bytes: Optional[int] = None
        if is_final:
            checkpoint = time.perf_counter()
            self.result.verdicts.extend(
                self.mechanism.after_task(
                    host, self._agent, itinerary, self._protocol_data
                )
            )
            check_seconds += time.perf_counter() - checkpoint
            self._finish()
        else:
            checkpoint = time.perf_counter()
            # The (possibly malicious) current host assembles the transfer.
            tamper = getattr(host, "tamper_protocol_data", None)
            if callable(tamper):
                self._protocol_data = tamper(self._protocol_data)

            self._agent, self._protocol_data, size, signature_ok = (
                self.system._migrate(
                    host,
                    self.system.registry.get(itinerary.host_at(hop_index + 1)),
                    self._agent,
                    itinerary,
                    hop_index + 1,
                    self._protocol_data,
                    transfer_verifier=self.transfer_verifier,
                )
            )
            migrate_seconds += time.perf_counter() - checkpoint
            wire_bytes = size
            self.result.transfer_sizes.append(size)
            if not signature_ok:
                self.result.transfer_signature_failures.append(hop_index)
            self._arrived_from = host.name
            self._hop_index += 1

        return HopOutcome(
            host=host.name,
            hop_index=hop_index,
            is_final=is_final,
            wire_bytes=wire_bytes,
            new_verdicts=tuple(self.result.verdicts[verdicts_before:]),
            check_seconds=check_seconds,
            session_seconds=session_seconds,
            migrate_seconds=migrate_seconds,
        )

    def _finish(self) -> None:
        self.result.agent = self._agent
        self.result.final_state = self._agent.capture_state()
        self.result.final_protocol_data = self._protocol_data
        self.result.wall_time_seconds = (
            time.perf_counter() - (self._started_at or 0.0)
        )
        self._done = True


class AgentSystem:
    """Drives agents along itineraries across the registered hosts.

    Parameters
    ----------
    registry:
        The host directory.
    code_registry:
        Registry used to unpack agents at each host; defaults to the
        process-wide registry.
    sign_transfers:
        Whether migrating agents are signed and verified *as a whole*
        by the sending / receiving host.  This is the configuration of
        the paper's "plain" agents in Table 1 and stays enabled for
        protected agents too.
    record_route:
        Whether hosts append signed route entries to the agent
        (Section 3.5's dynamically recorded, signed itinerary).
    """

    def __init__(
        self,
        registry: HostRegistry,
        code_registry: Optional[AgentCodeRegistry] = None,
        sign_transfers: bool = True,
        record_route: bool = False,
    ) -> None:
        self.registry = registry
        self.code_registry = code_registry or default_registry
        self.sign_transfers = sign_transfers
        self.record_route = record_route
        self._engine = MigrationEngine(self.code_registry)

    def launch(
        self,
        agent: MobileAgent,
        itinerary: Itinerary,
        protection: Optional[ProtectionMechanism] = None,
    ) -> JourneyResult:
        """Run ``agent`` along ``itinerary`` and return the journey result.

        The agent object passed in is executed at the home host; at every
        subsequent hop the agent is re-instantiated from the transferred
        state, exactly as a real platform would do.  The returned
        result's ``agent`` attribute is the *final* instance.
        """
        runner = self.runner(agent, itinerary, protection)
        runner.start()
        while not runner.done:
            runner.step()
        return runner.result

    def runner(
        self,
        agent: MobileAgent,
        itinerary: Itinerary,
        protection: Optional[ProtectionMechanism] = None,
        transfer_verifier: Optional[Any] = None,
        hop_injectors: Optional[Dict[int, Sequence[Any]]] = None,
    ) -> JourneyRunner:
        """Build a :class:`JourneyRunner` for stepwise journey driving."""
        return JourneyRunner(
            self, agent, itinerary, protection,
            transfer_verifier=transfer_verifier,
            hop_injectors=hop_injectors,
        )

    # -- internal helpers -------------------------------------------------------

    def _migrate(
        self,
        sender: Host,
        receiver: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        next_hop_index: int,
        protocol_data: Optional[Dict[str, Any]],
        transfer_verifier: Optional[Any] = None,
    ) -> Tuple[MobileAgent, Optional[Dict[str, Any]], int, bool]:
        """Pack, (optionally) sign, ship, verify, and unpack the agent."""
        transfer = self._engine.pack(agent, itinerary, next_hop_index, protocol_data)
        # One canonical encoding per migration: the same bytes are the
        # wire payload AND the message the whole-transfer signature
        # covers, so sign and verify below never re-encode.
        payload = transfer.to_canonical()
        wire_bytes = canonical_encode(payload)

        signature_ok = True
        if self.sign_transfers:
            # Whole-message signature: this is what the "sign & verify"
            # column of the paper's tables measures.
            if transfer_verifier is not None:
                signature_ok = transfer_verifier.verify_transfer(
                    sender, receiver, payload, message=wire_bytes
                )
            else:
                envelope = sender.sign(
                    payload, category="sign_verify", message=wire_bytes
                )
                signature_ok = receiver.verify(
                    envelope, expected_signer=sender.name,
                    category="sign_verify", message=wire_bytes,
                )

        # The receiver gets what decoding ``wire_bytes`` would give it,
        # built without the bytes: a canonical copy of the payload that
        # shares nothing mutable with the sender's objects (tuples
        # arrive as lists) and shares the immutable state snapshot, whose
        # memoized encoding then serves the arrival check's digest.
        received = AgentTransfer.from_canonical(canonical_copy(payload))
        unpacked = self._engine.unpack(received)
        return unpacked.agent, unpacked.protocol_data, len(wire_bytes), signature_ok
