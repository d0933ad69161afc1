"""The example mechanism: per-session checking by the next host.

Section 6 of the paper demonstrates the framework with a mechanism from
Hohl's technical report 09/99 ("A New Protocol Protecting Mobile Agents
From Some Modification Attacks").  Its characteristics, all reproduced
here:

* it is based on Vigna's traces idea but **checks every execution
  session** instead of waiting for a suspicion;
* the **next host** checks the session of the current host, regardless
  of whether that next host is trusted;
* the reference data is the **initial state**, the **resulting state**,
  and the **input** of the session;
* **digital signatures and secure hashes** authenticate the data a host
  produces; **initial states are committed to by both the checking host
  and the checked host** (dual commitment), so neither can later claim
  a different state was handed over;
* sessions on **trusted hosts are not checked** ("trusted hosts will not
  attack by definition");
* the mechanism transports the **complete initial state** and the
  **input** of the checked session, so the next host can re-execute and
  the owner "is able to prove his/her damage in case of a fraud"; the
  resulting state needs no copy of its own — it is the very agent state
  that migrates;
* the known limitation is inherited: **collaboration attacks of two or
  more consecutive hosts cannot be detected** — the collaborating next
  host simply skips the check.

Protocol version 3 folds everything a host states about one session
under **one signature**: at the end of its session a host signs a
*session manifest* holding its verdict on the previous session and the
digests of the initial state it received, of its resulting state and of
its input log.  The full initial state and the input log travel
unsigned, pinned by those digests.  To check a session the next host
verifies two manifests, the checked host's and its sender's; the dual
commitment is the equality of the sender's resulting digest and the
checked host's initial digest.  Every blame still rests on a claim the
blamed host signed.  The manifests travel as the bytes they were signed
over (:class:`~repro.crypto.signing.SignedStatement`), and together they
are the journey's verdict history.

The expected cost profile (Table 2) is that the protocol roughly doubles
the execution cost of light agents and adds ~1/3 for computation-heavy
agents (the main routine runs once more during checking).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.agents.agent import AgentCodeRegistry, MobileAgent, default_registry
from repro.agents.input import InputLog
from repro.agents.itinerary import Itinerary
from repro.agents.state import AgentState
from repro.core.attributes import CheckMoment
from repro.core.checkers.base import Checker, CheckContext
from repro.core.checkers.reexecution import ReExecutionChecker
from repro.core.reference_data import ReferenceDataSet
from repro.core.verdict import CheckResult, Verdict, VerdictStatus
from repro.crypto.canonical import CanonicalSpan
from repro.crypto.hashing import hash_bytes
from repro.crypto.signing import SignedEnvelope, SignedStatement
from repro.platform.host import Host
from repro.platform.registry import ProtectionMechanism
from repro.platform.session import SessionRecord

__all__ = ["ReferenceStateProtocol", "SessionVerifier", "check_session_payload"]

#: Key under which the protocol stores its payload version.  Version 3
#: signs one session manifest per host per hop where version 2 signed
#: five separate statements (resulting state, input, initial-state
#: commitment, verdict, and the sender half of the commitment).
_PROTOCOL_VERSION = 3

#: The ``role`` a session manifest's payload carries.
_MANIFEST_ROLE = "session-manifest"
#: The digest fields of a session manifest.
_DIGESTS = ("initial_digest", "resulting_digest", "input_digest")


def _attack(checker: str, reason: str, **details: Any) -> CheckResult:
    details["reason"] = reason
    return CheckResult(
        checker=checker, status=VerdictStatus.ATTACK_DETECTED, details=details
    )


def _signer_of(entry: Any) -> Optional[str]:
    """The claimed signer of a history entry, or ``None`` if malformed."""
    try:
        return SignedStatement.from_canonical(entry).signer
    except Exception:
        return None


class ReferenceStateProtocol(ProtectionMechanism):
    """Per-session re-execution checking by the next host.

    Parameters
    ----------
    code_registry:
        Registry providing the reference agent code for re-execution.
    trusted_hosts:
        Names of hosts the owner trusts.  Sessions executed on these
        hosts are not checked.  Trust comes only from this owner-side
        configuration: when ``None``, no host is trusted.  The session
        payload carries no trust flag — a host could set one on its own
        session, and a ``trusted`` key planted there is ignored.
    checker:
        The checking algorithm applied to untrusted sessions; defaults
        to :class:`~repro.core.checkers.reexecution.ReExecutionChecker`.
    check_trusted_hosts:
        Set to ``True`` to check every session regardless of trust
        (useful for ablation measurements of the skip optimization).

    The payload that travels with the agent holds ``prev_session`` (the
    unsigned metadata, initial state and input of the session just
    executed) and ``verdict_history`` (every host's signed session
    manifest, oldest first).  Between arrival and departure a host keeps
    what its manifest will state under ``pending``; that key never
    travels.
    """

    name = "reference-state-protocol"

    def __init__(
        self,
        code_registry: Optional[AgentCodeRegistry] = None,
        trusted_hosts: Optional[Iterable[str]] = None,
        checker: Optional[Checker] = None,
        check_trusted_hosts: bool = False,
    ) -> None:
        self.code_registry = code_registry or default_registry
        self.trusted_hosts = frozenset(trusted_hosts or ())
        self.checker = checker or ReExecutionChecker()
        self.check_trusted_hosts = check_trusted_hosts

    # ------------------------------------------------------------------ hooks --

    def prepare_launch(self, agent: MobileAgent, itinerary: Itinerary,
                       home_host: Host) -> Dict[str, Any]:
        return {
            "mechanism": self.name,
            "version": _PROTOCOL_VERSION,
            "prev_session": None,
            "verdict_history": [],
            "pending": _pending(agent.capture_state(), None, None),
        }

    def after_session(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        record: SessionRecord,
        protocol_data: Optional[Dict[str, Any]],
    ) -> Dict[str, Any]:
        data = protocol_data or self.prepare_launch(agent, itinerary, host)
        pending = data.pop("pending")
        initial_state = pending["initial_state"]
        verdict = pending["verdict"]
        # The input log is encoded once; its digest goes into the
        # manifest and its bytes travel as they are.
        session_input = CanonicalSpan.of(record.input_log.to_canonical())
        manifest = host.sign_statement({
            "role": _MANIFEST_ROLE,
            "agent_id": record.agent_id,
            "hop_index": hop_index,
            "sender": pending["sender"],
            "verdict": verdict.to_canonical() if verdict is not None else None,
            "initial_digest": initial_state.digest().hex(),
            # The resulting state needs no transport of its own: it *is*
            # the agent state that migrates, and the next host hashes
            # what actually arrived.
            "resulting_digest": record.resulting_state.digest().hex(),
            "input_digest": hash_bytes(session_input.data).hex(),
        })
        data["verdict_history"].append(manifest)
        data["prev_session"] = {
            "host": host.name,
            "hop_index": hop_index,
            "agent_id": record.agent_id,
            "code_name": record.code_name,
            "owner": record.owner,
            # Splice points: the state's memoized encoding and the
            # input's bytes are encoded into the transfer as they are.
            "initial_state": initial_state,
            "input": session_input,
        }
        return data

    def on_arrival(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        protocol_data: Optional[Dict[str, Any]],
    ) -> Tuple[List[Verdict], Optional[Dict[str, Any]]]:
        observed_state = agent.capture_state()
        checked_host = itinerary.previous_host(hop_index)
        data = protocol_data if isinstance(protocol_data, dict) else None
        prev = data.get("prev_session") if data is not None else None
        history = data.get("verdict_history") if data is not None else None
        if not isinstance(history, list):
            history = None
        chained = False

        if prev is None:
            verdict = self._protocol_data_missing_verdict(
                host, checked_host, hop_index
            )
            if data is None:
                data = {"mechanism": self.name, "version": _PROTOCOL_VERSION}
        else:
            skip_reason = self._skip_reason(host, checked_host)
            if skip_reason is not None:
                verdict = Verdict(
                    status=VerdictStatus.SKIPPED,
                    mechanism=self.name,
                    moment=CheckMoment.AFTER_SESSION,
                    checking_host=host.name,
                    checked_host=checked_host,
                    hop_index=hop_index - 1,
                    results=[CheckResult(
                        checker="session-check",
                        status=VerdictStatus.SKIPPED,
                        details={"reason": skip_reason},
                    )],
                )
            else:
                verdict = self._check_previous_session(
                    host, self._session_payload(prev, history),
                    observed_state, checked_host,
                )
            # This host's manifest names the checked host as its sender
            # (so the next check demands the checked host's manifest)
            # only when that manifest is the last one received and this
            # check found nothing wrong with it.
            chained = (
                bool(history)
                and _signer_of(history[-1]) == checked_host
                and not any(result.is_attack and result.checker == _MANIFEST_ROLE
                            for result in verdict.results)
            )

        data["prev_session"] = None
        data["verdict_history"] = history if history is not None else []
        data["pending"] = _pending(
            observed_state, verdict, checked_host if chained else None
        )
        return [verdict], data

    def after_task(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        protocol_data: Optional[Dict[str, Any]],
    ) -> List[Verdict]:
        history = (protocol_data or {}).get("verdict_history")
        verdicts = []
        for entry in history if isinstance(history, list) else ():
            try:
                manifest = SignedStatement.from_canonical(entry).payload()
            except Exception:
                continue
            if isinstance(manifest, dict) and isinstance(
                    manifest.get("verdict"), dict):
                verdicts.append(manifest["verdict"])
        attacks = [
            verdict for verdict in verdicts
            if verdict.get("status") == VerdictStatus.ATTACK_DETECTED.value
        ]
        blamed = sorted({
            verdict["checked_host"] for verdict in attacks
            if isinstance(verdict.get("checked_host"), str)
        })
        summary = Verdict(
            status=(
                VerdictStatus.ATTACK_DETECTED if attacks else VerdictStatus.OK
            ),
            mechanism=self.name,
            moment=CheckMoment.AFTER_TASK,
            checking_host=host.name,
            checked_host=blamed[0] if blamed else None,
            results=[CheckResult(
                checker="journey-summary",
                status=(
                    VerdictStatus.ATTACK_DETECTED if attacks else VerdictStatus.OK
                ),
                details={
                    "session_verdicts": len(verdicts),
                    "attacks_detected": len(attacks),
                    "blamed_hosts": blamed,
                },
            )],
        )
        return [summary]

    # ------------------------------------------------------------ protocol steps --

    @staticmethod
    def _session_payload(prev: Any, history: Optional[List[Any]]) -> Any:
        """``prev`` joined with the two manifests that vouch for it.

        This is the payload :func:`check_session_payload` takes: the
        checked host's manifest is the newest in the history, its
        sender's the one before.
        """
        if not isinstance(prev, dict):
            return prev
        history = history or []
        return dict(
            prev,
            manifest=history[-1] if history else None,
            sender_manifest=history[-2] if len(history) > 1 else None,
        )

    def _skip_reason(self, checking_host: Host,
                     checked_host: Optional[str]) -> Optional[str]:
        """Return why the check is skipped, or ``None`` to check."""
        collaborates = getattr(checking_host, "collaborates_with", None)
        if callable(collaborates) and checked_host and collaborates(checked_host):
            return "checking host collaborates with the checked host"
        if self.check_trusted_hosts:
            return None
        if checked_host in self.trusted_hosts:
            return "checked host is trusted; trusted hosts are not checked"
        return None

    def _check_previous_session(
        self,
        host: Host,
        session: Any,
        observed_state: AgentState,
        checked_host: Optional[str],
    ) -> Verdict:
        """Verify the manifests and re-execute the previous session.

        ``session`` is the previous session's payload joined with its
        two manifests (see :meth:`_session_payload`).  A payload or
        field of the wrong type is an attack by the host that handed it
        over, never an error of the checker.
        """
        results: List[CheckResult] = []
        hop_index = session.get("hop_index") if isinstance(session, dict) else None
        claimed_host = (
            session.get("host") if isinstance(session, dict) else None
        )
        if type(hop_index) is not int or not isinstance(claimed_host, str):
            results.append(_attack(
                "session-metadata", "the session payload is malformed"
            ))
            return self._verdict(host, results, checked_host,
                                 hop_index if type(hop_index) is int else None)

        if checked_host is not None and claimed_host != checked_host:
            results.append(_attack(
                "session-metadata",
                "protocol data claims a different executing host",
                claimed_host=claimed_host,
                expected_host=checked_host,
            ))

        agent_id = session.get("agent_id")
        manifest = self._verify_manifest(
            host, session.get("manifest"), checked_host or claimed_host,
            agent_id, hop_index, _MANIFEST_ROLE, results,
        )
        initial_state: Optional[AgentState] = None
        input_log: Optional[InputLog] = None
        if manifest is not None:
            sender = manifest.get("sender")
            if sender is not None:
                sender_manifest = self._verify_manifest(
                    host, session.get("sender_manifest"), sender,
                    agent_id, hop_index - 1, "sender-manifest", results,
                )
                if (sender_manifest is not None
                        and sender_manifest["resulting_digest"]
                        != manifest["initial_digest"]):
                    results.append(_attack(
                        "initial-state-commitment",
                        "the sender and the checked host committed to "
                        "different initial states",
                    ))
            initial_state = self._pinned_initial_state(
                session.get("initial_state"), manifest, results
            )
            input_log = self._pinned_input(
                session.get("input"), manifest, results
            )
            # Consistency between what the host signed and what it
            # actually sent: the arriving agent state *is* the claimed
            # resulting state, so one digest comparison suffices.
            if manifest["resulting_digest"] != observed_state.digest().hex():
                results.append(_attack(
                    "arrival-consistency",
                    "the agent state that arrived differs from the state "
                    "the checked host signed",
                ))

        if not any(result.is_attack for result in results):
            reference = ReferenceDataSet(
                session_host=claimed_host,
                hop_index=hop_index,
                agent_id=agent_id,
                code_name=session.get("code_name", "unknown"),
                owner=session.get("owner", "unknown"),
                initial_state=initial_state,
                # The digest match above established that the observed
                # state is exactly the state the checked host committed
                # to, so it serves as the claimed resulting state.
                resulting_state=observed_state,
                input_log=input_log,
            )
            context = CheckContext(
                reference_data=reference,
                observed_state=observed_state,
                checked_host=checked_host or claimed_host,
                checking_host=host.name,
                hop_index=hop_index,
                keystore=host.keystore,
                code_registry=self.code_registry,
                metrics=host.metrics,
            )
            results.append(self.checker.check(context))

        return self._verdict(host, results, checked_host or claimed_host,
                             hop_index)

    def _verdict(self, host: Host, results: List[CheckResult],
                 checked_host: Optional[str],
                 hop_index: Optional[int]) -> Verdict:
        state_difference = None
        for result in results:
            if result.is_attack and "state_difference" in result.details:
                state_difference = result.details["state_difference"]
                break
        return Verdict.from_results(
            results,
            mechanism=self.name,
            moment=CheckMoment.AFTER_SESSION,
            checking_host=host.name,
            checked_host=checked_host,
            hop_index=hop_index,
            state_difference=state_difference,
        )

    # ------------------------------------------------------------ verification --

    def _verify_manifest(
        self,
        host: Host,
        entry: Any,
        signer: Optional[str],
        agent_id: Any,
        hop_index: int,
        checker: str,
        results: List[CheckResult],
    ) -> Optional[Dict[str, Any]]:
        """Verify one session manifest; return its payload or ``None``.

        The manifest must be well formed, state the expected session
        (agent and hop), and carry a valid signature by ``signer``.
        Anything else appends an attack result under ``checker``.
        """
        if entry is None:
            results.append(_attack(checker, "the %s is missing" % checker))
            return None
        try:
            statement = SignedStatement.from_canonical(entry)
            payload = statement.payload()
        except Exception:
            payload = None
        if (not isinstance(payload, dict)
                or payload.get("role") != _MANIFEST_ROLE
                or not all(isinstance(payload.get(key), str)
                           for key in _DIGESTS)
                or not isinstance(payload.get("sender"), (str, type(None)))):
            results.append(_attack(checker, "the %s is malformed" % checker))
            return None
        if (payload.get("agent_id") != agent_id
                or payload.get("hop_index") != hop_index):
            results.append(_attack(
                checker, "the %s states another session" % checker
            ))
            return None
        if not host.verify(statement, expected_signer=signer):
            results.append(_attack(
                checker, "the %s signature does not verify" % checker,
                claimed_signer=statement.signer,
            ))
            return None
        return payload

    @staticmethod
    def _pinned_initial_state(value: Any, manifest: Dict[str, Any],
                              results: List[CheckResult]
                              ) -> Optional[AgentState]:
        """The transported initial state, if it hashes to the signed digest."""
        try:
            state = AgentState.from_canonical(value)
            digest = state.digest().hex()
        except Exception:
            results.append(_attack(
                "initial-state-commitment",
                "the transported initial state is malformed",
            ))
            return None
        if digest != manifest["initial_digest"]:
            results.append(_attack(
                "initial-state-commitment",
                "the transported initial state does not hash to the "
                "digest the checked host signed",
            ))
            return None
        return state

    @staticmethod
    def _pinned_input(value: Any, manifest: Dict[str, Any],
                      results: List[CheckResult]) -> Optional[InputLog]:
        """The transported input log, if it hashes to the signed digest.

        A span is hashed as it came; a kept span's value is read, not
        decoded again.
        """
        try:
            span = CanonicalSpan.of(value)
            if hash_bytes(span.data).hex() != manifest["input_digest"]:
                results.append(_attack(
                    "session-input",
                    "the transported input log does not hash to the "
                    "digest the checked host signed",
                ))
                return None
            return InputLog.from_canonical(span.decoded())
        except Exception:
            results.append(_attack(
                "session-input", "the transported input log is malformed"
            ))
            return None

    # ------------------------------------------------------------------ misc --

    def _protocol_data_missing_verdict(self, host: Host,
                                       checked_host: Optional[str],
                                       hop_index: int) -> Verdict:
        result = CheckResult(
            checker="protocol-data",
            status=VerdictStatus.ATTACK_DETECTED,
            details={
                "reason": (
                    "the protocol payload that must accompany the agent is "
                    "missing; the previous host removed or never produced it"
                )
            },
        )
        return Verdict.from_results(
            [result],
            mechanism=self.name,
            moment=CheckMoment.AFTER_SESSION,
            checking_host=host.name,
            checked_host=checked_host,
            hop_index=hop_index - 1,
        )


def _pending(initial_state: AgentState, verdict: Optional[Verdict],
             sender: Optional[str]) -> Dict[str, Any]:
    """What a host's manifest will state, kept from arrival to departure."""
    return {"initial_state": initial_state, "verdict": verdict, "sender": sender}


# ---------------------------------------------------------------------------
# Detached session checking (the verification-service entry point)
# ---------------------------------------------------------------------------


class SessionVerifier:
    """A minimal checking principal that is not an agent platform.

    The paper's framework assumes verification may happen at *trusted
    parties* that many migrating agents contact; such a party verifies
    signatures and re-executes sessions but never hosts agents itself.
    This facade provides exactly the surface
    :meth:`ReferenceStateProtocol._check_previous_session` needs from a
    host — a name, a keystore, a metrics sink, and envelope
    verification — without the session machinery of
    :class:`~repro.platform.host.Host`.
    """

    def __init__(self, name: str, keystore: Any,
                 metrics: Optional[Any] = None) -> None:
        from repro.agents.context import NullMetrics

        self.name = name
        self.keystore = keystore
        self.metrics = metrics if metrics is not None else NullMetrics()

    def verify(self, envelope: Union[SignedEnvelope, SignedStatement],
               expected_signer: Optional[str] = None,
               category: str = "protocol_crypto",
               message: Optional[bytes] = None) -> bool:
        """Verify an envelope or statement (host-compatible)."""
        if expected_signer is not None and envelope.signer != expected_signer:
            return False
        with self.metrics.measure(category):
            return envelope.verify(self.keystore, message=message)


def check_session_payload(
    prev_session: Dict[str, Any],
    observed_state: Any,
    checked_host: Optional[str],
    *,
    checking_host: str,
    keystore: Any,
    code_registry: Optional[AgentCodeRegistry] = None,
    checker: Optional[Checker] = None,
    metrics: Optional[Any] = None,
) -> Verdict:
    """Check one protocol-v3 session payload outside a journey.

    This is the wire-facing twin of the in-journey check the next host
    performs on arrival.  ``prev_session`` is the previous session's
    payload joined with its two manifests, under ``manifest`` (the
    checked host's) and ``sender_manifest`` (its sender's, or ``None``),
    in canonical form exactly as they travel; the manifests' payloads,
    the initial state and the input may be
    :class:`~repro.crypto.canonical.CanonicalSpan` objects the decoder
    kept, whose bytes are then hashed and verified as received.  Given
    it, the observed agent state and the name of the checked host, the
    check verifies both manifests, re-executes the session, and returns
    the same
    :class:`~repro.core.verdict.Verdict` the in-process protocol would
    produce — bit for bit, because verdicts contain no wall-clock or
    transport-dependent data.  ``checking_host`` names the principal on
    whose behalf the check runs (it is stamped into the verdict), which
    lets a verification service answer for many checking hosts.
    """
    protocol = ReferenceStateProtocol(
        code_registry=code_registry, checker=checker
    )
    verifier = SessionVerifier(checking_host, keystore, metrics=metrics)
    if not isinstance(observed_state, AgentState):
        observed_state = AgentState.from_canonical(observed_state)
    return protocol._check_previous_session(
        verifier, prev_session, observed_state, checked_host
    )
