"""The checking framework (Section 5).

:class:`CheckingFramework` is the generic, policy-driven protection
mechanism of the paper: it collects the reference data the agent's
requester interfaces and the policy ask for, transports it inside the
agent, and invokes the checking callbacks / checkers at the configured
moments (after every session, after the task, or both).

The framework deliberately stays generic; the specific protocol the
paper uses for its measurements (per-session re-execution with
dual-committed initial states, Section 6) lives in
:mod:`repro.core.protocol` and can be seen as a hand-tuned instance of
what this class does from configuration.

An agent contributes application-level rules by defining
``protection_rules()``, or overrides ``check_after_session`` /
``check_after_task`` for a fully custom ("arbitrary program") check.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.agents.agent import AgentCodeRegistry, MobileAgent, default_registry
from repro.agents.itinerary import Itinerary
from repro.agents.state import AgentState
from repro.core.attributes import CheckMoment
from repro.core.callbacks import dispatch_check
from repro.core.checkers.base import CheckContext
from repro.core.checkers.proofs import build_proof
from repro.core.policy import ProtectionPolicy, session_reexecution_policy
from repro.core.reference_data import ReferenceDataSet
from repro.core.requesters import requested_data_kinds
from repro.core.verdict import CheckResult, Verdict, VerdictStatus
from repro.crypto.dsa import DSASignature
from repro.crypto.signing import SignedEnvelope
from repro.platform.host import Host
from repro.platform.registry import ProtectionMechanism
from repro.platform.session import SessionRecord

__all__ = ["CheckingFramework"]


class CheckingFramework(ProtectionMechanism):
    """Policy-driven protection mechanism implementing the framework.

    Parameters
    ----------
    policy:
        The protection policy (moments, data kinds, checkers).  Defaults
        to per-session re-execution.
    code_registry:
        Registry used by re-execution checkers.
    trusted_hosts:
        Names of hosts the owner trusts; sessions on these hosts are not
        checked when the policy says to skip trusted hosts.  Trust comes
        only from this configuration: when ``None``, no host is trusted
        (a ``trusted`` key planted in the unsigned payload is ignored).
    """

    def __init__(
        self,
        policy: Optional[ProtectionPolicy] = None,
        code_registry: Optional[AgentCodeRegistry] = None,
        trusted_hosts: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.policy = policy or session_reexecution_policy()
        self.code_registry = code_registry or default_registry
        self.trusted_hosts = frozenset(trusted_hosts or ())
        self.name = "framework:%s" % self.policy.name

    # -- ProtectionMechanism hooks ---------------------------------------------------

    def prepare_launch(self, agent: MobileAgent, itinerary: Itinerary,
                       home_host: Host) -> Dict[str, Any]:
        return {
            "mechanism": self.name,
            "policy": self.policy.describe(),
            "prev_session": None,
            "sessions": [],
            "verdicts": [],
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
        entry = self._collect_entry(host, agent, record)
        if self.policy.checks_after_session():
            data["prev_session"] = entry
        if self.policy.checks_after_task():
            data.setdefault("sessions", []).append(entry)
        return data

    def on_arrival(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        hop_index: int,
        protocol_data: Optional[Dict[str, Any]],
    ) -> Tuple[List[Verdict], Optional[Dict[str, Any]]]:
        if not self.policy.checks_after_session():
            return [], protocol_data

        checked_host = itinerary.previous_host(hop_index)
        observed_state = agent.capture_state()

        if protocol_data is None or protocol_data.get("prev_session") is None:
            verdict = self._missing_data_verdict(
                host, checked_host, hop_index - 1, CheckMoment.AFTER_SESSION
            )
            return [verdict], protocol_data

        entry = protocol_data["prev_session"]
        protocol_data["prev_session"] = None

        if self._should_skip(host, checked_host):
            verdict = Verdict(
                status=VerdictStatus.SKIPPED,
                mechanism=self.name,
                moment=CheckMoment.AFTER_SESSION,
                checking_host=host.name,
                checked_host=checked_host,
                hop_index=hop_index - 1,
            )
            protocol_data.setdefault("verdicts", []).append(verdict.to_canonical())
            return [verdict], protocol_data

        verdict = self._check_entry(
            host, agent, entry, observed_state,
            moment=CheckMoment.AFTER_SESSION,
            checked_host=checked_host,
            hop_index=hop_index - 1,
        )
        protocol_data.setdefault("verdicts", []).append(verdict.to_canonical())
        return [verdict], protocol_data

    def after_task(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        protocol_data: Optional[Dict[str, Any]],
    ) -> List[Verdict]:
        if not self.policy.checks_after_task():
            return []
        if protocol_data is None:
            return [
                self._missing_data_verdict(
                    host, None, None, CheckMoment.AFTER_TASK
                )
            ]

        entries = list(protocol_data.get("sessions", []))
        verdicts: List[Verdict] = []
        final_state = agent.capture_state()

        for position, entry in enumerate(entries):
            checked_host = entry.get("host")
            hop_index = entry.get("hop_index")
            if self._should_skip(host, checked_host):
                verdicts.append(
                    Verdict(
                        status=VerdictStatus.SKIPPED,
                        mechanism=self.name,
                        moment=CheckMoment.AFTER_TASK,
                        checking_host=host.name,
                        checked_host=checked_host,
                        hop_index=hop_index,
                    )
                )
                continue
            # The state "observed" for session i is the initial state the
            # *next* session started from; for the last session it is the
            # agent's final state.
            observed = self._observed_state_for(entries, position, final_state)
            verdicts.append(
                self._check_entry(
                    host, agent, entry, observed,
                    moment=CheckMoment.AFTER_TASK,
                    checked_host=checked_host,
                    hop_index=hop_index,
                )
            )
        return verdicts

    # -- internal helpers ----------------------------------------------------------

    def _collect_entry(self, host: Host, agent: MobileAgent,
                       record: SessionRecord) -> Dict[str, Any]:
        kinds = set(self.policy.required_data_kinds())
        kinds.update(requested_data_kinds(agent))
        reference = ReferenceDataSet.from_session_record(record, kinds)
        entry: Dict[str, Any] = {
            "host": host.name,
            "hop_index": record.hop_index,
            "reference": reference.to_canonical(),
        }
        if self.policy.attach_proofs and record.execution_log is not None:
            entry["proof"] = build_proof(
                record.initial_state, record.resulting_state, record.execution_log
            ).to_canonical()
        if self.policy.sign_reference_data:
            envelope = host.sign(entry["reference"])
            entry["signature"] = {
                "signer": envelope.signer,
                "signature": envelope.signature.to_canonical(),
            }
        return entry

    def _should_skip(self, checking_host: Host,
                     checked_host: Optional[str]) -> bool:
        if checked_host is None:
            return False
        collaborates = getattr(checking_host, "collaborates_with", None)
        if callable(collaborates) and collaborates(checked_host):
            return True
        return (self.policy.skip_trusted_hosts
                and checked_host in self.trusted_hosts)

    def _verify_entry_signature(self, host: Host, entry: Dict[str, Any],
                                checked_host: Optional[str]) -> Optional[CheckResult]:
        if not self.policy.sign_reference_data:
            return None
        signature_info = entry.get("signature")
        if not signature_info:
            return CheckResult(
                checker="reference-data-signature",
                status=VerdictStatus.ATTACK_DETECTED,
                details={"reason": "reference data is not signed"},
            )
        envelope = SignedEnvelope(
            payload=entry.get("reference"),
            signer=signature_info.get("signer"),
            signature=DSASignature.from_canonical(signature_info.get("signature")),
        )
        expected_signer = checked_host or signature_info.get("signer")
        if not host.verify(envelope, expected_signer=expected_signer):
            return CheckResult(
                checker="reference-data-signature",
                status=VerdictStatus.ATTACK_DETECTED,
                details={"reason": "reference data signature does not verify"},
            )
        return None

    def _check_entry(
        self,
        host: Host,
        agent: MobileAgent,
        entry: Dict[str, Any],
        observed_state: Optional[AgentState],
        moment: CheckMoment,
        checked_host: Optional[str],
        hop_index: Optional[int],
    ) -> Verdict:
        results: List[CheckResult] = []
        signature_failure = self._verify_entry_signature(host, entry, checked_host)
        if signature_failure is not None:
            results.append(signature_failure)

        try:
            reference = ReferenceDataSet.from_canonical(entry.get("reference") or {})
        except Exception as exc:  # malformed payload is itself suspicious
            results.append(
                CheckResult(
                    checker="reference-data",
                    status=VerdictStatus.ATTACK_DETECTED,
                    details={"reason": "malformed reference data: %s" % exc},
                )
            )
            return Verdict.from_results(
                results, self.name, moment, host.name, checked_host, hop_index
            )

        context = CheckContext(
            reference_data=reference,
            observed_state=observed_state,
            checked_host=checked_host or reference.session_host,
            checking_host=host.name,
            hop_index=hop_index if hop_index is not None else reference.hop_index,
            keystore=host.keystore,
            code_registry=self.code_registry,
            metrics=host.metrics,
            extras={"proof": entry.get("proof")} if entry.get("proof") else {},
        )

        checkers = list(self.policy.checkers)
        rules = getattr(agent, "protection_rules", None)
        if callable(rules):
            extra_rules = list(rules())
            if extra_rules:
                from repro.core.checkers.rules import RuleChecker

                checkers.append(RuleChecker(extra_rules, name="agent-rules"))

        results.extend(dispatch_check(agent, moment, context, checkers))

        state_difference = None
        for result in results:
            if result.is_attack and "state_difference" in result.details:
                state_difference = result.details["state_difference"]
                break

        return Verdict.from_results(
            results,
            mechanism=self.name,
            moment=moment,
            checking_host=host.name,
            checked_host=checked_host,
            hop_index=hop_index,
            state_difference=state_difference,
        )

    def _missing_data_verdict(self, host: Host, checked_host: Optional[str],
                              hop_index: Optional[int],
                              moment: CheckMoment) -> Verdict:
        result = CheckResult(
            checker="protocol-data",
            status=VerdictStatus.ATTACK_DETECTED,
            details={
                "reason": (
                    "the protection payload that should accompany the agent "
                    "is missing; the previous host removed or never produced it"
                )
            },
        )
        return Verdict.from_results(
            [result], self.name, moment, host.name, checked_host, hop_index
        )

    @staticmethod
    def _observed_state_for(entries: List[Dict[str, Any]], position: int,
                            final_state: AgentState) -> Optional[AgentState]:
        if position + 1 < len(entries):
            next_reference = entries[position + 1].get("reference") or {}
            initial = next_reference.get("initial_state")
            if initial is not None:
                try:
                    return AgentState.from_canonical(initial)
                except Exception:
                    return None
            return None
        return final_state
