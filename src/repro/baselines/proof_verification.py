"""Proof verification (Yee; Biehl, Meyer, Wetzel — Section 3.4).

"Here, all proofs are sent to the agent originator, which checks the
proofs after the agent finishes with its task."  Every host attaches a
(short) proof of its execution to the agent; the originator verifies all
of them at task end, which is cheaper than re-executing the journey.

The proofs themselves are the simulated holographic proofs of
:mod:`repro.core.checkers.proofs` — see that module's docstring for the
documented substitution (real PCP constructions are NP-hard to build,
which is exactly why the paper sets the approach aside).

Unlike the traces baseline the execution log travels with the agent (it
is part of the "proof package"), so the originator needs no cooperation
from the hosts at verification time; the price is a larger agent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.agents.agent import MobileAgent
from repro.agents.execution_log import ExecutionLog
from repro.agents.itinerary import Itinerary
from repro.agents.state import AgentState
from repro.core.attributes import CheckMoment
from repro.core.checkers.base import CheckContext
from repro.core.checkers.proofs import ProofChecker, build_proof
from repro.core.reference_data import ReferenceDataSet
from repro.core.verdict import CheckResult, Verdict, VerdictStatus
from repro.crypto.dsa import DSASignature
from repro.crypto.signing import SignedEnvelope
from repro.platform.host import Host
from repro.platform.registry import ProtectionMechanism
from repro.platform.session import SessionRecord

__all__ = ["ProofVerificationMechanism"]


class ProofVerificationMechanism(ProtectionMechanism):
    """Per-session proofs collected for the originator to verify at task end.

    Parameters
    ----------
    segments:
        Number of trace segments each proof commits to.
    verify_at_task_end:
        Whether the final host (normally the originator's home host)
        verifies the collected proofs in ``after_task``.  Verification
        can also be invoked manually through :meth:`verify_proofs`.
    """

    name = "proof-verification"

    def __init__(self, segments: int = 8, verify_at_task_end: bool = True) -> None:
        self.segments = segments
        self.verify_at_task_end = verify_at_task_end
        self._checker = ProofChecker()

    # -- journey-time hooks -------------------------------------------------------

    def prepare_launch(self, agent: MobileAgent, itinerary: Itinerary,
                       home_host: Host) -> Dict[str, Any]:
        return {"mechanism": self.name, "proof_packages": []}

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
        proof = build_proof(
            record.initial_state,
            record.resulting_state,
            record.execution_log,
            segments=self.segments,
        )
        envelope = host.sign({
            "role": "proof-package",
            "agent_id": record.agent_id,
            "hop_index": hop_index,
            "proof": proof.to_canonical(),
            "resulting_state_digest": record.resulting_state.digest().hex(),
        })
        package = {
            "host": host.name,
            "hop_index": hop_index,
            "code_name": record.code_name,
            "owner": record.owner,
            "agent_id": record.agent_id,
            "proof": proof.to_canonical(),
            "execution_log": record.execution_log.to_canonical(),
            "initial_state": record.initial_state.to_canonical(),
            "resulting_state": record.resulting_state.to_canonical(),
            "envelope": envelope.to_canonical(),
        }
        data.setdefault("proof_packages", []).append(package)
        return data

    def after_task(
        self,
        host: Host,
        agent: MobileAgent,
        itinerary: Itinerary,
        protocol_data: Optional[Dict[str, Any]],
    ) -> List[Verdict]:
        if not self.verify_at_task_end:
            return []
        return self.verify_proofs(host, agent, protocol_data or {})

    # -- originator-side verification ----------------------------------------------------

    def verify_proofs(self, verifier_host: Host, agent: MobileAgent,
                      protocol_data: Dict[str, Any]) -> List[Verdict]:
        """Verify every collected proof package and return the verdicts."""
        packages = protocol_data.get("proof_packages", [])
        verdicts: List[Verdict] = []
        final_state = agent.capture_state()

        for position, package in enumerate(packages):
            results: List[CheckResult] = []
            self._verify_envelope(verifier_host, package, results)

            try:
                reference = ReferenceDataSet(
                    session_host=package["host"],
                    hop_index=int(package["hop_index"]),
                    agent_id=package["agent_id"],
                    code_name=package["code_name"],
                    owner=package["owner"],
                    initial_state=AgentState.from_canonical(package["initial_state"]),
                    resulting_state=AgentState.from_canonical(
                        package["resulting_state"]
                    ),
                    execution_log=ExecutionLog.from_canonical(
                        package["execution_log"]
                    ),
                )
            except Exception:
                results.append(CheckResult(
                    checker="proof-package",
                    status=VerdictStatus.ATTACK_DETECTED,
                    details={"reason": "malformed proof package"},
                ))
                verdicts.append(self._verdict(verifier_host, package, results))
                continue

            # Chain consistency: each session must start from the state the
            # previous session ended with.  A host that tampers with the
            # agent *before* executing it breaks this link.
            if position > 0:
                previous_resulting = packages[position - 1].get("resulting_state")
                if previous_resulting is not None and reference.initial_state is not None:
                    try:
                        previous_state = AgentState.from_canonical(previous_resulting)
                    except Exception:
                        previous_state = None
                    if (previous_state is not None
                            and not previous_state.equals(reference.initial_state)):
                        results.append(CheckResult(
                            checker="state-chain",
                            status=VerdictStatus.ATTACK_DETECTED,
                            details={"reason": (
                                "session did not start from the previous "
                                "session's resulting state"
                            )},
                        ))

            observed = self._observed_state(packages, position, final_state)
            context = CheckContext(
                reference_data=reference,
                observed_state=observed,
                checked_host=package["host"],
                checking_host=verifier_host.name,
                hop_index=int(package["hop_index"]),
                keystore=verifier_host.keystore,
                metrics=verifier_host.metrics,
                extras={"proof": package["proof"]},
            )
            results.append(self._checker.check(context))
            verdicts.append(self._verdict(verifier_host, package, results))
        return verdicts

    # -- internals -----------------------------------------------------------------

    def _verify_envelope(self, verifier_host: Host, package: Dict[str, Any],
                         results: List[CheckResult]) -> None:
        envelope_data = package.get("envelope") or {}
        try:
            envelope = SignedEnvelope(
                payload=envelope_data["payload"],
                signer=envelope_data["signer"],
                signature=DSASignature.from_canonical(envelope_data["signature"]),
            )
        except Exception:
            results.append(CheckResult(
                checker="proof-signature",
                status=VerdictStatus.ATTACK_DETECTED,
                details={"reason": "proof package is not properly signed"},
            ))
            return
        if not verifier_host.verify(envelope, expected_signer=package.get("host")):
            results.append(CheckResult(
                checker="proof-signature",
                status=VerdictStatus.ATTACK_DETECTED,
                details={"reason": "proof package signature does not verify"},
            ))

    def _verdict(self, verifier_host: Host, package: Dict[str, Any],
                 results: List[CheckResult]) -> Verdict:
        return Verdict.from_results(
            results,
            mechanism=self.name,
            moment=CheckMoment.AFTER_TASK,
            checking_host=verifier_host.name,
            checked_host=package.get("host"),
            hop_index=package.get("hop_index"),
        )

    @staticmethod
    def _observed_state(packages: List[Dict[str, Any]], position: int,
                        final_state: AgentState) -> Optional[AgentState]:
        # For intermediate packages the proof is only checked against the
        # state the host itself committed to (binding against the *next*
        # host's initial state would mis-blame the earlier host when the
        # next host tampered before executing — the chain check covers
        # that case and blames the right side).  The last package is
        # additionally bound to the state the agent actually came home
        # with.
        if position + 1 < len(packages):
            return None
        return final_state
