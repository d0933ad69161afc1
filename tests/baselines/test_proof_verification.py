"""Tests for the proof-verification baseline (Section 3.4)."""

from __future__ import annotations


from repro.attacks.injector import InitialStateTamperInjector, ReadAttackInjector
from repro.baselines.proof_verification import ProofVerificationMechanism
from repro.core.verdict import VerdictStatus
from repro.workloads.generators import build_shopping_scenario


def _run(mechanism=None, **scenario_kwargs):
    scenario, agent = build_shopping_scenario(**scenario_kwargs)
    mechanism = mechanism or ProofVerificationMechanism()
    result = scenario.system.launch(agent, scenario.itinerary,
                                    protection=mechanism)
    return scenario, mechanism, result


class TestProofCollection:
    def test_every_session_contributes_a_proof_package(self):
        _, _, result = _run(num_shops=2)
        packages = result.final_protocol_data["proof_packages"]
        assert len(packages) == 4
        assert all("proof" in p and "execution_log" in p for p in packages)

    def test_packages_are_signed_by_their_hosts(self):
        _, _, result = _run(num_shops=2)
        packages = result.final_protocol_data["proof_packages"]
        assert all(p["envelope"]["signer"] == p["host"] for p in packages)

    def test_packages_carry_no_trust_flag(self):
        # Trust comes from the verifier's own configuration; a flag the
        # session host writes into its package is unsigned and unread.
        scenario, _, result = _run(num_shops=2)
        packages = result.final_protocol_data["proof_packages"]
        assert any(scenario.host(p["host"]).trusted for p in packages)
        assert all("trusted" not in p for p in packages)


class TestVerification:
    def test_honest_journey_verifies_clean(self):
        _, _, result = _run(num_shops=3)
        assert not result.detected_attack()
        task_verdicts = [v for v in result.verdicts
                         if v.moment.value == "after-task"]
        assert task_verdicts and all(
            v.status is VerdictStatus.OK for v in task_verdicts
        )

    def test_initial_state_tampering_breaks_the_state_chain(self):
        _, _, result = _run(
            num_shops=3, malicious_shop=2,
            injectors=[InitialStateTamperInjector("budget", 1.0)],
        )
        assert result.detected_attack()
        assert result.blamed_hosts() == ("shop-2",)

    def test_read_attacks_are_invisible(self):
        _, _, result = _run(
            num_shops=3, malicious_shop=2,
            injectors=[ReadAttackInjector()],
        )
        assert not result.detected_attack()

    def test_verification_can_be_deferred(self):
        scenario, mechanism, result = _run(
            mechanism=ProofVerificationMechanism(verify_at_task_end=False),
            num_shops=2,
        )
        assert result.verdicts == []
        verdicts = mechanism.verify_proofs(
            scenario.host("home"), result.agent, result.final_protocol_data,
        )
        assert verdicts and all(not v.is_attack for v in verdicts)

    def test_package_tampering_after_commitment_is_detected(self):
        scenario, mechanism, result = _run(
            mechanism=ProofVerificationMechanism(verify_at_task_end=False),
            num_shops=2,
        )
        payload = result.final_protocol_data
        # The owner receives a payload in which someone edited a committed
        # resulting state after the fact; the signature no longer matches the
        # proof binding.
        payload["proof_packages"][1]["resulting_state"]["data"]["cheapest_total"] = 0.5
        verdicts = mechanism.verify_proofs(
            scenario.host("home"), result.agent, payload,
        )
        assert any(v.is_attack for v in verdicts)

    def test_unsigned_package_is_rejected(self):
        scenario, mechanism, result = _run(
            mechanism=ProofVerificationMechanism(verify_at_task_end=False),
            num_shops=2,
        )
        payload = result.final_protocol_data
        payload["proof_packages"][1]["envelope"] = {}
        verdicts = mechanism.verify_proofs(
            scenario.host("home"), result.agent, payload,
        )
        assert any(v.is_attack for v in verdicts)
