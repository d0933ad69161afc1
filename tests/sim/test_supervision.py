"""Supervised pool survival: chaos may cost wall time, never bits.

Property under test, end to end: a fleet run whose workers are
SIGKILLed mid-run by a seeded ``FaultPlan`` produces the *same
deterministic signature and the same merged trace bytes* as the
fault-free single-process run — across both recovery paths (respawn
a replacement worker; budget exhausted, coordinator degrades and
finishes the queue itself).  A unit's trace events travel in its
result frame, so no chaotic run leaves anything but the trace file on
disk.
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import (
    CHANNEL_TRUNCATION,
    SLOW_FRAME,
    WORKER_CRASH,
    WORKER_STALL,
    Fault,
    FaultPlan,
)
from repro.sim import FleetConfig, FleetEngine, run_fleet
from repro.sim.shard import FleetWorkerPool


def _config(**overrides):
    defaults = dict(
        num_agents=24,
        num_hosts=8,
        hops_per_journey=2,
        malicious_host_fraction=0.25,
        seed=11,
        batched_verification=True,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


@pytest.fixture(autouse=True)
def _restore_crypto_globals():
    """Coordinator-side warmup pins the process-wide backend and table
    cache; keep those selections from leaking across tests."""
    import repro.crypto.backend as backend_mod
    import repro.crypto.tablecache as tablecache_mod

    previous_backend = backend_mod._active
    previous_cache = tablecache_mod._cache
    previous_configured = tablecache_mod._configured
    yield
    backend_mod._active = previous_backend
    tablecache_mod._cache = previous_cache
    tablecache_mod._configured = previous_configured


@pytest.fixture(scope="class")
def reference(tmp_path_factory):
    """Fault-free single-process run: the bytes every chaotic
    execution below must reproduce exactly."""
    path = str(tmp_path_factory.mktemp("reference") / "fleet.jsonl")
    result = FleetEngine(_config(trace_path=path)).run()
    with open(path, "rb") as handle:
        return result.deterministic_signature(), handle.read()


#: Seconds an untargeted worker waits before its first queue pull.
#: Work stealing is schedule-dependent: a sibling that warms up first
#: can drain the whole queue before the targeted worker leases the unit
#: its fault is aimed at, and then nothing crashes.  Holding the
#: siblings back hands the targeted worker the leases it needs.
_SIBLING_STALL = 2.0


def _pool(config, plan, respawn_budget=None):
    """A 2-worker pool in which every fault of ``plan`` fires.

    When the plan targets only some workers, the others stall (the
    pool's ``stall_seconds`` hook) until the targeted worker has leased
    its faulted unit.  Plans aimed at every worker need no stall: each
    dies on its first lease while the queue still holds units.
    """
    targeted = {fault.worker for fault in plan.faults}
    stalls = {worker: _SIBLING_STALL
              for worker in range(2) if worker not in targeted}
    return FleetWorkerPool(2, warm_config=config, fault_plan=plan,
                           respawn_budget=respawn_budget,
                           stall_seconds=stalls)


def _chaotic_run(tmp_path, plan, respawn_budget=None):
    path = str(tmp_path / "chaotic.jsonl")
    config = _config(trace_path=path)
    with _pool(config, plan, respawn_budget) as pool:
        result = run_fleet(config, workers=2, pool=pool)
        supervision = pool.supervision_report()
    with open(path, "rb") as handle:
        trace = handle.read()
    # Nothing but the trace: no per-worker file, repaired or not.
    assert os.listdir(str(tmp_path)) == ["chaotic.jsonl"]
    return result, trace, supervision


class TestCrashRecoveryBitIdentity:
    def test_sigkilled_worker_is_respawned_and_bits_survive(
        self, tmp_path, reference
    ):
        signature, trace = reference
        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=0, at_unit=0),
        ))
        result, chaotic_trace, supervision = _chaotic_run(tmp_path, plan)
        assert result.deterministic_signature() == signature
        assert chaotic_trace == trace
        assert len(supervision["crashes"]) == 1
        crash = supervision["crashes"][0]
        assert crash["worker"] == 0
        assert crash["requeued"]
        assert crash["respawned"]
        assert supervision["respawns"] == 1
        assert supervision["degraded_units"] == 0

    def test_channel_truncation_is_survived(self, tmp_path, reference):
        signature, trace = reference
        plan = FaultPlan(faults=(
            Fault(kind=CHANNEL_TRUNCATION, worker=0, at_unit=1),
        ))
        result, chaotic_trace, supervision = _chaotic_run(tmp_path, plan)
        assert result.deterministic_signature() == signature
        assert chaotic_trace == trace
        assert len(supervision["crashes"]) == 1

    @pytest.mark.parametrize("kind", [WORKER_STALL, SLOW_FRAME])
    def test_non_lethal_faults_cost_no_bits(self, tmp_path, reference, kind):
        signature, trace = reference
        plan = FaultPlan(faults=(
            Fault(kind=kind, worker=0, at_unit=0, seconds=0.05),
        ))
        result, chaotic_trace, supervision = _chaotic_run(tmp_path, plan)
        assert result.deterministic_signature() == signature
        assert chaotic_trace == trace
        assert supervision["crashes"] == []

    def test_generated_plans_are_survivable(self, tmp_path, reference):
        """Property over seeds: whatever injuries ``generate`` deals,
        the bits survive."""
        signature, trace = reference
        for seed in (1, 5):
            workdir = tmp_path / ("seed-%d" % seed)
            workdir.mkdir()
            plan = FaultPlan.generate(seed, workers=2, count=2)
            result, chaotic_trace, supervision = _chaotic_run(
                workdir, plan
            )
            assert result.deterministic_signature() == signature
            assert chaotic_trace == trace
            # Stacked faults on one worker/unit kill it only once, so
            # crashes ∈ [1, faults]; the bits above are the property.
            assert 1 <= len(supervision["crashes"]) <= len(plan.faults)


class TestDegradedPath:
    def test_budget_zero_degrades_to_coordinator_execution(
        self, tmp_path, reference
    ):
        """Kill every worker with no respawn budget: the coordinator
        finishes the queue itself and the bits still survive."""
        signature, trace = reference
        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=0, at_unit=0),
            Fault(kind=WORKER_CRASH, worker=1, at_unit=0),
        ))
        result, chaotic_trace, supervision = _chaotic_run(
            tmp_path, plan, respawn_budget=0
        )
        assert result.deterministic_signature() == signature
        assert chaotic_trace == trace
        assert len(supervision["crashes"]) == 2
        assert supervision["respawns"] == 0
        assert supervision["degraded_units"] > 0
        assert all(not crash["respawned"]
                   for crash in supervision["crashes"])

    def test_exhausted_budget_falls_back_after_respawns(
        self, tmp_path, reference
    ):
        """Budget 1 absorbs the first death; the second exhausts it and
        the run still completes identically."""
        signature, trace = reference
        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=0, at_unit=0),
            Fault(kind=WORKER_CRASH, worker=1, at_unit=0),
        ))
        result, chaotic_trace, supervision = _chaotic_run(
            tmp_path, plan, respawn_budget=1
        )
        assert result.deterministic_signature() == signature
        assert chaotic_trace == trace
        assert supervision["respawns"] == 1


class TestSupervisionPlumbing:
    def test_report_reaches_the_fleet_result(self, tmp_path):
        config = _config()
        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=0, at_unit=0),
        ))
        with _pool(config, plan) as pool:
            result = run_fleet(config, workers=2, pool=pool)
        supervision = result.worker_report["supervision"]
        assert supervision["respawn_budget"] == 2
        assert len(supervision["crashes"]) == 1

    def test_close_after_deaths_does_not_hang(self):
        config = _config()
        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=0, at_unit=0),
            Fault(kind=WORKER_CRASH, worker=1, at_unit=0),
        ))
        pool = FleetWorkerPool(2, warm_config=config, fault_plan=plan,
                               respawn_budget=0)
        try:
            run_fleet(config, workers=2, pool=pool)
        finally:
            pool.close()

    def test_negative_budget_is_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            FleetWorkerPool(2, respawn_budget=-1)
