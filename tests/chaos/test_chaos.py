"""The chaos module itself: plans, validation, and injury primitives.

Fast unit tests only — no worker processes die here.  The end-to-end
survival properties (a SIGKILLed worker's run stays byte-identical)
live in ``tests/sim/test_supervision.py``; this file pins down the
deterministic *description* of the injuries: same seed, same plan,
on every machine.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    BACKEND_SIGKILL,
    CHANNEL_TRUNCATION,
    FAULT_KINDS,
    LETHAL_FAULT_KINDS,
    SLOW_FRAME,
    WORKER_CRASH,
    WORKER_FAULT_KINDS,
    WORKER_STALL,
    Fault,
    FaultInjector,
    FaultPlan,
)
from repro.exceptions import ConfigurationError


class TestFaultValidation:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigurationError):
            Fault(kind="meteor-strike", worker=0).validate()

    def test_worker_faults_must_name_a_worker(self):
        for kind in WORKER_FAULT_KINDS:
            with pytest.raises(ConfigurationError):
                Fault(kind=kind).validate()
            Fault(kind=kind, worker=0).validate()

    def test_negative_positions_are_rejected(self):
        with pytest.raises(ConfigurationError):
            Fault(kind=WORKER_CRASH, worker=0, at_unit=-1).validate()
        with pytest.raises(ConfigurationError):
            Fault(kind=WORKER_STALL, worker=0, seconds=-0.1).validate()

    def test_table_cache_corruption_is_not_a_fault_kind(self):
        assert "table-cache-corruption" not in FAULT_KINDS
        with pytest.raises(ConfigurationError):
            FaultPlan(faults=(
                Fault(kind="table-cache-corruption"),
            )).validate()

    def test_lethality_classification(self):
        assert set(LETHAL_FAULT_KINDS) <= set(FAULT_KINDS)
        assert WORKER_CRASH in LETHAL_FAULT_KINDS
        assert CHANNEL_TRUNCATION in LETHAL_FAULT_KINDS
        assert WORKER_STALL not in LETHAL_FAULT_KINDS
        assert SLOW_FRAME not in LETHAL_FAULT_KINDS

    def test_describe_carries_only_the_relevant_knobs(self):
        entry = Fault(kind=WORKER_STALL, worker=1, at_unit=2,
                      seconds=0.25).describe()
        assert entry == {
            "kind": WORKER_STALL, "worker": 1, "at_unit": 2,
            "seconds": 0.25,
        }
        entry = Fault(kind=BACKEND_SIGKILL, backend=2,
                      seconds=0.5).describe()
        assert entry["backend"] == 2 and entry["seconds"] == 0.5
        assert "worker" not in entry


class TestFaultPlan:
    def test_generation_is_deterministic(self):
        first = FaultPlan.generate(2028, workers=4, count=3)
        second = FaultPlan.generate(2028, workers=4, count=3)
        assert first == second
        assert first.seed == 2028
        assert len(first.faults) == 3
        first.validate()

    def test_different_seeds_place_different_injuries(self):
        plans = {
            FaultPlan.generate(seed, workers=4, count=2).faults
            for seed in range(12)
        }
        assert len(plans) > 1

    def test_generated_faults_stay_inside_the_pool(self):
        plan = FaultPlan.generate(7, workers=3, units_per_worker=4,
                                  count=8)
        for fault in plan.faults:
            assert fault.kind in LETHAL_FAULT_KINDS
            assert 0 <= fault.worker < 3
            assert 0 <= fault.at_unit < 4

    def test_generate_rejects_non_worker_kinds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.generate(7, workers=2, kinds=(BACKEND_SIGKILL,))

    def test_for_worker_partitions_the_plan(self):
        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=0, at_unit=1),
            Fault(kind=WORKER_STALL, worker=1, seconds=0.1),
            Fault(kind=BACKEND_SIGKILL, backend=0),
        ))
        assert [f.kind for f in plan.for_worker(0)] == [WORKER_CRASH]
        assert [f.kind for f in plan.for_worker(1)] == [WORKER_STALL]
        assert plan.for_worker(2) == ()


class TestFaultInjector:
    def test_faults_fire_on_the_nth_lease_only(self):
        crash = Fault(kind=WORKER_CRASH, worker=0, at_unit=2)
        injector = FaultInjector((crash,))
        assert injector.fault_for_unit(0) is None
        assert injector.fault_for_unit(1) is None
        assert injector.fault_for_unit(2) is crash
        assert injector.fault_for_unit(3) is None

