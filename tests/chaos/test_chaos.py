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
    TABLE_CACHE_CORRUPTION,
    WORKER_CRASH,
    WORKER_FAULT_KINDS,
    WORKER_STALL,
    Fault,
    FaultInjector,
    FaultPlan,
    corrupt_table_cache,
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

    def test_lethality_classification(self):
        assert set(LETHAL_FAULT_KINDS) <= set(FAULT_KINDS)
        assert Fault(kind=WORKER_CRASH, worker=0).lethal
        assert Fault(kind=CHANNEL_TRUNCATION, worker=0).lethal
        assert not Fault(kind=WORKER_STALL, worker=0).lethal
        assert not Fault(kind=SLOW_FRAME, worker=0).lethal

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
            FaultPlan.generate(7, workers=2, kinds=(TABLE_CACHE_CORRUPTION,))

    def test_for_worker_partitions_the_plan(self):
        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=0, at_unit=1),
            Fault(kind=WORKER_STALL, worker=1, seconds=0.1),
            Fault(kind=BACKEND_SIGKILL, backend=0),
        ))
        assert [f.kind for f in plan.for_worker(0)] == [WORKER_CRASH]
        assert [f.kind for f in plan.for_worker(1)] == [WORKER_STALL]
        assert plan.for_worker(2) == ()
        assert len(plan.worker_faults()) == 2
        assert len(plan.backend_faults()) == 1

    def test_without_worker_strips_only_that_workers_injuries(self):
        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=0),
            Fault(kind=WORKER_CRASH, worker=1),
        ))
        stripped = plan.without_worker(0)
        assert stripped.for_worker(0) == ()
        assert len(stripped.for_worker(1)) == 1


class TestFaultInjector:
    def test_faults_fire_on_the_nth_lease_only(self):
        crash = Fault(kind=WORKER_CRASH, worker=0, at_unit=2)
        injector = FaultInjector((crash,))
        assert injector.fault_for_unit(0) is None
        assert injector.fault_for_unit(1) is None
        assert injector.fault_for_unit(2) is crash
        assert injector.fault_for_unit(3) is None


class TestTableCacheCorruption:
    def test_every_entry_is_scribbled_deterministically(self, tmp_path):
        for name in ("one.tbl", "two.tbl"):
            (tmp_path / name).write_bytes(b"legitimate table data")
        assert corrupt_table_cache(str(tmp_path), seed=3) == 2
        first = {(p.name, p.read_bytes()) for p in tmp_path.iterdir()}
        corrupt_table_cache(str(tmp_path), seed=3)
        second = {(p.name, p.read_bytes()) for p in tmp_path.iterdir()}
        assert first == second
        for _, payload in first:
            assert payload.startswith(b"\x00chaos\x00")

    def test_missing_directory_corrupts_nothing(self, tmp_path):
        assert corrupt_table_cache(str(tmp_path / "absent")) == 0

    def test_cache_layer_recovers_from_corruption(self, tmp_path):
        """The injury the fault exists to prove survivable: corrupted
        entries read back as misses and a re-store round-trips."""
        from repro.crypto.tablecache import TableCache

        cache = TableCache(tmp_path)
        key = TableCache.entry_key(2, 23, 4, 8, "test")
        columns = [[1, 2, 3], [4, 5, 6]]
        assert cache.store(key, columns)
        assert cache.load(key) == columns
        assert corrupt_table_cache(str(tmp_path)) >= 1
        fresh = TableCache(tmp_path)
        assert fresh.load(key) is None
        assert fresh.store(key, columns)
        assert fresh.load(key) == columns
