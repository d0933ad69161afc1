"""Persistent worker pools: warm start, reuse, and bit-identity."""

from __future__ import annotations

import pytest

from repro.crypto.dsa import PARAMETERS_512
from repro.crypto.keys import Identity
from repro.exceptions import ConfigurationError
from repro.sim.fleet import FleetConfig, fleet_host_names
from repro.sim.shard import FleetWorkerPool, run_fleet, warm_worker


CONFIG = FleetConfig(
    num_agents=12,
    num_hosts=6,
    hops_per_journey=2,
    malicious_host_fraction=0.34,
    seed=77,
)


@pytest.fixture(autouse=True)
def _restore_crypto_globals():
    """Coordinator-side warmup pins the process-wide backend; keep that
    selection from leaking across tests."""
    import repro.crypto.backend as backend_mod

    previous_backend = backend_mod._active
    yield
    backend_mod._active = previous_backend


def test_fleet_host_names_matches_topology():
    names = fleet_host_names(CONFIG)
    assert names[0] == "home"
    assert len(names) == CONFIG.num_hosts + 1
    assert names[1] == "host-001" and names[-1] == "host-%03d" % CONFIG.num_hosts


def test_warm_worker_builds_identities_and_tables():
    names = fleet_host_names(CONFIG)
    warm_worker(names)
    assert "_g_table" in PARAMETERS_512.__dict__
    for name in names:
        identity = Identity.generate(name)
        assert "_y_table" in identity.public_key.__dict__


def test_warm_worker_pins_backend():
    import repro.crypto.backend as backend_mod
    from repro.sim.shard import _WARM_STATE

    warm_worker(fleet_host_names(CONFIG), "python")
    assert backend_mod.get_backend().name == "python"
    assert _WARM_STATE["backend"] == "python"
    assert _WARM_STATE["hosts_warmed"] == CONFIG.num_hosts + 1
    assert _WARM_STATE["warmup_seconds"] > 0


def test_warm_state_records_only_the_in_process_warmup():
    from repro.sim.shard import _WARM_STATE

    warm_worker(fleet_host_names(CONFIG), "python")
    assert set(_WARM_STATE) == {
        "pid", "backend", "hosts_warmed", "warmup_seconds",
    }


@pytest.mark.parametrize("call", ("warm_worker", "FleetWorkerPool"))
def test_table_cache_directories_are_not_accepted(call, tmp_path):
    with pytest.raises(TypeError):
        if call == "warm_worker":
            warm_worker(fleet_host_names(CONFIG), "python",
                        table_cache_dir=str(tmp_path))
        else:
            FleetWorkerPool(1, warm_config=CONFIG,
                            table_cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_warmup_report_is_a_census_of_every_worker():
    with FleetWorkerPool(2, warm_config=CONFIG, backend="python") as pool:
        report = pool.warmup_report()
    assert report["backend"] == "python"
    assert report["coordinator_warmup_seconds"] > 0
    # Every worker reports exactly once (its warm state is the first
    # frame on its dedicated channel) — a census, not a probe sample.
    assert report["workers_reporting"] == 2
    assert len(report["workers"]) == 2
    assert [worker["worker"] for worker in report["workers"]] == [0, 1]
    pids = [worker["pid"] for worker in report["workers"]]
    assert len(set(pids)) == len(pids)
    for worker in report["workers"]:
        assert worker["backend"] == "python"
        assert worker["hosts_warmed"] == CONFIG.num_hosts + 1
        assert worker["warmup_seconds"] > 0


def test_zero_workers_is_rejected():
    with pytest.raises(ConfigurationError):
        FleetWorkerPool(0)


def test_workers_1_ignores_the_pool_and_stays_serial():
    # A serial baseline must stay serial even when a pool is supplied —
    # the fleet scaling gate relies on this for its 1-worker leg.  Using
    # a closed pool makes any accidental dispatch to it fail loudly.
    with FleetWorkerPool(2) as closed_pool:
        pass
    result = run_fleet(CONFIG, workers=1, pool=closed_pool)
    assert result.journeys == CONFIG.num_agents


def test_pool_reuse_is_bit_identical_to_single_process():
    single = run_fleet(CONFIG, workers=1)
    with FleetWorkerPool(2, warm_config=CONFIG) as pool:
        first = run_fleet(CONFIG, workers=2, pool=pool)
        second = run_fleet(CONFIG, workers=2, pool=pool)
    expected = single.deterministic_signature()
    assert first.deterministic_signature() == expected
    assert second.deterministic_signature() == expected
    assert [o.to_canonical() for o in first.outcomes] == [
        o.to_canonical() for o in single.outcomes
    ]
