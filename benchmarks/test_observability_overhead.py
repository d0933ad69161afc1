"""Acceptance gate: live telemetry costs ≤2% of fleet wall time.

The observability layer promises that metrics collection is cheap
enough to leave on everywhere: counters are plain integer adds,
histograms are bounded-reservoir appends, and the engine's per-hop
spans reuse the timestamps the simulator already takes.  This suite
measures the enabled-vs-disabled delta on a fleet-shaped run
(interleaved legs, best-of-N, like the other wall-clock gates here) and
fails if the overhead fraction exceeds the budget.
"""

from __future__ import annotations

import time

from benchmarks.reportutil import write_report
from repro.obs import obs_enabled, set_obs_enabled
from repro.sim import FleetConfig
from repro.sim.shard import run_fleet

#: The acceptance budget: metrics on vs. off within 2%.
MAX_OVERHEAD_FRACTION = 0.02

#: Interleaved off/on pairs; the best wall of each side is compared.
REPEATS = 5


def test_telemetry_overhead_stays_within_budget():
    config = FleetConfig(
        num_agents=240,
        num_hosts=16,
        hops_per_journey=3,
        malicious_host_fraction=0.2,
        seed=2026,
        batched_verification=True,
    )

    def one_run() -> float:
        started = time.perf_counter()
        run_fleet(config, workers=1)
        return time.perf_counter() - started

    # Interleaving lands machine drift on both sides equally.
    previous = obs_enabled()
    disabled_walls = []
    enabled_walls = []
    try:
        for _ in range(REPEATS):
            set_obs_enabled(False)
            disabled_walls.append(one_run())
            set_obs_enabled(True)
            enabled_walls.append(one_run())
    finally:
        set_obs_enabled(previous)
    disabled = min(disabled_walls)
    enabled = min(enabled_walls)
    overhead = (enabled - disabled) / disabled

    write_report("observability_overhead.md", "\n".join([
        "# Telemetry overhead (metrics on vs. off)",
        "",
        "%d agents, best of %d interleaved pairs" % (
            config.num_agents, REPEATS,
        ),
        "",
        "| leg | seconds |",
        "|---|---|",
        "| metrics off | %.4f |" % disabled,
        "| metrics on | %.4f |" % enabled,
        "",
        "overhead: %+.2f%% (budget %.0f%%)" % (
            100.0 * overhead, 100.0 * MAX_OVERHEAD_FRACTION,
        ),
        "",
    ]))

    assert overhead <= MAX_OVERHEAD_FRACTION, (
        "telemetry overhead %.2f%% exceeds the %.0f%% budget"
        % (100.0 * overhead, 100.0 * MAX_OVERHEAD_FRACTION)
    )
