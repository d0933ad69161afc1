"""Fleet-scale benchmarks: 1000 concurrent journeys and scaling gates.

Three claims are measured here:

1. the discrete-event engine completes a deterministic, seeded run of
   at least 1000 interleaved agent journeys with mixed honest and
   malicious hosts and reports aggregate detection / latency metrics;
2. the batched signature-verification path is measurably faster than
   verifying every signature individually (per-journey style);
3. a pre-warmed 4-worker pool runs the fleet at least 2.5x faster than
   one process, with the same deterministic signature.

The crypto comparison is run at the primitive level (identical inputs,
repeated, best-of-N) so it stays robust on loaded CI machines; the
fleet's batched settling is additionally checked for semantic parity
against an engine that settles every transfer check on enqueue.
"""

from __future__ import annotations

import os
import time
from random import Random

import pytest

from benchmarks.reportutil import write_report
from repro.crypto.dsa import batch_verify, generate_keypair
from repro.sim import FleetConfig, FleetEngine
from repro.sim.shard import DEFAULT_UNITS_PER_WORKER, FleetWorkerPool, run_fleet
from repro.bench.fleet import fleet_detection_report, fleet_summary_markdown
from tests.helpers import EagerFleetEngine

#: Batched DSA verification must beat one-by-one verification by more
#: than this factor on a fleet-shaped stream.
MIN_BATCH_VERIFY_SPEEDUP = 1.15

#: The 4-worker pool must run the scaling fleet at least this much
#: faster than one process.
FLEET_GATE_WORKERS = 4
MIN_FLEET_SPEEDUP = 2.5


def _best_of(func, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def test_batched_verification_is_measurably_faster():
    # Fleet-shaped stream: few signers, many messages.
    signatures, signers, repeats = 160, 8, 3
    keys = [generate_keypair(seed=index) for index in range(signers)]
    items = []
    for index in range(signatures):
        private, public = keys[index % signers]
        message = b"fleet-transfer-%06d" % index
        items.append((public, message, private.sign_recoverable(message)))

    def individually() -> None:
        assert all(
            public.verify_recoverable(message, signature)
            for public, message, signature in items
        )

    def batched() -> None:
        assert batch_verify(items, rng=Random(42))

    individual_seconds = _best_of(individually, repeats)
    batched_seconds = _best_of(batched, repeats)
    speedup = individual_seconds / batched_seconds

    write_report("fleet_batch_verification.md", "\n".join([
        "# Batched vs. individual DSA verification",
        "",
        "%d signatures from %d signers" % (signatures, signers),
        "",
        "| path | seconds (best of %d) |" % repeats,
        "|---|---|",
        "| individual | %.4f |" % individual_seconds,
        "| batched | %.4f |" % batched_seconds,
        "",
        "speedup: %.1fx" % speedup,
        "",
    ]))
    # The batch test replaces the per-signature exponentiations by one
    # small-exponent term per signature plus one full-width term per
    # *signer*.  Since the individual path gained fixed-base tables
    # (crypto/dsa.py), its two table-driven exponentiations per
    # signature are already cheap, so the batch advantage narrowed from
    # ~5x to ~1.4x — still a win on fleet-shaped streams (few signers,
    # many messages), and this gate keeps it from regressing below one.
    assert speedup > MIN_BATCH_VERIFY_SPEEDUP, (
        "batched verification only %.2fx faster" % speedup
    )


def test_warm_worker_pool_scales_the_fleet():
    """4 pre-warmed workers beat one process by 2.5x, bit-identically.

    Both legs run after the pool has warmed every worker *and* this
    process (keys and fixed-base tables), so neither pays spawn or
    crypto warm-up inside the timed window.
    """
    cpus = os.cpu_count() or 1
    if cpus < FLEET_GATE_WORKERS:
        pytest.skip(
            "parallel speedup needs %d CPUs, this machine has %d"
            % (FLEET_GATE_WORKERS, cpus)
        )
    config = FleetConfig(
        num_agents=600,
        num_hosts=20,
        hops_per_journey=3,
        malicious_host_fraction=0.2,
        seed=2026,
    )
    walls = {}
    signatures = {}
    with FleetWorkerPool(FLEET_GATE_WORKERS, warm_config=config) as pool:
        for workers in (1, FLEET_GATE_WORKERS):
            started = time.perf_counter()
            result = run_fleet(config, workers=workers, pool=pool)
            walls[workers] = time.perf_counter() - started
            signatures[workers] = result.deterministic_signature()
    speedup = walls[1] / walls[FLEET_GATE_WORKERS]

    write_report("fleet_worker_scaling.md", "\n".join([
        "# Fleet scaling across a warm worker pool",
        "",
        "%d journeys, %d hosts, %d hops, %d CPUs" % (
            config.num_agents, config.num_hosts,
            config.hops_per_journey, cpus,
        ),
        "",
        "| workers | seconds |",
        "|---|---|",
        "| 1 | %.3f |" % walls[1],
        "| %d | %.3f |" % (FLEET_GATE_WORKERS, walls[FLEET_GATE_WORKERS]),
        "",
        "speedup: %.2fx (gate %.1fx)" % (speedup, MIN_FLEET_SPEEDUP),
        "",
    ]))
    assert signatures[FLEET_GATE_WORKERS] == signatures[1]
    assert speedup >= MIN_FLEET_SPEEDUP, (
        "%d-worker speedup %.2fx below %.1fx"
        % (FLEET_GATE_WORKERS, speedup, MIN_FLEET_SPEEDUP)
    )


@pytest.fixture(scope="module")
def fleet_1000():
    config = FleetConfig(
        num_agents=1000,
        num_hosts=40,
        hops_per_journey=4,
        malicious_host_fraction=0.2,
        seed=2026,
    )
    engine = FleetEngine(config)
    return engine, engine.run()


def test_fleet_completes_1000_concurrent_journeys(fleet_1000):
    _, result = fleet_1000
    assert result.journeys == 1000
    assert all(outcome.hops == 6 for outcome in result.outcomes)
    # mixed population, both slices populated
    assert result.attacked_journeys and result.honest_journeys

    # aggregate detection metrics match the paper's single-journey rates
    assert result.detection_rate == 1.0
    assert result.false_positives == 0
    assert result.undetectable_flagged == 0
    assert result.blame_accuracy == 1.0

    # aggregate latency metrics are populated and sane
    assert result.virtual_makespan > 0
    assert result.mean_journey_latency() > 0
    phases = result.per_phase_seconds()
    assert all(seconds >= 0 for seconds in phases.values())

    report = fleet_detection_report(result)
    assert report.conforms_to_expectation
    write_report("fleet_scale_1000.md", fleet_summary_markdown(result))


def test_sharded_1000_agent_run_matches_single_process(fleet_1000):
    """Acceptance gate: 4-way sharded execution is invisible at scale.

    The merged result of a 1000-agent run across a 4-process pool must
    carry the same deterministic signature as the single-process run
    (trace byte-identity at small scale is pinned in tier-1:
    tests/sim/test_shard.py).  The work-stealing scheduler splits a
    4-worker run into ``DEFAULT_UNITS_PER_WORKER`` units per worker.
    """
    _, result = fleet_1000
    sharded = run_fleet(result.config, workers=4)
    assert sharded.deterministic_signature() == result.deterministic_signature()
    assert sharded.shards is not None
    assert len(sharded.shards) == 4 * DEFAULT_UNITS_PER_WORKER


def test_fleet_run_is_seed_deterministic_at_scale(fleet_1000):
    _, result = fleet_1000
    smaller = FleetConfig(
        num_agents=1000,
        num_hosts=40,
        hops_per_journey=4,
        malicious_host_fraction=0.2,
        seed=2026,
    )
    again = FleetEngine(smaller).run()
    assert again.deterministic_signature() == result.deterministic_signature()


def test_batched_fleet_matches_eager_settling():
    config = FleetConfig(
        num_agents=120,
        num_hosts=16,
        hops_per_journey=3,
        malicious_host_fraction=0.25,
        seed=9,
    )
    eager = EagerFleetEngine(config).run()
    batched = FleetEngine(config).run()
    assert ([o.to_canonical() for o in eager.outcomes]
            == [o.to_canonical() for o in batched.outcomes])
    assert eager.deterministic_signature() == batched.deterministic_signature()
    assert eager.verifier_stats["failed"] == 0
    assert batched.verifier_stats["failed"] == 0
    assert batched.verifier_stats["verified"] == (
        eager.verifier_stats["verified"]
    )
    assert 1 <= batched.verifier_stats["batches"] < (
        eager.verifier_stats["batches"]
    )
