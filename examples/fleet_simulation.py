#!/usr/bin/env python3
"""Fleet simulation: thousands of protected journeys on one timeline.

Runs the discrete-event fleet engine end to end:

1. build a host topology with a malicious fraction mounting attacks
   from the standard catalogue,
2. launch N agents (a shopping / survey mix) whose journeys interleave
   on the virtual clock, protected by the reference-state protocol,
3. settle whole-transfer signatures through the batched verifier,
4. print the aggregate detection / latency report and (optionally)
   write the per-journey JSONL trace.

With ``--workers K`` the fleet is split into deterministic units and
executed across a work-stealing multiprocess pool (``--unit-size``
controls the unit granularity); the merged result (and trace) is
bit-identical to the single-process run of the same seed, whatever
schedule the pool happens to take.

``--chaos-kill-worker W`` SIGKILLs worker ``W`` the moment it leases
its ``--chaos-kill-unit``-th unit, demonstrating the supervised pool:
the dead worker's unit is requeued (its trace events travel in the
result frame it never sent, so nothing is left to repair), a
replacement respawned (while ``--chaos-respawn-budget`` lasts — budget
0 forces the coordinator to finish the queue itself), and the printed
deterministic signature still matches the fault-free run.

Invocation — run from the repository root with ``PYTHONPATH=src`` (the
script also falls back to inserting ``../src`` relative to its own
location, but CI and documentation set the path explicitly rather than
relying on checkout layout)::

    PYTHONPATH=src python examples/fleet_simulation.py --agents 200 --hosts 16
    PYTHONPATH=src python examples/fleet_simulation.py --agents 1000 \\
        --workers 4 --trace fleet.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.fleet import fleet_summary_markdown
from repro.exceptions import ConfigurationError
from repro.sim import FleetConfig, run_fleet


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, default=200,
                        help="journeys to launch (default: 200)")
    parser.add_argument("--hosts", type=int, default=16,
                        help="service hosts besides home (default: 16)")
    parser.add_argument("--hops", type=int, default=3,
                        help="service hosts visited per journey (default: 3)")
    parser.add_argument("--malicious", type=float, default=0.2,
                        help="malicious host fraction (default: 0.2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default: 0)")
    parser.add_argument("--unprotected", action="store_true",
                        help="run plain agents instead of the protocol")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes pulling units off the "
                             "shared work-stealing queue (default: 1)")
    parser.add_argument("--unit-size", type=int, default=None,
                        help="journeys per work-stealing unit (default: "
                             "the scheduler's dynamic plan)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the merged per-journey JSONL trace "
                             "here (the only file the run writes)")
    parser.add_argument("--chaos-kill-worker", type=int, default=None,
                        metavar="W",
                        help="SIGKILL worker W mid-run to demonstrate "
                             "supervised recovery (requires --workers > 1)")
    parser.add_argument("--chaos-kill-unit", type=int, default=0,
                        metavar="N",
                        help="which of the victim's leased units "
                             "triggers the kill (0-based, default: 0)")
    parser.add_argument("--chaos-respawn-budget", type=int, default=None,
                        help="replacement workers the pool may spawn "
                             "(default: one per original worker; 0 "
                             "degrades to coordinator execution)")
    args = parser.parse_args()

    config = FleetConfig(
        num_agents=args.agents,
        num_hosts=args.hosts,
        hops_per_journey=args.hops,
        malicious_host_fraction=args.malicious,
        seed=args.seed,
        protected=not args.unprotected,
        trace_path=args.trace,
    )
    if args.workers < 1:
        parser.error("--workers must be positive")
    if args.unit_size is not None and args.unit_size < 1:
        parser.error("--unit-size must be positive")
    try:
        config.validate()
    except ConfigurationError as error:
        parser.error(str(error))
    if args.chaos_kill_worker is not None:
        if args.workers < 2:
            parser.error("--chaos-kill-worker needs --workers > 1")
        if not 0 <= args.chaos_kill_worker < args.workers:
            parser.error("--chaos-kill-worker must name one of the "
                         "%d workers" % args.workers)
    # Past this point a ConfigurationError would be an engine bug, not a
    # usage error — let it traceback instead of masquerading as one.
    if args.chaos_kill_worker is not None:
        from repro.chaos import WORKER_CRASH, Fault, FaultPlan
        from repro.sim.shard import FleetWorkerPool

        plan = FaultPlan(faults=(
            Fault(kind=WORKER_CRASH, worker=args.chaos_kill_worker,
                  at_unit=args.chaos_kill_unit),
        ))
        with FleetWorkerPool(
            args.workers, warm_config=config, fault_plan=plan,
            respawn_budget=args.chaos_respawn_budget,
        ) as pool:
            result = run_fleet(config, workers=args.workers, pool=pool,
                               unit_size=args.unit_size)
    else:
        result = run_fleet(config, workers=args.workers,
                           unit_size=args.unit_size)

    print(fleet_summary_markdown(result))
    supervision = (result.worker_report or {}).get("supervision")
    if supervision and (supervision["crashes"]
                        or supervision["degraded_units"]):
        for crash in supervision["crashes"]:
            print("chaos: worker %d died (exit %s) holding unit %s — "
                  "requeued=%s respawned=%s" % (
                      crash["worker"], crash["exitcode"],
                      crash["leased_unit"], crash["requeued"],
                      crash["respawned"],
                  ))
        if supervision["degraded_units"]:
            print("chaos: respawn budget exhausted; coordinator "
                  "finished %d unit(s) itself"
                  % supervision["degraded_units"])
        print("chaos: %d respawn(s) of a budget of %d" % (
            supervision["respawns"], supervision["respawn_budget"],
        ))
    print("deterministic signature: %s" % result.deterministic_signature())
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as handle:
            events = sum(1 for line in handle if line.strip())
        print("trace: %s (%d events)" % (args.trace, events))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
