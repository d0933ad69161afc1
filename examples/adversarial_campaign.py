#!/usr/bin/env python3
"""Adversarial campaign: measure detection quality at fleet scale.

Runs the campaign layer (:mod:`repro.sim.campaign`) end to end:

1. build an honest host topology and launch N protected journeys,
2. let a deterministic fraction of journeys carry one attack from the
   standard catalogue (assignment comes from the dedicated campaign
   RNG substream, so benign journeys are bit-identical to a 0%-attack
   run of the same seed),
3. aggregate per-scenario precision / recall, the false-positive rate,
   and time/hops-to-detection; render the paper-style detectability
   table,
4. optionally gate the run: ``--require-recall 1.0`` exits non-zero
   unless every always-detectable scenario was caught every time.

With ``--workers K`` the campaign is split into deterministic units run
across a work-stealing multiprocess pool; the merged result (and trace)
is bit-identical to the single-process run of the same seed — CI's
campaign-smoke job compares the two byte for byte.

Invocation — run from the repository root with ``PYTHONPATH=src``::

    PYTHONPATH=src python examples/adversarial_campaign.py --agents 200
    PYTHONPATH=src python examples/adversarial_campaign.py --agents 1000 \\
        --attack-fraction 0.3 --workers 4 --trace campaign.jsonl \\
        --require-recall 1.0
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.attacks.scenarios import catalogue_names
from repro.bench.tables import format_detectability_table
from repro.exceptions import ConfigurationError
from repro.sim import campaign_config, run_campaign


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, default=200,
                        help="journeys to launch (default: 200)")
    parser.add_argument("--hosts", type=int, default=16,
                        help="service hosts besides home (default: 16)")
    parser.add_argument("--hops", type=int, default=3,
                        help="service hosts visited per journey (default: 3)")
    parser.add_argument("--attack-fraction", type=float, default=0.3,
                        help="fraction of journeys carrying an attack "
                             "(default: 0.3)")
    parser.add_argument("--scenarios", nargs="+", metavar="NAME",
                        default=None,
                        help="attack scenarios to draw from (default: the "
                             "full standard catalogue)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default: 0)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes pulling units off the "
                             "shared work-stealing queue; the default plan "
                             "is 4 deterministic units per worker "
                             "(default: 1)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the merged per-journey JSONL trace "
                             "here (ground truth + verdicts included)")
    parser.add_argument("--require-recall", type=float, default=None,
                        metavar="FLOOR",
                        help="exit non-zero unless recall on "
                             "always-detectable scenarios reaches FLOOR")
    args = parser.parse_args()

    if args.workers < 1:
        parser.error("--workers must be positive")
    config = campaign_config(
        num_agents=args.agents,
        num_hosts=args.hosts,
        hops_per_journey=args.hops,
        attack_fraction=args.attack_fraction,
        scenarios=tuple(args.scenarios) if args.scenarios else catalogue_names(),
        seed=args.seed,
        trace_path=args.trace,
    )
    try:
        config.validate()
    except (ConfigurationError, KeyError) as error:
        parser.error(str(error))
    campaign = run_campaign(config, workers=args.workers)

    summary = campaign.summary()
    print(format_detectability_table(campaign))
    print()
    print("journeys: %d (%d attacked, %d benign)" % (
        summary["journeys"], summary["campaign_attacked"],
        summary["benign_journeys"],
    ))
    print("precision %.3f  recall %.3f  false-positive rate %.4f" % (
        summary["precision"], summary["recall"],
        summary["false_positive_rate"],
    ))
    print("always-detectable recall: %.3f" % summary["always_detectable_recall"])
    print("deterministic signature: %s" % campaign.deterministic_signature())
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as handle:
            events = sum(1 for line in handle if line.strip())
        print("trace: %s (%d events)" % (args.trace, events))

    if args.require_recall is not None:
        observed = summary["always_detectable_recall"]
        if observed < args.require_recall:
            print(
                "FAIL: always-detectable recall %.3f below required %.3f"
                % (observed, args.require_recall),
                file=sys.stderr,
            )
            return 1
        print("recall floor %.3f satisfied" % args.require_recall)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
