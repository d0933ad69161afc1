"""``python -m repro.trace`` — the trace forensics console.

Subcommands
-----------
``list <trace>``
    One row per journey: ground truth vs outcome.
``show <trace> <journey>``
    Hop-by-hop timeline of one journey with attack/detection markers.
``report <trace> [--json out.json] [--html out.html]``
    Campaign forensics report: summary, time-to-detection percentiles,
    per-scenario matrix, blame.  Prints the headline numbers and
    optionally writes the JSON/HTML artifacts.
``replay <trace> <journey> [--checker <name>]``
    Deterministic single-journey replay.  Without ``--checker`` this is
    a fidelity check (recorded events must reproduce byte-identically;
    exit 1 if they do not).  With ``--checker`` it is a policy replay:
    the journey re-runs under a different checker and the verdicts are
    diffed hop by hop (divergence is the expected output, not an
    error).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from repro.trace import journey_timeline, list_journeys, load_trace
from repro.trace.replay import checker_names, replay_journey
from repro.trace.report import build_report, write_report


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.4f" % value
    return str(value)


def _print_table(headers: List[str], rows: List[List[Any]]) -> None:
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells
        else len(header)
        for i, header in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for row in cells:
        print("  ".join(value.ljust(w) for value, w in zip(row, widths)))


def _cmd_list(args: argparse.Namespace) -> int:
    events = load_trace(args.trace, strict=args.strict)
    rows = list_journeys(
        events, attacked_only=args.attacked, detected_only=args.detected
    )
    if args.limit:
        rows = rows[: args.limit]
    _print_table(
        ["journey", "workload", "scenario", "hop", "expected",
         "detected", "det.hop", "ttd", "blamed"],
        [
            [
                row["journey"], row["workload"], row["attack_scenario"],
                row["attack_hop"], row["expected"], row["detected"],
                row["detected_at_hop"], row["time_to_detection"],
                ",".join(row["blamed"]) or None,
            ]
            for row in rows
        ],
    )
    print("%d journeys" % len(rows))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    events = load_trace(args.trace, strict=args.strict)
    timeline = journey_timeline(events, args.journey)
    launch = timeline["launch"] or {}
    attack = timeline["attack"]
    complete = timeline["complete"] or {}
    print("journey   %s (%s)" % (args.journey, launch.get("workload", "?")))
    print("itinerary %s" % " -> ".join(launch.get("itinerary", [])))
    if attack is not None:
        print(
            "attack    %s at hop %s (target %s, expected %s)"
            % (attack.get("scenario"), attack.get("hop"),
               attack.get("target"), _fmt(attack.get("expected")))
        )
    rows = []
    for hop in timeline["hops"]:
        marker = []
        if hop["attacked_here"]:
            marker.append("ATTACK")
        if hop["detected_here"]:
            marker.append("DETECTED")
        rows.append([
            hop["hop_index"], hop["host"], hop["ts"],
            hop["wire_bytes"], hop["verdicts"],
            " ".join(marker) or None,
        ])
    _print_table(
        ["hop", "host", "ts", "wire_bytes", "verdicts", "events"], rows
    )
    print(
        "outcome   detected=%s blamed=%s hops=%s wire_bytes=%s"
        % (_fmt(complete.get("detected")),
           ",".join(complete.get("blamed", [])) or "-",
           _fmt(complete.get("hops")), _fmt(complete.get("wire_bytes")))
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    events = load_trace(args.trace, strict=args.strict)
    report = build_report(events, source=args.trace)
    # Artifacts land before any console output: a closed stdout (pager
    # quit, broken pipe) must not cost the files.
    write_report(report, json_path=args.json, html_path=args.html)
    campaign = report["campaign"]
    ttd = report["time_to_detection"]
    print("campaign  journeys=%d attacked=%d benign=%d" % (
        campaign["journeys"], campaign["campaign_attacked"],
        campaign["benign_journeys"],
    ))
    print("quality   precision=%s recall=%s fpr=%s" % (
        _fmt(campaign["precision"]), _fmt(campaign["recall"]),
        _fmt(campaign["false_positive_rate"]),
    ))
    print("ttd       detections=%d p50=%s p95=%s p99=%s" % (
        ttd["detections"], _fmt(ttd["p50"]), _fmt(ttd["p95"]),
        _fmt(ttd["p99"]),
    ))
    _print_table(
        ["scenario", "injected", "detected", "rate", "expected"],
        [
            [name, stats["injected"], stats["detected"],
             stats["detection_rate"], stats["expected_detected"]]
            for name, stats in sorted(campaign["per_scenario"].items())
        ],
    )
    for path in (args.json, args.html):
        if path:
            print("wrote %s" % path)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    events = load_trace(args.trace, strict=args.strict)
    result = replay_journey(events, args.journey, checker=args.checker)
    print("journey   %s" % result.journey_id)
    print("recorded  %s" % result.recorded_checker)
    print("replayed  %s" % result.checker)
    print("identical %s" % _fmt(result.identical))
    _print_table(
        ["hop", "host", "recorded", "replayed", "changed"],
        [
            [row["hop_index"], row["host"], row["recorded_verdicts"],
             row["replayed_verdicts"], row["changed"]]
            for row in result.hop_diffs
        ],
    )
    for field, cell in result.outcome_diff.items():
        flag = "" if cell["recorded"] == cell["replayed"] else "  << changed"
        print("%-16s recorded=%s replayed=%s%s" % (
            field, _fmt(cell["recorded"]), _fmt(cell["replayed"]), flag,
        ))
    if args.json_output:
        with open(args.json_output, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.json_output)
    if result.checker == result.recorded_checker and not result.identical:
        print("FIDELITY FAILURE: replay under the recorded checker "
              "diverged from the trace", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Forensics console over fleet JSONL traces.",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="refuse traces with a torn final line instead of dropping it",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("list", help="one summary row per journey")
    cmd.add_argument("trace")
    cmd.add_argument("--attacked", action="store_true",
                     help="only journeys that carried an attack")
    cmd.add_argument("--detected", action="store_true",
                     help="only journeys that alarmed")
    cmd.add_argument("--limit", type=int, default=0,
                     help="print at most N rows")
    cmd.set_defaults(handler=_cmd_list)

    cmd = commands.add_parser("show", help="hop-by-hop journey timeline")
    cmd.add_argument("trace")
    cmd.add_argument("journey")
    cmd.set_defaults(handler=_cmd_show)

    cmd = commands.add_parser("report", help="campaign forensics report")
    cmd.add_argument("trace")
    cmd.add_argument("--json", help="write the JSON artifact here")
    cmd.add_argument("--html", help="write the HTML artifact here")
    cmd.set_defaults(handler=_cmd_report)

    cmd = commands.add_parser(
        "replay", help="deterministic single-journey policy replay"
    )
    cmd.add_argument("trace")
    cmd.add_argument("journey")
    cmd.add_argument("--checker", choices=checker_names(),
                     help="re-run detection under this checker "
                          "(default: the recorded one)")
    cmd.add_argument("--json-output", help="write the diff as JSON here")
    cmd.set_defaults(handler=_cmd_replay)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
