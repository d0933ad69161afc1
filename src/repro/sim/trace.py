"""JSONL journey traces for fleet simulation runs.

Every fleet run emits a stream of per-journey events on the virtual
timeline — one JSON object per line, in event-processing order.  The
format follows the trace/replay idiom of post-hoc analysis tools: the
trace alone is enough to reconstruct what happened, when, and to replay
the recorded execution logs through
:class:`~repro.agents.execution_log.ExecutionLog` (``hop`` events embed
each session's trace entries in their canonical form).

Event kinds
-----------
``fleet``
    One header line: the configuration snapshot of the run.
``launch``
    A journey entered the system (itinerary, workload, agent id).
``attack``
    Campaign ground truth for an attacked journey (scenario, strike
    hop, target host, and whether detection is expected); emitted right
    after the journey's ``launch`` line.
``hop``
    One execution session finished (host, verdicts, transfer size, and
    the session's execution log).
``complete``
    A journey finished (detection outcome, blamed hosts, totals, and —
    for campaign analysis — the ground truth and first-detection
    position, so a trace alone replays to the same
    :class:`~repro.attacks.detection.DetectionReport` as the live run).

Only virtual-clock quantities go into a trace; wall-clock timings are
deliberately excluded so that the same seed produces a byte-identical
trace file on any machine.

Canonical event order
---------------------
Event-processing order breaks virtual-timestamp ties by the global
schedule sequence — a quantity a sharded run cannot reconstruct.  Trace
*files* therefore use the canonical order of :func:`fleet_event_key`:
the header first, then events by ``(ts, journey)`` with each journey's
own events kept in emission order.  Both the single-process engine and
the shard merger (:func:`merge_shard_events`) write this order, which is
what makes an N-shard merged trace byte-identical to the 1-process one.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.agents.execution_log import ExecutionLog

__all__ = [
    "TraceWriter",
    "append_events",
    "attack_events",
    "events_to_jsonl",
    "fleet_event_key",
    "merge_shard_events",
    "merge_trace_files",
    "read_trace",
    "sanitize_stream_file",
    "journey_events",
    "execution_log_at",
]


def fleet_event_key(event: Dict[str, Any]) -> Tuple[int, float, str]:
    """Canonical sort key for fleet trace events.

    Header lines (no ``ts``) sort before everything else; timeline
    events sort by ``(ts, journey)``.  The key is content-based on
    purpose: sorting with it is stable against how the events were
    produced, so any partition of the fleet yields the same file.
    """
    if "ts" not in event:
        return (0, 0.0, "")
    return (1, event["ts"], str(event.get("journey", "")))


def merge_shard_events(
    shard_events: Iterable[Iterable[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-shard event streams into one canonical timeline.

    Per-shard ``fleet`` headers are dropped (the caller emits one merged
    header for the whole run); the remaining events are stably sorted by
    :func:`fleet_event_key`.  Shards own disjoint journey-id sets, so
    the key is unambiguous and the merge is deterministic regardless of
    shard count or completion order.
    """
    merged: List[Dict[str, Any]] = []
    for events in shard_events:
        merged.extend(
            event for event in events if event.get("event") != "fleet"
        )
    merged.sort(key=fleet_event_key)
    return merged


def events_to_jsonl(events: Iterable[Dict[str, Any]]) -> str:
    """Serialize events as JSONL (sorted keys, stable floats).

    The single serialization routine every trace file goes through —
    :class:`TraceWriter`, the per-worker event streams of the
    work-stealing scheduler, and the shard merger all produce the same
    bytes for the same events.
    """
    # ``json.dumps`` runs the C encoder; ``json.dump`` streams through
    # the pure-Python one.  Both give the same text.
    return "".join(
        json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        for event in events
    )


def append_events(path: str, events: Iterable[Dict[str, Any]]) -> None:
    """Append events to a JSONL stream file.

    Used by pool workers to stream each finished unit's events into
    their per-worker file: serialization happens in the worker (off the
    coordinator's critical path) and the events never cross the result
    channel.  The coordinator truncates the stream files before
    dispatching a run, so appends from consecutive units of the same
    run accumulate and runs never bleed into each other.
    """
    payload = events_to_jsonl(events)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(payload)


def merge_trace_files(
    paths: Iterable[str],
    tolerate_truncated_tail: bool = True,
    losses: Optional[Dict[str, int]] = None,
) -> List[Dict[str, Any]]:
    """Merge per-worker JSONL stream files into one canonical event list.

    Reads each file (missing files count as empty streams — a worker
    that never got a traced unit leaves its stream file empty or
    absent) and folds them through :func:`merge_shard_events`.  The
    result is independent of file order: units own disjoint journey-id
    sets, so the canonical key never ties across files.

    Per-worker streams are appended to by processes that can be killed
    mid-write, so by default a torn *final* line in a file is dropped
    rather than fatal; every complete event before it is recovered.
    Pass a ``losses`` dictionary to learn which files lost a tail
    (path → dropped line count) — merging never hides a loss, it
    reports it.  Malformed lines anywhere but the tail still raise:
    those are corruption, not a crash signature.
    """
    import os

    streams = []
    for path in paths:
        if not os.path.exists(path):
            continue
        if tolerate_truncated_tail:
            events, truncated = _read_events_tolerant(path)
            if truncated and losses is not None:
                losses[path] = truncated
        else:
            events = read_trace(path)
        streams.append(events)
    return merge_shard_events(streams)


class TraceWriter:
    """Accumulates trace events and serializes them as JSONL.

    Events are kept in memory (a fleet run is a few thousand small
    dictionaries) and written out in one pass so a crashed run never
    leaves a half-written line behind.
    """

    def __init__(self) -> None:
        self._events: List[Dict[str, Any]] = []

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Record one event; ``kind`` becomes the ``event`` field."""
        event = {"event": kind}
        event.update(fields)
        self._events.append(event)
        return event

    @property
    def events(self) -> List[Dict[str, Any]]:
        """All events emitted so far, in order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def to_jsonl(self, canonical_order: bool = False) -> str:
        """The whole trace as a JSONL string (sorted keys, stable floats).

        With ``canonical_order`` the events are stably sorted by
        :func:`fleet_event_key` first — the order trace *files* use so
        that sharded and single-process runs serialize identically.
        """
        events = self._events
        if canonical_order:
            events = sorted(events, key=fleet_event_key)
        return events_to_jsonl(events)

    def write(self, path: str, canonical_order: bool = False) -> None:
        """Write the trace to ``path`` (overwrites)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl(canonical_order=canonical_order))


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace back into a list of event dictionaries."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _read_events_tolerant(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read a JSONL stream, tolerating a torn final line.

    A process killed mid-append leaves the last line incomplete (or,
    at worst, complete-but-undecodable).  Everything before it is
    intact — appends are sequential — so the tolerant reader recovers
    every complete event and reports how many tail lines it dropped
    (0 or 1).  An undecodable line that is *not* the last one means the
    file is corrupt, not crash-torn, and still raises.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = [line for line in text.split("\n") if line.strip()]
    events: List[Dict[str, Any]] = []
    for position, line in enumerate(lines):
        try:
            events.append(json.loads(line))
        except ValueError:
            if position == len(lines) - 1:
                return events, 1
            raise
    return events, 0


def sanitize_stream_file(
    path: str, drop_journeys: Iterable[str] = ()
) -> Dict[str, int]:
    """Scrub a per-worker stream after its worker crashed.

    Drops a torn final line (the append the crash interrupted) and every
    event belonging to ``drop_journeys`` — the journeys of the unit the
    dead worker held a lease on.  That unit will be re-executed
    elsewhere and append its events again; leaving the partial first
    attempt in place would duplicate them in the merge.  The file is
    rewritten in place.  Returns counters (``events_kept``,
    ``events_dropped``, ``lines_truncated``) for the supervision
    report.
    """
    import os

    if not os.path.exists(path):
        return {"events_kept": 0, "events_dropped": 0, "lines_truncated": 0}
    events, truncated = _read_events_tolerant(path)
    drop = set(drop_journeys)
    kept = [
        event for event in events
        if str(event.get("journey", "")) not in drop
    ]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(events_to_jsonl(kept))
    return {
        "events_kept": len(kept),
        "events_dropped": len(events) - len(kept),
        "lines_truncated": truncated,
    }


def attack_events(events: Iterable[Dict[str, Any]]
                  ) -> Dict[str, Dict[str, Any]]:
    """Campaign ground truth of a trace: journey id → ``attack`` event."""
    return {
        event["journey"]: event
        for event in events
        if event.get("event") == "attack"
    }


def journey_events(events: Iterable[Dict[str, Any]],
                   journey_id: str) -> List[Dict[str, Any]]:
    """Filter a trace down to one journey's events, in order."""
    return [event for event in events if event.get("journey") == journey_id]


def execution_log_at(events: Iterable[Dict[str, Any]], journey_id: str,
                     hop_index: int) -> Optional[ExecutionLog]:
    """Reconstruct the execution log recorded at one hop of a journey.

    Returns ``None`` when the trace has no matching ``hop`` event.  The
    reconstructed log round-trips through the same canonical form the
    checking framework uses, so trace digests match the live run's.
    """
    for event in events:
        if (event.get("event") == "hop"
                and event.get("journey") == journey_id
                and event.get("hop_index") == hop_index):
            log = event.get("execution_log")
            if log is None:
                return None
            return ExecutionLog.from_canonical(log)
    return None
