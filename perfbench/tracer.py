"""Span tracing for the benchmark's traced run.

The traced run wraps the public entry points of each ``repro`` module
from the outside (this file), records one span per boundary entry —
name, layer, start, end, parent span and the op (journey) it belongs
to — keeps the spans in memory, and writes them out when the run ends.
Per-layer numbers come from span *self time*: a span's duration minus
the part of its interval that its child spans cover.

``from module import name`` bindings escape a patch of the defining
module, so module-level functions are rebound in every loaded
``repro`` module that holds them; class methods are patched on the
class, which every importer shares.

Only synchronous entry points take part in the self-time split (a
synchronous call cannot be interleaved with other work on an event
loop).  Coroutine entry points are recorded as stand-alone latency
spans: they never become a parent and their time is not split.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

__all__ = [
    "Span",
    "Tracer",
    "TARGETS",
    "install",
    "covered_seconds",
    "self_times",
    "summarize",
    "export_summary",
]


class Span:
    __slots__ = ("entry", "layer", "parent", "op", "phase", "start", "end",
                 "value", "is_async")

    def __init__(self, entry: str, layer: str, parent: Optional[int],
                 op: Any, phase: Optional[str], is_async: bool = False
                 ) -> None:
        self.entry = entry
        self.layer = layer
        self.parent = parent
        self.op = op
        self.phase = phase
        self.start = 0.0
        self.end = 0.0
        self.value: Any = None
        self.is_async = is_async

    def to_dict(self) -> Dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """In-memory span recorder; ``phase`` ``None`` means not recording."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.phase: Optional[str] = None
        self.op: Any = None
        #: ``(phase, entry) -> calls``, re-entries included.
        self.calls: Dict[Tuple[str, str], int] = {}
        self._stack: List[int] = []

    def wrap(self, fn: Callable, layer: str, entry: str,
             value: Optional[Callable[[tuple, Any], Any]] = None,
             op_of: Optional[Callable[[tuple], Any]] = None) -> Callable:
        """A traced stand-in for ``fn`` (sync or coroutine function)."""
        tracer = self
        clock = self.clock

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                phase = tracer.phase
                if phase is None:
                    return await fn(*args, **kwargs)
                key = (phase, entry)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                span = Span(entry, layer, None, tracer.op, phase,
                            is_async=True)
                span.start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    span.end = clock()
                    tracer.spans.append(span)
                if value is not None:
                    span.value = value(args, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            key = (phase, entry)
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            stack = tracer._stack
            spans = tracer.spans
            # A re-entry of the layer already open is counted but gets no
            # span: one span per boundary entry, not per recursive frame.
            if stack and spans[stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            previous_op = tracer.op
            if op_of is not None:
                tracer.op = op_of(args)
            span = Span(entry, layer, stack[-1] if stack else None,
                        tracer.op, phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                tracer.op = previous_op
            if value is not None:
                span.value = value(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (index = line number)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True))
                handle.write("\n")


# -- what gets wrapped ---------------------------------------------------------


def _length(_args: tuple, result: Any) -> int:
    return len(result) if result is not None else 0


def _batch_outcome(args: tuple, result: Any) -> Tuple[int, bool]:
    return len(args[0]), bool(result)


def _journey_of(args: tuple) -> Any:
    return args[0].agent.agent_id


#: ``(module, attribute, layer, value, op_of)``.  ``attribute`` is a
#: module-level function name or ``Class.method``.
TARGETS: Tuple[Tuple[str, str, str, Any, Any], ...] = (
    ("repro.crypto.canonical", "CanonicalEncoder.encode",
     "crypto.canonical.encode", _length, None),
    ("repro.crypto.canonical", "canonical_encode",
     "crypto.canonical.encode", _length, None),
    ("repro.crypto.canonical", "CanonicalDecoder.decode",
     "crypto.canonical.decode", None, None),
    ("repro.crypto.canonical", "canonical_decode",
     "crypto.canonical.decode", None, None),
    ("repro.agents.state", "AgentState.capture", "agents.state", None, None),
    ("repro.agents.state", "AgentState.restore", "agents.state", None, None),
    ("repro.agents.state", "AgentState.canonical_bytes", "agents.state",
     None, None),
    ("repro.agents.state", "DataState.snapshot", "agents.state", None, None),
    ("repro.crypto.dsa", "DSAPrivateKey.sign", "crypto.dsa.sign", None, None),
    ("repro.crypto.dsa", "DSAPrivateKey.sign_recoverable", "crypto.dsa.sign",
     None, None),
    ("repro.crypto.dsa", "DSAPublicKey.verify", "crypto.dsa.verify",
     None, None),
    ("repro.crypto.dsa", "DSAPublicKey.verify_recoverable",
     "crypto.dsa.verify", None, None),
    ("repro.crypto.dsa", "batch_verify", "crypto.dsa.batch",
     _batch_outcome, None),
    ("repro.crypto.dsa", "find_invalid", "crypto.dsa.batch", None, None),
    ("repro.crypto.dsa", "DSAPublicKey.precompute", "crypto.dsa.tables",
     None, None),
    ("repro.crypto.dsa", "DSAParameters.generator_table", "crypto.dsa.tables",
     None, None),
    ("repro.sim.shard", "warm_worker", "crypto.keys", None, None),
    ("repro.service.server", "build_service_keystore", "crypto.keys",
     None, None),
    ("repro.core.protocol", "ReferenceStateProtocol.on_arrival",
     "core.protocol", None, None),
    ("repro.core.protocol", "ReferenceStateProtocol.after_session",
     "core.protocol", None, None),
    ("repro.core.protocol", "check_session_payload", "core.protocol",
     None, None),
    ("repro.platform.registry", "JourneyRunner.step", "platform.registry",
     None, _journey_of),
    ("repro.sim.trace", "TraceWriter.emit", "sim.trace", None, None),
    ("repro.sim.trace", "TraceWriter.write", "sim.trace", None, None),
    ("repro.sim.trace", "append_events", "sim.trace", None, None),
    ("repro.sim.trace", "merge_trace_files", "sim.trace", None, None),
    ("repro.sim.shard", "run_fleet", "sim.shard", None, None),
    ("repro.sim.fleet", "FleetEngine.run", "sim.fleet", None, None),
    ("repro.service.wire", "encode_frame", "service.wire.encode",
     _length, None),
    ("repro.service.wire", "decode_body", "service.wire.decode",
     None, None),
    ("repro.service.wire", "read_frame", "service.wire.read", _length, None),
    ("repro.service.batching", "MicroBatcher.flush", "service.batching",
     None, None),
    ("repro.service.cache", "VerdictCache.get", "service.cache",
     lambda _args, result: result is not None, None),
    ("repro.service.cache", "VerdictCache.put", "service.cache", None, None),
    ("repro.service.client", "ServiceClient.request", "service.cluster",
     None, None),
)


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, current in list(vars(module).items()):
            if current is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target; call after the program's modules are imported."""
    for module_name, attribute, layer, value, op_of in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        entry = "%s:%s" % (module_name, attribute)
        if not owner_name:
            original = getattr(module, attribute)
            _rebind_everywhere(
                original, tracer.wrap(original, layer, entry, value, op_of)
            )
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped = tracer.wrap(raw.__func__, layer, entry, value, op_of)
            setattr(owner, method, classmethod(wrapped))
        else:
            setattr(owner, method, tracer.wrap(raw, layer, entry, value, op_of))


# -- analysis ------------------------------------------------------------------


def covered_seconds(intervals: Iterable[Tuple[float, float]],
                    low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(low, start), min(high, end))
        for start, end in intervals if end > low and start < high
    )
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in clipped:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span, in span order."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered_seconds(
            children.get(index, ()), span.start, span.end
        )
        for index, span in enumerate(spans)
    ]


def summarize(spans: Sequence[Span], phase: str) -> Dict[str, Dict[str, Any]]:
    """Per-layer totals over the spans of one phase.

    For every layer: ``self`` seconds (synchronous spans only),
    ``inclusive`` seconds, ``calls`` (boundary entries), and per entry
    point its call count and the sum of what its value hook recorded
    (lengths, cache hits, batch items submitted and passed).
    """
    own = self_times(spans)
    layers: Dict[str, Dict[str, Any]] = {}
    for span, self_seconds in zip(spans, own):
        if span.phase != phase:
            continue
        totals = layers.setdefault(span.layer, {
            "self": 0.0, "inclusive": 0.0, "calls": 0, "entries": {},
        })
        if not span.is_async:
            totals["self"] += self_seconds
        totals["inclusive"] += span.end - span.start
        totals["calls"] += 1
        entry = totals["entries"].setdefault(
            span.entry.split(":", 1)[1], {"calls": 0, "value": 0, "passed": 0}
        )
        entry["calls"] += 1
        if isinstance(span.value, tuple):
            items, passed = span.value
            entry["value"] += items
            entry["passed"] += items if passed else 0
        elif span.value is not None:
            entry["value"] += int(span.value)
    return layers


def export_summary(tracer: Tracer) -> Dict[str, Any]:
    """What a traced process reports back, per phase.

    ``layers`` is :func:`summarize`; ``calls`` counts every call of each
    entry point, re-entries included (``layers`` counts boundaries).
    """
    return {
        phase: {
            "layers": summarize(tracer.spans, phase),
            "calls": {
                entry.split(":", 1)[1]: count
                for (span_phase, entry), count in tracer.calls.items()
                if span_phase == phase
            },
        }
        for phase in ("setup", "measure")
    }
