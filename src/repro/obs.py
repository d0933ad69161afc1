"""Unified observability: process-local metrics, spans, and telemetry.

Every tier of the stack keeps *some* accounting — the verification
server's request counters, the gateway's failover tallies, the fleet
pool's supervision record — but each invented its own shape, and none
of them can answer latency questions ("what was p99 verify time?",
"how long does a hop take?").  This module is the one shared substrate:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  primitive instruments.  Histograms keep a **bounded** reservoir
  (default 512 samples) plus exact count/sum/min/max, so a
  million-journey fleet pays a fixed memory cost per metric and still
  reports p50/p95/p99.
* :class:`MetricsRegistry` — a named bag of instruments with a
  versioned :meth:`~MetricsRegistry.snapshot` (the ``telemetry`` block
  the ``stats`` wire op returns) and snapshot *merging*, so per-worker
  registries collected over the fleet result channel fold into one
  fleet-wide view.
* spans — :meth:`MetricsRegistry.span` times a ``with`` block into a
  histogram; the hot paths that already measure phases
  (:class:`~repro.platform.registry.JourneyRunner`) feed their observed
  durations straight into histograms instead.

Zero dependencies, and near-zero cost when disabled: with
``REPRO_OBS_DISABLE=1`` (or :func:`set_obs_enabled(False)`),
:func:`new_registry` hands out the shared :data:`NULL_REGISTRY` whose
instruments are no-ops — the hot path pays one attribute lookup and an
empty call.  The fleet bench gates the *enabled* path at ≤2% overhead.

Everything here is wall-clock side-band data: telemetry never feeds
the deterministic surface (traces, signatures, outcomes) and two runs
of the same seed may legitimately report different latencies.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "TELEMETRY_SCHEMA",
    "STATS_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "new_registry",
    "obs_enabled",
    "set_obs_enabled",
    "percentile",
]

#: Version of the ``telemetry`` snapshot dict.  Bump on incompatible
#: structural changes so consumers (CLI renderers, CI artifacts) can
#: refuse to misread an old capture.
TELEMETRY_SCHEMA = "repro-telemetry/1"

#: Version of the unified ``stats()`` envelope every service-tier
#: endpoint (single verifier, :class:`~repro.service.server.ServiceThread`,
#: cluster gateway) returns: ``schema`` / ``role`` / ``instance`` /
#: ``wire`` / ``counters`` / ``telemetry`` / ``config`` are guaranteed
#: present with these exact keys.
STATS_SCHEMA = "repro-stats/1"

#: Default histogram reservoir size.  512 float samples ≈ 4KiB per
#: metric — small enough to hold dozens of histograms per process,
#: large enough that nearest-rank p99 rests on real observations.
DEFAULT_MAX_SAMPLES = 512


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS_DISABLE", "").strip().lower() not in (
        "1", "true", "yes", "on",
    )


_enabled = _env_enabled()


def obs_enabled() -> bool:
    """Whether new registries collect metrics (process-wide switch)."""
    return _enabled


def set_obs_enabled(flag: bool) -> bool:
    """Flip metrics collection on/off; returns the previous setting.

    Affects registries created *after* the call (the disabled path is a
    construction-time decision, which is what keeps the enabled check
    off the hot path entirely).
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over ``samples`` (same convention as the
    loadgen's latency reporting).  Empty input returns 0.0."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
    return ordered[rank]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time float (queue depth, hit rate, backends up)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Bounded-reservoir distribution with exact count/sum/min/max.

    The first ``max_samples`` observations are kept verbatim; later
    ones overwrite the reservoir round-robin, so the buffer always
    holds a recent-biased sample of fixed size while ``count``/``sum``
    stay exact.  Percentiles are nearest-rank over the reservoir.
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_cursor",
                 "max_samples")

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.max_samples = max(1, int(max_samples))
        self._samples: List[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            self._samples[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.max_samples

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def snapshot(self, include_samples: bool = False) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
            "p50": percentile(self._samples, 0.50) if self._samples else None,
            "p95": percentile(self._samples, 0.95) if self._samples else None,
            "p99": percentile(self._samples, 0.99) if self._samples else None,
            "sampled": len(self._samples),
        }
        if include_samples:
            data["samples"] = list(self._samples)
        return data


class _SpanTimer:
    """``with`` block → one histogram observation of its wall time."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._started = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._histogram.observe(time.perf_counter() - self._started)


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Instrument lookups are idempotent (``counter("x")`` twice returns
    the same object), so call sites may either cache the instrument —
    the hot-path idiom — or look it up ad hoc.  Thread-safe for
    instrument *creation*; individual updates are plain attribute
    arithmetic, which is atomic enough under the GIL for accounting
    data that is explicitly non-deterministic side-band output.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- instruments -------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter())
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge())
        return instrument

    def histogram(self, name: str,
                  max_samples: int = DEFAULT_MAX_SAMPLES) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(max_samples)
                )
        return instrument

    def span(self, name: str) -> _SpanTimer:
        """Time a ``with`` block into the ``<name>.seconds`` histogram."""
        return _SpanTimer(self.histogram(name + ".seconds"))

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, include_samples: bool = False) -> Dict[str, Any]:
        """The versioned ``telemetry`` block.

        ``include_samples`` additionally embeds each histogram's raw
        reservoir — the form snapshots must travel in when they will be
        merged (percentiles cannot be merged, samples can).
        """
        return {
            "schema": TELEMETRY_SCHEMA,
            "enabled": True,
            "counters": {
                name: c.snapshot() for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.snapshot() for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot(include_samples=include_samples)
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold a snapshot (ideally sample-bearing) into this registry.

        Counters and histogram count/sum add; gauges keep the maximum
        observed value (a merged snapshot answers "worst seen across
        workers"); histogram reservoirs concatenate, truncated to the
        local bound round-robin like live observations.
        """
        if not snapshot:
            return
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(int(value))
        for name, value in (snapshot.get("gauges") or {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, float(value)))
        for name, data in (snapshot.get("histograms") or {}).items():
            histogram = self.histogram(name)
            samples = data.get("samples")
            count = int(data.get("count") or 0)
            if samples:
                for sample in samples:
                    histogram.observe(float(sample))
                # Samples carry their own count/sum contributions;
                # account for observations the bounded reservoir
                # dropped at the source.
                extra = count - len(samples)
                if extra > 0:
                    histogram.count += extra
                    histogram.total += float(data.get("sum") or 0.0) - sum(
                        float(s) for s in samples
                    )
            elif count:
                histogram.count += count
                histogram.total += float(data.get("sum") or 0.0)
                for bound in (data.get("min"), data.get("max")):
                    if bound is None:
                        continue
                    bound = float(bound)
                    if histogram.min is None or bound < histogram.min:
                        histogram.min = bound
                    if histogram.max is None or bound > histogram.max:
                        histogram.max = bound


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def snapshot(self) -> int:
        return 0


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def snapshot(self) -> float:
        return 0.0


class _NullHistogram:
    __slots__ = ()
    count = 0
    total = 0.0
    samples: List[float] = []

    def observe(self, value: float) -> None:
        pass

    def snapshot(self, include_samples: bool = False) -> Dict[str, Any]:
        return {"count": 0, "sum": 0.0, "min": None, "max": None,
                "mean": None, "p50": None, "p95": None, "p99": None,
                "sampled": 0}


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


class NullRegistry:
    """The disabled path: every instrument is a shared no-op.

    Call sites hold ordinary-looking instruments, so the only cost of
    disabled telemetry is an attribute access plus an empty method —
    no branches in the instrumented code itself.
    """

    enabled = False

    _counter = _NullCounter()
    _gauge = _NullGauge()
    _histogram = _NullHistogram()
    _span = _NullSpan()

    def counter(self, name: str) -> _NullCounter:
        return self._counter

    def gauge(self, name: str) -> _NullGauge:
        return self._gauge

    def histogram(self, name: str,
                  max_samples: int = DEFAULT_MAX_SAMPLES) -> _NullHistogram:
        return self._histogram

    def span(self, name: str) -> _NullSpan:
        return self._span

    def snapshot(self, include_samples: bool = False) -> Dict[str, Any]:
        return {"schema": TELEMETRY_SCHEMA, "enabled": False,
                "counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: Optional[Dict[str, Any]]) -> None:
        pass


#: The shared disabled registry (:class:`NullRegistry` is stateless).
NULL_REGISTRY = NullRegistry()


def new_registry() -> Any:
    """A fresh live registry, or :data:`NULL_REGISTRY` when disabled."""
    return MetricsRegistry() if _enabled else NULL_REGISTRY
