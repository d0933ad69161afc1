"""Self-tests of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import drive  # noqa: E402

sys.path.insert(0, common.SRC)
import inputs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _layer_metric_names():
    empty = {"layers": {}, "calls": {}}
    metrics = run.layer_metrics(
        {"setup": empty, "measure": empty},
        {"ops": 1, "traced_wall": 1.0, "overhead_pct": 0.0},
    )
    return set(metrics) | {"host.calib_ms"}


def test_names_match_benchmark_json():
    spec = common.load_benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _layer_metric_names() == set(common.metric_units("per_layer"))
    assert set(common.metric_units("end_to_end")) == {
        "setup_s", "throughput_per_s", "latency_p50_ms", "peak_rss_mb",
    }
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert "%d req/s" % run.OPEN_RATE in whys["gateway-mixed"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_passes_its_correctness_gate(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(common.metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


# -- inputs --------------------------------------------------------------------


def test_warmup_covers_every_measured_signer():
    generated = inputs.service_inputs(7)
    measured = [r for piece in generated["slices"] for r in piece]
    warmup = generated["warmup"]
    counts = collections.Counter(
        r[1]["signer"] for r in warmup if r[0] == "verify")
    for signer in {r[1]["signer"] for r in measured if r[0] == "verify"}:
        assert counts[signer] >= inputs.WARMUP_VERIFIES, signer
    assert [r[0] for r in warmup].count("check-session") == 1
    measured_keys = {inputs._key(r) for r in measured}
    assert not any(inputs._key(r) in measured_keys for r in warmup)


def test_warmup_fails_when_a_signer_cannot_be_covered(monkeypatch):
    monkeypatch.setattr(inputs, "WARMUP_JOURNEYS", 4)
    measured = [("verify", {"signer": "no-such-host"}, True)]
    with pytest.raises(ValueError, match="no-such-host"):
        inputs.warmup_stream(7, measured)


# -- statistics ----------------------------------------------------------------


def test_slow_quartile_takes_the_slow_side():
    rates = [50.0, 40.0, 30.0, 20.0, 10.0]
    assert common.slow_quartile(rates, higher_is_better=True) == 20.0
    assert common.slow_quartile(rates, higher_is_better=False) == 40.0
    with pytest.raises(common.BenchError):
        common.slow_quartile([1.0], higher_is_better=True)


# -- self time -----------------------------------------------------------------


def _span(parent, start, end, layer="x"):
    span = tracing.Span("m:f", layer, parent, None, "measure")
    span.start, span.end = start, end
    return span


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span(None, 0.0, 10.0),   # root
        _span(0, 1.0, 4.0),       # child A
        _span(0, 3.0, 6.0),       # child B overlaps A: union 1..6
        _span(1, 2.0, 3.0),       # grandchild under A
        _span(0, 9.0, 12.0),      # child running past the root's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_covered_seconds_merges_and_clips():
    assert tracing.covered_seconds([], 0, 1) == 0.0
    assert tracing.covered_seconds(
        [(0.5, 2.0), (1.0, 1.5), (3.0, 4.0), (-1.0, 0.2)], 0.0, 3.5
    ) == pytest.approx(0.2 + 1.5 + 0.5)


def test_wrapped_calls_nest_and_skip_same_layer_reentry():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return b"abc"

    def inner():
        return wrapped_leaf()

    def outer():
        return wrapped_inner() + wrapped_inner_again()

    wrapped_leaf = tracer.wrap(leaf, "codec", "m:leaf",
                               value=tracing._length)
    wrapped_inner = tracer.wrap(inner, "state", "m:inner")
    wrapped_inner_again = tracer.wrap(inner, "state", "m:inner")
    wrapped_outer = tracer.wrap(outer, "state", "m:outer")
    wrapped_leaf()                      # not recording: no span
    tracer.phase = "measure"
    assert wrapped_outer() == b"abcabc"
    layers = tracing.summarize(tracer.spans, "measure")
    # outer [0, 5]; inner re-enters "state" (no span) and calls leaf
    # twice, [1, 2] and [3, 4]: two boundary entries of "codec".
    assert layers["state"]["calls"] == 1
    assert layers["codec"]["calls"] == 2
    assert layers["codec"]["entries"]["leaf"]["value"] == 6
    assert layers["state"]["self"] == pytest.approx(3.0)
    assert layers["codec"]["self"] == pytest.approx(2.0)
    assert tracer.calls[("measure", "m:inner")] == 2


# -- the open-loop generator ---------------------------------------------------


class _FakeClient:
    def __init__(self, service_seconds):
        self.service_seconds = service_seconds

    async def request(self, payload):
        await asyncio.sleep(self.service_seconds)
        return {"status": "ok", "verdict": payload["expect"]}


def test_open_loop_stall_shows_as_lateness_and_latency_not_rate():
    rate, count, stall_at, stall_seconds = 400.0, 400, 100, 0.25
    requests = [("verify", {"expect": True}, True)] * count

    def stall(index):
        if index == stall_at:
            time.sleep(stall_seconds)   # the generator falls behind

    samples = asyncio.run(drive.open_loop(
        _FakeClient(0.001), requests, rate, stall=stall))
    assert all(drive.response_ok(r, s[3]) for r, s in zip(requests, samples))
    lateness = drive.lateness_ms(samples)
    latencies = drive.latencies_ms(samples)
    assert common.percentile(lateness, 0.99) > 0.5 * stall_seconds * 1000
    assert max(latencies) > stall_seconds * 1000
    # Requests keep their schedule: the stalled ones are sent late, in a
    # burst, so the achieved rate over the leg stays the offered one.
    dues = [s[0] for s in samples]
    sent = [s[1] for s in samples]
    assert (count - 1) / (dues[-1] - dues[0]) == pytest.approx(rate)
    assert count / (max(sent) - dues[0]) > 0.9 * rate


def test_failed_requests_are_infinitely_late_and_fail_the_check():
    request = ("verify", {}, True)
    assert not drive.response_ok(request, None)
    assert not drive.response_ok(request, {"status": "busy"})
    assert not drive.response_ok(request, {"status": "ok", "verdict": False})
    assert drive.response_ok(("check-session", {}, {"a": (1, 2)}),
                             {"status": "ok", "verdict": {"a": [1, 2]}})
    assert drive.latencies_ms([(0.0, 0.0, None, None)]) == [float("inf")]
