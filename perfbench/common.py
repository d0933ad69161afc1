"""Shared plumbing of the benchmark: paths, pinned environment, child
processes, host fingerprint, calibration loop and small statistics.

Everything here is benchmark code; the program under test is reached
only through ``src/repro`` on the child processes' ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Working space for inputs, traces and result files (gitignored).
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Pinned for every child: the pure-Python arithmetic backend (gmpy2 is
#: optional and absent on the reference host), no persistent fixed-base
#: table cache (tables are rebuilt inside set-up, never inherited from a
#: per-user cache directory), and a fixed hash seed.
PINNED_ENV = {
    "REPRO_CRYPTO_BACKEND": "python",
    "REPRO_TABLE_CACHE": "off",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    # Telemetry stays at its default (on): it is part of the program.
    env.pop("REPRO_OBS_DISABLE", None)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


#: Children started by :func:`spawn`; :func:`stop_all` reaps them.
_CHILDREN: List[subprocess.Popen] = []


def spawn(script: str, *args: str) -> subprocess.Popen:
    """Start ``perfbench/<script>`` as a line-oriented child process."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, script), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
        bufsize=1,
    )
    _CHILDREN.append(proc)
    return proc


def stop_all() -> None:
    """Stop every child still running (after an error) and wait for it."""
    while _CHILDREN:
        stop(_CHILDREN.pop())


def read_message(proc: subprocess.Popen) -> Dict[str, Any]:
    """Next JSON line a child wrote to its stdout."""
    line = proc.stdout.readline()
    if not line:
        code = proc.wait(timeout=30)
        raise BenchError(
            "child %s exited (code %s) without answering"
            % (" ".join(proc.args[1:2]), code)
        )
    return json.loads(line)


def send(proc: subprocess.Popen, message: Dict[str, Any]) -> None:
    proc.stdin.write(json.dumps(message) + "\n")
    proc.stdin.flush()


def stop(proc: subprocess.Popen) -> None:
    """Close a child's stdin (its signal to exit) and wait for it."""
    if proc.poll() is None:
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=20)
    for stream in (proc.stdin, proc.stdout):
        if stream is not None and not stream.closed:
            stream.close()


def emit(message: Dict[str, Any]) -> None:
    """Child side of :func:`read_message`."""
    sys.stdout.write(json.dumps(message, sort_keys=True) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """This process's VmHWM (peak resident set) in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM not available in /proc/self/status")


# -- host diagnostics ----------------------------------------------------------


def _calibration_once() -> None:
    modulus = (1 << 512) - 569
    acc = 0
    for i in range(120):
        acc ^= pow(0x1234567890ABCDEF1234567890ABCDEF + i, 65537 + i, modulus)
    digest = hashlib.sha256()
    for _ in range(1500):
        digest.update(b"reference-state" * 4)
    table = {}
    for i in range(15000):
        table[i] = i
    for i in range(15000):
        del table[i]


def calibrate(rounds: int = 7) -> float:
    """``host.calib_ms``: median time of a fixed pure-Python loop.

    A diagnostic that tells a slow host phase from a regression; the
    benchmark never divides a metric by it.
    """
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        _calibration_once()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def _commit() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint() -> Dict[str, Any]:
    """Machine and build identity recorded beside every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": PINNED_ENV["REPRO_CRYPTO_BACKEND"],
        "table_cache": PINNED_ENV["REPRO_TABLE_CACHE"],
        "commit": _commit(),
    }


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in ``[0, 1]``)."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> List[float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) < 2:
        raise BenchError("quartiles of fewer than two values")
    return statistics.quantiles(values, n=4, method="inclusive")


def slow_quartile(values: Sequence[float], higher_is_better: bool) -> float:
    """The quartile on the slow side: what three units in four reach.

    The host's speed swings by up to 1.5x for seconds at a time.  How
    much of a run falls in a fast phase moves the median and the mean of
    its units; the slow quartile of many short units stays put.
    """
    lower, _, upper = quartiles(values)
    return lower if higher_is_better else upper


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True)


def load_benchmark_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load_benchmark_spec()[kind]}


def ensure_work_dir(*parts: str) -> str:
    path = os.path.join(WORK_DIR, *parts)
    os.makedirs(path, exist_ok=True)
    return path
