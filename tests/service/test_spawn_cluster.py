"""``python -m repro.service spawn-cluster`` cleans up on SIGTERM.

The launcher owns its verifier subprocesses: whatever stops it — Ctrl-C
or the SIGTERM a supervisor (or CI's stop step) sends — must stop them
too.  No speed is asserted; the deadlines only bound a hang.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service.cluster import _subprocess_env

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)

#: Generous bounds on launcher start-up and on the verifier's exit.
_DEADLINE_SECONDS = 120.0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _lines(stream, sink: "queue.Queue") -> None:
    for line in stream:
        sink.put(line.strip())
    sink.put(None)


def test_sigterm_stops_every_spawned_verifier():
    launcher = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "spawn-cluster",
         "--verifiers", "1", "--fleet-hosts", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_subprocess_env(),
        text=True,
    )
    lines: "queue.Queue" = queue.Queue()
    threading.Thread(
        target=_lines, args=(launcher.stdout, lines), daemon=True
    ).start()
    verifier_pid = None
    try:
        deadline = time.monotonic() + _DEADLINE_SECONDS
        while True:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            assert line is not None, "launcher exited before listening"
            if line.startswith("verifier pid="):
                verifier_pid = int(line.split()[1].split("=")[1])
            if line.startswith("cluster listening on"):
                break
        assert verifier_pid is not None and _alive(verifier_pid)

        launcher.send_signal(signal.SIGTERM)
        launcher.wait(timeout=_DEADLINE_SECONDS)

        deadline = time.monotonic() + _DEADLINE_SECONDS
        while _alive(verifier_pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _alive(verifier_pid), (
            "verifier pid %d outlived its SIGTERMed launcher" % verifier_pid
        )
    finally:
        if launcher.poll() is None:
            launcher.kill()
            launcher.wait()
        if verifier_pid is not None and _alive(verifier_pid):
            os.kill(verifier_pid, signal.SIGKILL)
