"""``python -m repro.service spawn-cluster`` cleans up on SIGTERM.

The launcher owns its verifier subprocesses: whatever stops it — Ctrl-C
or the SIGTERM a supervisor (or CI's stop step) sends — must stop them
too, wherever in the event loop the signal lands.  No speed is
asserted; the deadlines only bound a hang.
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


def _drain(sink: "queue.Queue", seen: list) -> list:
    """Everything the launcher printed so far (for failure messages)."""
    while True:
        try:
            line = sink.get_nowait()
        except queue.Empty:
            return seen
        if line is not None:
            seen.append(line)


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
    reader = threading.Thread(
        target=_lines, args=(launcher.stdout, lines), daemon=True
    )
    reader.start()
    seen: list = []
    verifier_pid = None
    try:
        deadline = time.monotonic() + _DEADLINE_SECONDS
        while True:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            assert line is not None, (
                "launcher exited with code %r before listening; output: %r"
                % (launcher.wait(), seen)
            )
            seen.append(line)
            if line.startswith("verifier pid="):
                verifier_pid = int(line.split()[1].split("=")[1])
            if line.startswith("cluster listening on"):
                break
        assert verifier_pid is not None and _alive(verifier_pid), seen

        launcher.send_signal(signal.SIGTERM)
        try:
            returncode = launcher.wait(timeout=_DEADLINE_SECONDS)
        except subprocess.TimeoutExpired:
            returncode = None
        else:
            reader.join(timeout=_DEADLINE_SECONDS)  # the last lines
        assert returncode == 128 + signal.SIGTERM, (
            "launcher return code %r after SIGTERM (None: still running "
            "after %.0fs); output: %r"
            % (returncode, _DEADLINE_SECONDS, _drain(lines, seen))
        )

        deadline = time.monotonic() + _DEADLINE_SECONDS
        while _alive(verifier_pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _alive(verifier_pid), (
            "verifier pid %d outlived its SIGTERMed launcher (return code "
            "%r); output: %r"
            % (verifier_pid, returncode, _drain(lines, seen))
        )
    finally:
        if launcher.poll() is None:
            launcher.kill()
            launcher.wait()
        reader.join(timeout=_DEADLINE_SECONDS)
        launcher.stdout.close()
        if verifier_pid is not None and _alive(verifier_pid):
            os.kill(verifier_pid, signal.SIGKILL)


#: A process whose gateway-side connection reader is where a SIGTERM's
#: ``SystemExit`` lands.  It runs in a child: an interrupt raised
#: through asyncio's task machinery leaves CPython 3.11's recursion
#: counter off, which breaks later ``ast.parse`` calls in the process
#: that saw it.
_READER_INTERRUPT = """
import asyncio, signal
from repro.service.client import _Connection

class Reader:
    async def readexactly(self, count):
        raise SystemExit(128 + signal.SIGTERM)

class Writer:
    def is_closing(self):
        return False

    def write(self, data):
        pass

waiters = []

async def serve():
    connection = _Connection(Reader(), Writer(), 1024)
    waiters.append(asyncio.get_running_loop().create_future())
    connection.inflight["probe"] = waiters[0]
    # The reader task's first step runs before this one resumes.
    for _ in range(3):
        await asyncio.sleep(0)
    print("still serving", flush=True)

try:
    asyncio.run(serve())
finally:
    print("waiter:", type(waiters[0].exception()).__name__, flush=True)
"""


def test_an_interrupt_in_a_connection_reader_reaches_the_event_loop():
    """The launcher's gateway reads backend responses on reader tasks.
    A SIGTERM whose handler raises while such a task runs must stop the
    loop; a reader that swallowed it left the launcher serving, so its
    verifiers were never stopped.  Its waiters fail as a lost
    connection, not with the interrupt."""
    child = subprocess.run(
        [sys.executable, "-c", _READER_INTERRUPT],
        capture_output=True, text=True, env=_subprocess_env(),
        timeout=_DEADLINE_SECONDS,
    )
    assert child.returncode == 128 + signal.SIGTERM, (
        child.returncode, child.stdout, child.stderr
    )
    assert child.stdout.splitlines() == ["waiter: ServiceError"], (
        child.stdout, child.stderr
    )
