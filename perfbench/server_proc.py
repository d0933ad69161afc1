"""The measured server process of the ``gateway-mixed`` workload.

Usage: ``python3 perfbench/server_proc.py [--trace SPANS_PATH]``

It serves a ``ClusterGateway`` in front of one ``VerificationService``
with the default ``ServiceConfig``; both run on this process's one
event loop and talk over loopback TCP.  On start the process prints
``{"port": P}``.  It then answers JSON commands on stdin:

* ``{"cmd": "open"}`` stops the current endpoint and opens a fresh one
  (empty verdict caches; the process-wide key tables stay warm), so a
  measured round never meets verdicts cached by an earlier round or by
  the warm-up; prints ``{"port": P}``;
* ``{"cmd": "report"}`` stops the current endpoint and prints peak RSS,
  the summed ``stats()`` of every endpoint opened by ``open`` and, when
  traced, the span summary.

End of stdin ends the process.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Dict, List, Optional

import common

spans_path = sys.argv[sys.argv.index("--trace") + 1] if "--trace" in sys.argv \
    else None

import repro.service as service  # noqa: E402 - imports count as set-up

tracer = None
if spans_path is not None:
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.phase = "setup"


class Endpoint:
    """One gateway in front of one verifier."""

    def __init__(self) -> None:
        self.verifier = service.VerificationService(service.ServiceConfig())
        self.gateway: Optional[Any] = None

    async def start(self) -> int:
        address = await self.verifier.start()
        self.gateway = service.ClusterGateway(
            service.ClusterConfig(backends=(address,))
        )
        return (await self.gateway.start())[1]

    async def stop(self) -> Dict[str, Any]:
        stats = {"verifier": self.verifier.stats(),
                 "gateway": self.gateway.stats()}
        await self.gateway.stop()
        await self.verifier.stop()
        return stats


def _add(total: Dict[str, float], counts: Dict[str, Any]) -> None:
    for name, value in counts.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            total[name] = total.get(name, 0) + value


def measured_stats(closed: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Batcher and gateway counters summed over the measured endpoints."""
    totals: Dict[str, Dict[str, float]] = {"batching": {}, "gateway": {}}
    for stats in closed:
        _add(totals["batching"], stats["verifier"]["batching"])
        _add(totals["gateway"], stats["gateway"]["counters"])
    return totals


async def main() -> None:
    loop = asyncio.get_running_loop()
    endpoint = Endpoint()
    common.emit({"port": await endpoint.start()})
    closed: List[Dict[str, Any]] = []
    measuring = False
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            break
        command = json.loads(line)
        if tracer is not None:
            tracer.phase = None
        stats = await endpoint.stop()
        if measuring:
            closed.append(stats)
        if command["cmd"] == "open":
            endpoint = Endpoint()
            port = await endpoint.start()
            measuring = True
            if tracer is not None:
                tracer.phase = "measure"
            common.emit({"port": port})
        elif command["cmd"] == "report":
            report: Dict[str, Any] = {
                "peak_rss_mb": common.peak_rss_mb(),
                "stats": measured_stats(closed),
            }
            if tracer is not None:
                tracer.dump(spans_path)
                report["layers"] = tracing.export_summary(tracer)
            common.emit({"report": report})
            return
    await endpoint.stop()


if __name__ == "__main__":
    asyncio.run(main())
