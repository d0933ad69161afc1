"""Client-side load generators: a closed loop and an open loop.

Both send raw requests through a client returned by
``repro.service.connect()`` and keep every response for checking.

* :func:`closed_loop` keeps a fixed number of requests in flight: each
  finished request releases its slot to the next one, so a slower
  server receives less load.  Its figure is throughput.
* :func:`open_loop` sends request ``i`` when it is due, at
  ``start + i / rate``, whether or not earlier ones have finished.  A
  request's latency is timed from its due time, not from when the
  generator got round to sending it, so a stall of the server *or* of
  the generator delays every request due during it and shows up as
  latency; the generator's own lateness is reported separately.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Request = Tuple[str, Dict[str, Any], Any]


def normalized(value: Any) -> Any:
    """Tuples as lists, recursively: wire form of an in-process value."""
    if isinstance(value, (list, tuple)):
        return [normalized(item) for item in value]
    if isinstance(value, dict):
        return {key: normalized(item) for key, item in value.items()}
    return value


def response_ok(request: Request, response: Optional[Dict[str, Any]]) -> bool:
    """Whether ``response`` carries exactly the captured expected verdict.

    A dropped request, an ``error`` or ``busy`` status, and any verdict
    other than the in-process ground truth are all failures.
    """
    if response is None or response.get("status") != "ok":
        return False
    _op, _payload, expected = request
    return normalized(response.get("verdict")) == normalized(expected)


async def _send(client: Any, request: Request) -> Optional[Dict[str, Any]]:
    try:
        return await client.request(request[1])
    except Exception:  # noqa: BLE001 - a lost request is a failed op
        return None


async def closed_loop(client: Any, requests: Sequence[Request],
                      window: int) -> List[Any]:
    """Replay ``requests`` with ``window`` in flight; the responses."""
    responses: List[Any] = [None] * len(requests)
    cursor = iter(range(len(requests)))

    async def lane() -> None:
        for index in cursor:
            responses[index] = await _send(client, requests[index])

    await asyncio.gather(*(lane() for _ in range(window)))
    return responses


async def open_loop(
    client: Any,
    requests: Sequence[Request],
    rate: float,
    stall: Optional[Callable[[int], None]] = None,
) -> List[Tuple[float, float, Optional[float], Any]]:
    """Send at a fixed ``rate``; one ``(due, sent, done, response)`` each.

    ``done`` is ``None`` for a request that failed or was refused (its
    latency is infinite).  ``stall(i)`` is called before request ``i``
    is scheduled — a test hook for a generator that falls behind.
    """
    loop = asyncio.get_running_loop()
    results: List[Any] = [None] * len(requests)

    async def one(index: int, due: float) -> None:
        sent = loop.time()
        response = await _send(client, requests[index])
        done = loop.time()
        ok = response is not None and response.get("status") == "ok"
        results[index] = (due, sent, done if ok else None, response)

    tasks = []
    start = loop.time() + 0.005
    for index in range(len(requests)):
        if stall is not None:
            stall(index)
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(index, due)))
    await asyncio.gather(*tasks)
    return results


def latencies_ms(samples: Sequence[Tuple[float, float, Optional[float], Any]]
                 ) -> List[float]:
    """Latency from due time per sample; failed requests are infinite."""
    return [
        (done - due) * 1000.0 if done is not None else math.inf
        for due, _sent, done, _response in samples
    ]


def lateness_ms(samples: Sequence[Tuple[float, float, Optional[float], Any]]
                ) -> List[float]:
    """How late the generator sent each request, in ms."""
    return [(sent - due) * 1000.0 for due, sent, _done, _response in samples]
