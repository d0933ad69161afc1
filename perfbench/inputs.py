"""Untimed input generation: everything a run measures, derived from its seed.

Usage: ``python3 perfbench/inputs.py SEED OUT_PATH``

Runs in its own process before any timing starts, so neither the
capture cost nor its memory shows in a measured process.  Writes a
pickle (read back only by ``run.py`` from the same checkout) holding:

a warm-up stream and the measured stream of ``gateway-mixed``, each
a list of ``(op, payload, expected)`` captured from fleet journeys by
``journey_request_stream``, the warm-up from different seeds and
checked to share no request with the measured stream.  The measured
stream holds the verifies (10% of them forged by ``corrupt_requests``)
and session checks of its journeys, shuffled.  The warm-up
holds at least four verifies of every signer in the measured stream.
The measured stream is cut into slices; measured rounds cycle through
them.
"""

from __future__ import annotations

import pickle
import sys
from random import Random
from typing import Any, Dict, List, Tuple

from repro.crypto.canonical import canonical_encode
from repro.sim import (
    FleetConfig,
    corrupt_requests,
    derive_substream,
    journey_request_stream,
)

#: Journeys captured for the measured stream, and the number of slices
#: (one slice per measured round, cycled) it is cut into.
GATEWAY_JOURNEYS = 60
SLICES = 4
#: Journeys per warm-up capture, and the most captures drawn to reach
#: ``WARMUP_VERIFIES`` verifies from every measured signer.
WARMUP_JOURNEYS = 80
WARMUP_DRAWS = 3
#: Sequential verifies per signer in the warm-up: one more than the
#: verifier's lazy key-table threshold (``_Y_TABLE_THRESHOLD = 3``), so
#: every table the measured stream needs is built inside set-up.
WARMUP_VERIFIES = 4
#: Share of verify signatures forged by corrupt_requests.
FORGED_FRACTION = 0.1

Request = Tuple[str, Dict[str, Any], Any]


def _key(request: Request) -> bytes:
    return canonical_encode(request[1])


def _as_tuples(requests) -> List[Request]:
    return [(r.op, r.payload, r.expected) for r in requests]


def warmup_stream(seed: int, measured: List[Request]) -> List[Request]:
    """Four honest verifies per signer and one session check.

    Captures more warm-up journeys until every signer of ``measured``
    has its four; fails if ``WARMUP_DRAWS`` captures do not get there.
    """
    exclude = {_key(r) for r in measured}
    needed = {r[1]["signer"] for r in measured if r[0] == "verify"}
    per_signer: Dict[str, int] = {}
    chosen: List[Request] = []
    sessions: List[Request] = []
    for draw in range(WARMUP_DRAWS):
        stream = journey_request_stream(FleetConfig(
            num_agents=WARMUP_JOURNEYS,
            seed=derive_substream(seed, "warmup", draw),
        ))
        for request in _as_tuples(stream.verify_requests):
            signer = request[1]["signer"]
            if (per_signer.get(signer, 0) < WARMUP_VERIFIES
                    and _key(request) not in exclude):
                per_signer[signer] = per_signer.get(signer, 0) + 1
                chosen.append(request)
        sessions += [r for r in _as_tuples(stream.session_requests)
                     if _key(r) not in exclude]
        short = sorted(signer for signer in needed
                       if per_signer.get(signer, 0) < WARMUP_VERIFIES)
        if not short and sessions:
            return chosen + sessions[:1]
    raise ValueError("warm-up captures leave signers short of %d verifies: %s"
                     % (WARMUP_VERIFIES, short))


def service_inputs(seed: int) -> Dict[str, Any]:
    stream = journey_request_stream(FleetConfig(
        num_agents=GATEWAY_JOURNEYS, seed=seed,
    ))
    verifies, _ = corrupt_requests(
        stream.verify_requests, FORGED_FRACTION,
        seed=derive_substream(seed, "forge"),
    )
    measured = _as_tuples(verifies) + _as_tuples(stream.session_requests)
    Random(derive_substream(seed, "order")).shuffle(measured)
    if len({_key(r) for r in measured}) != len(measured):
        raise ValueError("captured stream repeats a request")
    return {
        "warmup": warmup_stream(seed, measured),
        "slices": [measured[index::SLICES] for index in range(SLICES)],
    }


def main() -> None:
    seed, out_path = int(sys.argv[1]), sys.argv[2]
    inputs = service_inputs(seed)
    with open(out_path, "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
