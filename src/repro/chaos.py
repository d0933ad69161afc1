"""Deterministic seeded fault injection for the whole stack.

The paper's subject is surviving misbehaving hosts; this module makes
our *own* execution substrate misbehave on demand so the supervision
machinery can be exercised deterministically.  A :class:`FaultPlan` is
an immutable, picklable description of every fault a run will suffer —
worker crashes, stalls, truncated result pipes, backend SIGKILLs and
slow frame delivery — and a
:class:`FaultInjector` applies one worker's share of the plan inside
that worker's process.

Determinism rules
-----------------
Fault plans are either written out literally or derived from a seed via
:meth:`FaultPlan.generate` (sha256-keyed, like
:func:`repro.sim.fleet.derive_substream`); nothing in this module
reads the wall clock or the global :mod:`random` state.  Faults target
*logical* positions — the ``at_unit``-th unit a worker leases, the
``backend``-th cluster verifier — never wall-clock instants, so the
same plan replays the same injuries run after run.

What a fault may NOT change is the run's output: the supervised pool
(:class:`repro.sim.shard.FleetWorkerPool`) must produce byte-identical
traces and ``deterministic_signature`` under any plan it survives.
Injection is allowed to cost wall time, never bits.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "WORKER_CRASH",
    "WORKER_STALL",
    "CHANNEL_TRUNCATION",
    "SLOW_FRAME",
    "BACKEND_SIGKILL",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "kill_self",
]

#: SIGKILL the worker the moment it leases its ``at_unit``-th unit —
#: the lease is announced, nothing is sent, the unit must be requeued
#: untouched.
WORKER_CRASH = "worker-crash"

#: Sleep ``seconds`` before executing the unit.  Not a death at all —
#: it forces the adversarial schedule in which siblings steal the
#: stalled worker's share.
WORKER_STALL = "worker-stall"

#: Execute the unit, then write a few garbage bytes of a frame header
#: to the result channel in place of its result frame and die — the
#: coordinator sees a torn frame / EOF with the lease still held, so
#: the unit is re-run, and nothing of the first attempt reaches the
#: merge.
CHANNEL_TRUNCATION = "channel-truncation"

#: Execute the unit, sleep ``seconds``, then deliver the result frame
#: normally.  Exercises the coordinator's patience (poll loop), not its
#: recovery.
SLOW_FRAME = "slow-frame"

#: SIGKILL the ``backend``-th verifier of a cluster after ``seconds``.
#: Applied at the service tier (drills, chaos bench), not by pool
#: workers.
BACKEND_SIGKILL = "backend-sigkill"

FAULT_KINDS = (
    WORKER_CRASH,
    WORKER_STALL,
    CHANNEL_TRUNCATION,
    SLOW_FRAME,
    BACKEND_SIGKILL,
)

#: Fault kinds applied inside pool worker processes (everything a
#: :class:`FaultInjector` understands).
WORKER_FAULT_KINDS = (
    WORKER_CRASH,
    WORKER_STALL,
    CHANNEL_TRUNCATION,
    SLOW_FRAME,
)

#: Fault kinds a worker does not survive (its process dies).
LETHAL_FAULT_KINDS = (
    WORKER_CRASH,
    CHANNEL_TRUNCATION,
)


@dataclass(frozen=True)
class Fault:
    """One injected injury.

    ``worker`` and ``at_unit`` address pool faults: the fault fires when
    worker ``worker`` leases its ``at_unit``-th unit (0-based count of
    that worker's own leases — the *schedule* decides which shard that
    is, but the surviving output may not depend on it).  ``backend``
    addresses service-tier faults.  ``seconds`` parameterizes stalls,
    slow frames, and backend kill delays.
    """

    kind: str
    worker: Optional[int] = None
    at_unit: int = 0
    seconds: float = 0.0
    backend: int = 0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                "unknown fault kind %r (expected one of %s)"
                % (self.kind, ", ".join(FAULT_KINDS))
            )
        if self.kind in WORKER_FAULT_KINDS and self.worker is None:
            raise ConfigurationError(
                "fault %r must name a worker" % (self.kind,)
            )
        if self.at_unit < 0:
            raise ConfigurationError("at_unit must be non-negative")
        if self.seconds < 0:
            raise ConfigurationError("seconds must be non-negative")

    def describe(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"kind": self.kind}
        if self.kind in WORKER_FAULT_KINDS:
            entry.update(worker=self.worker, at_unit=self.at_unit)
        if self.kind in (WORKER_STALL, SLOW_FRAME, BACKEND_SIGKILL):
            entry["seconds"] = self.seconds
        if self.kind == BACKEND_SIGKILL:
            entry["backend"] = self.backend
        return entry


def _derive_fault_seed(seed: int, index: int) -> int:
    material = "chaos|%d|%d" % (seed, index)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults for one run.

    Plans cross the ``spawn`` boundary inside worker process arguments,
    so they hold nothing but plain dataclasses.  ``seed`` records the
    generator seed for provenance when the plan came out of
    :meth:`generate`.
    """

    faults: Tuple[Fault, ...] = ()
    seed: Optional[int] = None

    def validate(self) -> None:
        for fault in self.faults:
            fault.validate()

    @classmethod
    def generate(
        cls,
        seed: int,
        workers: int,
        units_per_worker: int = 4,
        kinds: Sequence[str] = LETHAL_FAULT_KINDS,
        count: int = 1,
    ) -> "FaultPlan":
        """Derive ``count`` worker faults deterministically from a seed.

        Placement (which worker, which of its leases, which kind) is a
        pure function of ``seed`` — no global RNG, no wall clock — so a
        generated plan names the same injuries on every machine, every
        run.
        """
        if workers < 1:
            raise ConfigurationError("workers must be positive")
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        for kind in kinds:
            if kind not in WORKER_FAULT_KINDS:
                raise ConfigurationError(
                    "generate only places worker faults, not %r" % (kind,)
                )
        faults = []
        for index in range(count):
            material = _derive_fault_seed(seed, index)
            kind = kinds[material % len(kinds)]
            worker = (material >> 8) % workers
            at_unit = (material >> 24) % max(1, units_per_worker)
            faults.append(Fault(
                kind=kind,
                worker=worker,
                at_unit=at_unit,
                seconds=0.05 if kind in (WORKER_STALL, SLOW_FRAME) else 0.0,
            ))
        plan = cls(faults=tuple(faults), seed=seed)
        plan.validate()
        return plan

    def for_worker(self, worker_index: int) -> Tuple[Fault, ...]:
        """The faults one pool worker must inject on itself."""
        return tuple(
            fault for fault in self.faults
            if fault.kind in WORKER_FAULT_KINDS
            and fault.worker == worker_index
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [fault.describe() for fault in self.faults],
        }


def kill_self() -> None:
    """Die the way a machine does: SIGKILL, no handlers, no cleanup."""
    os.kill(os.getpid(), signal.SIGKILL)
    # SIGKILL is not deliverable-but-ignorable; if we are somehow still
    # running (a race on some platforms), exit hard anyway.
    os._exit(137)


class FaultInjector:
    """Applies one worker's share of a :class:`FaultPlan` in-process.

    The pool's worker loop calls :meth:`fault_for_unit` with a 0-based
    count of the units this worker has leased, then hands the returned
    fault to the pre/post hooks around unit execution.  The injector is
    deliberately dumb — all policy lives in the plan.
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self._by_unit: Dict[int, Fault] = {}
        for fault in faults:
            fault.validate()
            if fault.kind not in WORKER_FAULT_KINDS:
                raise ConfigurationError(
                    "injector only applies worker faults, not %r"
                    % (fault.kind,)
                )
            self._by_unit.setdefault(fault.at_unit, fault)

    def __len__(self) -> int:
        return len(self._by_unit)

    def fault_for_unit(self, nth_lease: int) -> Optional[Fault]:
        """The fault (if any) scheduled for this worker's nth lease."""
        return self._by_unit.get(nth_lease)

    def apply_pre_execution(self, fault: Optional[Fault]) -> None:
        """Faults that fire after the lease, before the unit runs."""
        if fault is None:
            return
        if fault.kind == WORKER_STALL:
            time.sleep(fault.seconds)
        elif fault.kind == WORKER_CRASH:
            kill_self()

    def apply_post_execution(
        self, fault: Optional[Fault], channel: Any
    ) -> None:
        """Faults that fire after the unit ran, around frame delivery."""
        if fault is None:
            return
        if fault.kind == SLOW_FRAME:
            time.sleep(fault.seconds)
        elif fault.kind == CHANNEL_TRUNCATION:
            # A torn frame: three bytes of what claims to be a length
            # header, then death.  The coordinator must treat the torn
            # read exactly like an EOF.
            try:
                os.write(channel.fileno(), b"\x00\x00\x01")
            except OSError:
                pass
            kill_self()

