"""Sharded multiprocess fleet execution with work-stealing scheduling.

A fleet run is shard-decomposable because :class:`~repro.sim.fleet.FleetEngine`
derives all of its randomness from named substreams
(:func:`~repro.sim.fleet.derive_substream`): the topology and arrival
timeline are pure functions of the configuration, and every journey owns
a private stream.  This module exploits that property:

* :func:`split_fleet` partitions the journey-index range of a
  :class:`~repro.sim.fleet.FleetConfig` into contiguous, disjoint
  :class:`ShardSpec` units;
* :func:`execute_unit` runs one unit in the current process and returns
  a :class:`ShardResult` with its compute timing and trace events, and
  :func:`run_in_process` is the coordinator's loop over such units;
* :class:`FleetWorkerPool` holds persistent ``spawn`` workers that pull
  units from a **shared task queue** — an idle worker steals whatever
  unit is next, so a slow or stalled worker never strands its share of
  the fleet the way the old static ``one shard per worker`` partition
  did;
* :func:`run_fleet` plans the units, hands them to a pool (or, with
  one worker, to the coordinator's own loop), and merges the outputs
  into a single :class:`~repro.sim.fleet.FleetResult` that is
  **bit-identical** to the single-process run of the same seed — same
  deterministic signature, same merged JSONL trace bytes.

Determinism under dynamic scheduling
------------------------------------
Bit-identity survives any scheduling interleaving because units carry
their *substream identity* (journey-index range + unit index), never
their schedule order: which worker executes a unit, and when, changes
no random draw.  The unit partition itself is a pure function of
``(config, unit count)``, and the merge orders outcomes and trace
events by content (completion time, journey id), so the merged result
is a pure function of the partition — the schedule is invisible.

Result channel and trace events
-------------------------------
Unit results return on a per-worker :func:`multiprocessing.Pipe` as
pickle-free JSON frames (:mod:`repro.sim.wire`) instead of through
``Pool.map`` pickling.  A traced unit's events ride in its ``unit``
frame (``events``; absent when the run is untraced), so every
:class:`ShardResult` holds its events in memory, wherever the unit ran,
and the coordinator writes the run's trace file once, from the merged
lists.  Nothing touches the disk before that write: a worker that dies
before its frame arrives leaves nothing behind, and its requeued unit
sends its events afresh.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.chaos import Fault, FaultInjector, FaultPlan
from repro.exceptions import ConfigurationError
from repro.sim.fleet import (
    FleetConfig,
    FleetEngine,
    FleetResult,
    JourneyOutcome,
    fleet_host_names,
)
from repro.sim.trace import TraceWriter, merge_shard_events
from repro.sim.wire import (
    WIRE_VERSION,
    decode_message,
    encode_message,
    outcome_from_wire,
    outcome_to_wire,
)

__all__ = [
    "ShardSpec",
    "ShardResult",
    "FleetWorkerPool",
    "DEFAULT_UNITS_PER_WORKER",
    "split_fleet",
    "plan_units",
    "execute_unit",
    "run_in_process",
    "warm_worker",
    "merge_shard_results",
    "run_fleet",
]

#: Start method used for worker processes.  ``spawn`` gives every worker
#: a fresh interpreter (same behaviour on Linux, macOS, and Windows, and
#: no inherited state that could differ between pool and in-process
#: execution); determinism never relies on it, only portability does.
DEFAULT_START_METHOD = "spawn"

#: Default queue granularity: units per worker when no ``unit_size``
#: is given.  Several units per worker
#: is what makes stealing effective (a worker finishing early picks up
#: another unit instead of idling), while units stay large enough that
#: per-unit topology setup is noise.
DEFAULT_UNITS_PER_WORKER = 4

#: How long the coordinator waits on the result channels before
#: re-checking that its workers are still alive.
_POLL_SECONDS = 5.0


#: Per-process record of the last :func:`warm_worker` run — the pid,
#: the pinned backend, the wall time the warmup took, and the table
#: cache counters.  Every pool worker sends this once on its result
#: channel (before pulling any task), which is what
#: :meth:`FleetWorkerPool.warmup_report` collects.
_WARM_STATE: Dict[str, Any] = {}


def warm_worker(
    host_names: Sequence[str],
    backend: Optional[str] = None,
    table_cache_dir: Optional[str] = None,
) -> None:
    """Pre-build deterministic crypto state in a (worker) process.

    Runs exactly once per worker process, at startup — host key pairs
    are pure functions of their names, so shipping the *names* ships
    the keys: each worker regenerates them once (through the
    process-wide identity memo) instead of inside any measured unit,
    and eagerly builds the fixed-base tables for the generator and
    every host public key.  However many units a worker later steals,
    it never pays warmup again.

    ``backend`` pins the crypto backend in the worker (``spawn`` workers
    do not inherit the coordinator's in-process selection, only its
    environment) and ``table_cache_dir`` points the persistent table
    cache at a shared directory so the first process on a host builds
    the tables and every later one loads them.

    Module-level on purpose: ``spawn`` workers resolve their target by
    qualified name.
    """
    from repro.crypto.backend import get_backend, set_backend
    from repro.crypto.dsa import PARAMETERS_512
    from repro.crypto.keys import Identity
    from repro.crypto.tablecache import set_table_cache, table_cache_info

    started = time.perf_counter()
    if backend is not None:
        set_backend(backend)
    if table_cache_dir is not None:
        set_table_cache(table_cache_dir)
    PARAMETERS_512.generator_table()
    for name in host_names:
        Identity.generate(name).public_key.precompute()
    _WARM_STATE.clear()
    _WARM_STATE.update(
        pid=os.getpid(),
        backend=get_backend().name,
        hosts_warmed=len(host_names),
        warmup_seconds=time.perf_counter() - started,
        table_cache=table_cache_info(),
    )


@dataclass(frozen=True)
class ShardSpec:
    """One deterministic slice (unit) of a fleet run.

    Attributes
    ----------
    config:
        The full fleet configuration (``trace_path`` stripped — a unit
        never writes the merged trace itself).
    shard_index:
        Position of this unit in the partition; it also seeds the
        unit's batch-verifier substream.
    agent_start / agent_stop:
        Journey-index range ``[agent_start, agent_stop)`` this unit
        executes.  Ranges of a partition are contiguous and disjoint.
    traced:
        Whether the run writes a trace, so the unit must build its
        events (an untraced unit builds none).
    """

    config: FleetConfig
    shard_index: int
    agent_start: int
    agent_stop: int
    traced: bool = False

    @property
    def num_agents(self) -> int:
        """Number of journeys this unit executes."""
        return self.agent_stop - self.agent_start

    def describe(self) -> Dict[str, Any]:
        """Compact metadata dictionary (reports, merged results)."""
        return {
            "shard_index": self.shard_index,
            "agent_start": self.agent_start,
            "agent_stop": self.agent_stop,
        }


@dataclass
class ShardResult:
    """Everything one unit sends back to the coordinator.

    Crosses the worker boundary as a pickle-free JSON frame
    (:mod:`repro.sim.wire`): journey outcomes, trace events, plain
    dictionaries, and numbers only.

    The ``compute`` seconds are this unit's share of the per-worker
    overhead split; ``compute_cpu_seconds`` uses CPU time
    (:func:`time.process_time`), which is what keeps a
    useful-parallel-work utilization honest on oversubscribed
    machines — an engine timesharing one core burns wall time but not
    CPU time.
    """

    spec: ShardSpec
    outcomes: List[JourneyOutcome]
    malicious_hosts: Dict[str, str]
    virtual_makespan: float
    events_processed: int
    wall_seconds: float
    verifier_stats: Optional[Dict[str, Any]] = None
    deferred_signature_failures: List[Dict[str, Any]] = field(
        default_factory=list
    )
    #: Journeys of this unit that carried a campaign attack (adversarial
    #: load is range-dependent, so it is worth surfacing per unit).
    campaign_attacked: int = 0
    #: Which pool worker executed the unit (None when run in process).
    worker_index: Optional[int] = None
    worker_pid: Optional[int] = None
    #: Engine execution wall / CPU time for this unit.
    compute_seconds: float = 0.0
    compute_cpu_seconds: float = 0.0
    #: Sample-bearing telemetry snapshot of the unit's engine
    #: (``None`` when observability is disabled).  Merged fleet-wide by
    #: :func:`run_fleet` into ``worker_report["telemetry"]``.
    telemetry: Optional[Dict[str, Any]] = None
    #: The unit's trace events (empty when the run is untraced).
    events: List[Dict[str, Any]] = field(default_factory=list)


def split_fleet(config: FleetConfig, num_units: int) -> List[ShardSpec]:
    """Partition a fleet into ``num_units`` contiguous unit specs.

    Unit sizes differ by at most one journey (the first
    ``num_agents % num_units`` units take the extra one).  More units
    than journeys is rejected rather than silently producing empty
    units.  Every spec's config has ``trace_path`` stripped: only the
    merge writes the run's trace.
    """
    config.validate()
    if num_units < 1:
        raise ConfigurationError("num_units must be positive")
    if num_units > config.num_agents:
        raise ConfigurationError(
            "cannot split %d journeys into %d units"
            % (config.num_agents, num_units)
        )
    unit_config = replace(config, trace_path=None)
    base, extra = divmod(config.num_agents, num_units)
    specs: List[ShardSpec] = []
    start = 0
    for index in range(num_units):
        stop = start + base + (1 if index < extra else 0)
        specs.append(ShardSpec(
            config=unit_config,
            shard_index=index,
            agent_start=start,
            agent_stop=stop,
            traced=bool(config.trace_path),
        ))
        start = stop
    return specs


def plan_units(
    config: FleetConfig,
    workers: int,
    unit_size: Optional[int] = None,
) -> int:
    """Unit count for a run: from a unit size, or the default plan.

    ``unit_size`` asks for units of about that many journeys; without
    it, multi-worker runs get :data:`DEFAULT_UNITS_PER_WORKER` units per
    worker (capped at one journey per unit) so the shared queue always
    holds spare units for an idle worker to steal, and single-worker
    runs stay one unit.
    """
    config.validate()
    if unit_size is not None:
        if unit_size < 1:
            raise ConfigurationError("unit_size must be positive")
        return -(-config.num_agents // unit_size)
    if workers <= 1:
        return 1
    return min(config.num_agents, workers * DEFAULT_UNITS_PER_WORKER)


def execute_unit(spec: ShardSpec) -> ShardResult:
    """Execute one unit in the current process.

    The unit's trace events stay in memory on the result's
    :attr:`~ShardResult.events`.  Compute is timed in both wall and CPU
    seconds — the raw material of the per-worker overhead split in
    ``worker_report``.
    """
    started = time.perf_counter()
    cpu_started = time.process_time()
    engine = FleetEngine(
        spec.config,
        agent_start=spec.agent_start,
        agent_stop=spec.agent_stop,
        shard_index=spec.shard_index,
        record_trace=spec.traced,
    )
    result = engine.run()
    compute_seconds = time.perf_counter() - started
    compute_cpu_seconds = time.process_time() - cpu_started
    return ShardResult(
        spec=spec,
        outcomes=result.outcomes,
        malicious_hosts=result.malicious_hosts,
        virtual_makespan=result.virtual_makespan,
        events_processed=result.events_processed,
        wall_seconds=result.wall_seconds,
        verifier_stats=result.verifier_stats,
        deferred_signature_failures=result.deferred_signature_failures,
        campaign_attacked=len(result.campaign_journeys),
        worker_pid=os.getpid(),
        compute_seconds=compute_seconds,
        compute_cpu_seconds=compute_cpu_seconds,
        telemetry=(
            engine.metrics.snapshot(include_samples=True)
            if engine.metrics.enabled else None
        ),
        events=engine.trace.events,
    )


def run_in_process(specs: Iterable[ShardSpec]) -> List[ShardResult]:
    """The coordinator's loop: execute units here, in unit order.

    This is all of a ``workers=1`` run and the tail of a pooled run
    that lost every worker.
    """
    return [
        execute_unit(spec)
        for spec in sorted(specs, key=lambda spec: spec.shard_index)
    ]


def _unit_result_to_wire(result: ShardResult) -> Dict[str, Any]:
    """The JSON frame a worker sends for one finished unit.

    A traced unit's events ride along as ``events``; an untraced
    unit's frame has no such key.
    """
    frame = {
        "kind": "unit",
        "version": WIRE_VERSION,
        "worker": result.worker_index,
        "pid": result.worker_pid,
        "shard_index": result.spec.shard_index,
        "outcomes": [outcome_to_wire(o) for o in result.outcomes],
        "malicious_hosts": dict(result.malicious_hosts),
        "virtual_makespan": result.virtual_makespan,
        "events_processed": result.events_processed,
        "wall_seconds": result.wall_seconds,
        "verifier_stats": result.verifier_stats,
        "deferred_signature_failures": list(
            result.deferred_signature_failures
        ),
        "campaign_attacked": result.campaign_attacked,
        "compute_seconds": result.compute_seconds,
        "compute_cpu_seconds": result.compute_cpu_seconds,
        "telemetry": result.telemetry,
    }
    if result.spec.traced:
        frame["events"] = result.events
    return frame


def _unit_result_from_wire(
    message: Dict[str, Any], spec: ShardSpec
) -> ShardResult:
    """Rebuild a :class:`ShardResult` from its frame and the local spec.

    The coordinator already holds every spec it dispatched, so only the
    unit index crosses the wire and the (config-bearing) spec is
    re-attached locally.
    """
    if message["shard_index"] != spec.shard_index:
        raise RuntimeError(
            "unit frame for shard %r decoded against spec %r"
            % (message["shard_index"], spec.shard_index)
        )
    return ShardResult(
        spec=spec,
        outcomes=[outcome_from_wire(o) for o in message["outcomes"]],
        malicious_hosts=dict(message["malicious_hosts"]),
        virtual_makespan=message["virtual_makespan"],
        events_processed=message["events_processed"],
        wall_seconds=message["wall_seconds"],
        verifier_stats=message["verifier_stats"],
        deferred_signature_failures=list(
            message["deferred_signature_failures"]
        ),
        campaign_attacked=message["campaign_attacked"],
        worker_index=message["worker"],
        worker_pid=message["pid"],
        compute_seconds=message["compute_seconds"],
        compute_cpu_seconds=message["compute_cpu_seconds"],
        telemetry=message.get("telemetry"),
        events=message.get("events", []),
    )


def _unit_worker_main(
    worker_index: int,
    host_names: Sequence[str],
    backend: Optional[str],
    table_cache_dir: Optional[str],
    tasks: Any,
    channel: Any,
    stall_seconds: float = 0.0,
    faults: Sequence[Fault] = (),
) -> None:
    """Body of one work-stealing pool worker (module-level for spawn).

    Protocol, in order:

    1. warm once (:func:`warm_worker`) and send the warm state as the
       first frame on the dedicated result channel — a bounded,
       deterministic per-worker probe that cannot interleave with unit
       execution because it never touches the shared task queue;
    2. optionally stall (test hook for forcing adversarial schedules);
    3. loop: pull unit specs from the shared queue — this *is* the
       work stealing; whichever worker is idle takes the next unit.
       Each pull is announced with a ``lease`` frame *before*
       execution starts, so the coordinator always knows which unit
       dies with a worker and must be requeued.  Then execute and send
       the result, trace events included, back as one pickle-free JSON
       frame.  A ``None`` task is the shutdown sentinel.

    ``faults`` is this worker's share of a chaos plan
    (:meth:`repro.chaos.FaultPlan.for_worker`); the injector applies
    each fault around the lease it targets — including the lethal ones
    that end this function with a SIGKILL.

    Any Python exception is reported as an ``error`` frame instead of a
    silent worker death; process death itself is the supervisor's
    problem.
    """
    injector = FaultInjector(faults)
    try:
        warm_worker(host_names, backend, table_cache_dir)
        warm_frame = {
            "kind": "warm", "version": WIRE_VERSION, "worker": worker_index,
        }
        warm_frame.update(_WARM_STATE)
        channel.send_bytes(encode_message(warm_frame))
        if stall_seconds > 0:
            time.sleep(stall_seconds)
        leases = 0
        while True:
            spec = tasks.get()
            if spec is None:
                break
            channel.send_bytes(encode_message({
                "kind": "lease",
                "version": WIRE_VERSION,
                "worker": worker_index,
                "shard_index": spec.shard_index,
            }))
            fault = injector.fault_for_unit(leases)
            leases += 1
            injector.apply_pre_execution(fault)
            result = execute_unit(spec)
            result.worker_index = worker_index
            injector.apply_post_execution(fault, channel)
            channel.send_bytes(encode_message(_unit_result_to_wire(result)))
    except Exception:
        try:
            channel.send_bytes(encode_message({
                "kind": "error",
                "version": WIRE_VERSION,
                "worker": worker_index,
                "error": traceback.format_exc(),
            }))
        except (OSError, ValueError):
            pass
    finally:
        channel.close()


class FleetWorkerPool:
    """A reusable, pre-warmed pool of work-stealing fleet workers.

    ``spawn`` workers pay a real startup tax — interpreter boot,
    imports, and regenerating every DSA key pair and exponentiation
    table.  The pool moves all of that into a once-per-process warmup
    and **persists across runs**: a caller creates one pool and reuses
    it for every fleet and campaign run instead of spawning fresh
    workers per run.

    Scheduling is dynamic: :meth:`run_units` drops every unit of a run
    onto one shared task queue and idle workers pull from it, so a
    worker that is slow (noisy neighbour, unlucky unit mix) simply
    executes fewer units while its siblings steal the rest — no static
    partition to strand work behind the slowest process.  Results come
    back on per-worker pipe connections as pickle-free JSON frames
    (:mod:`repro.sim.wire`).

    ``stall_seconds`` maps worker index → an artificial delay between
    warmup and the first queue pull.  It exists for tests and
    diagnostics: stalling one worker forces the adversarial schedule in
    which its siblings steal its share, which is exactly the
    interleaving the bit-identity property tests must cover.

    Supervision
    -----------
    The pool is supervised, not fail-fast.  Workers announce every unit
    they lease before executing it; when a worker process dies (EOF or
    a torn frame on its channel), the coordinator joins it, requeues
    the leased unit, and respawns a replacement at the same index while
    the ``respawn_budget`` (default: one per worker) lasts.  A unit's
    trace events travel in its result frame, so a death leaves nothing
    to repair: the lost attempt never reached the coordinator.  Budget
    spent, the pool degrades to the surviving workers; with *no*
    survivors the coordinator executes the remaining units itself.
    Units carry their substream identity, so a re-executed unit is
    bit-identical to the first attempt by construction — crashes cost
    wall time, never bits.
    Deterministic Python exceptions inside a unit still raise (an
    ``error`` frame): those reproduce on retry, so retrying them would
    loop, not heal.

    ``fault_plan`` injects a :class:`repro.chaos.FaultPlan` into the
    workers — each worker applies its own share of the plan to itself.
    Respawned workers never inherit their predecessor's faults (a
    crash-at-unit-k would otherwise loop until the budget drained).

    Use as a context manager, or call :meth:`close` explicitly.
    """

    def __init__(
        self,
        workers: int,
        start_method: str = DEFAULT_START_METHOD,
        warm_config: Optional[FleetConfig] = None,
        backend: Optional[str] = None,
        table_cache_dir: Optional[Union[str, os.PathLike]] = None,
        stall_seconds: Optional[Dict[int, float]] = None,
        fault_plan: Optional[FaultPlan] = None,
        respawn_budget: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be positive")
        if respawn_budget is not None and respawn_budget < 0:
            raise ConfigurationError("respawn_budget must be non-negative")
        if fault_plan is not None:
            fault_plan.validate()
        self.workers = workers
        self.start_method = start_method
        self.backend = backend
        self.table_cache_dir = (
            os.fspath(table_cache_dir) if table_cache_dir is not None else None
        )
        self.respawn_budget = (
            workers if respawn_budget is None else respawn_budget
        )
        self._fault_plan = fault_plan
        self._host_names = (
            fleet_host_names(warm_config) if warm_config is not None else []
        )
        self._stalls = dict(stall_seconds or {})
        self._context = multiprocessing.get_context(start_method)
        self._tasks = self._context.Queue()
        self._processes: List[Any] = []
        self._channels: List[Any] = []
        self._warm_states: Dict[int, Dict[str, Any]] = {}
        self._leases: Dict[int, int] = {}
        self._pending_deaths: List[int] = []
        self._crashes: List[Dict[str, Any]] = []
        self._respawns = 0
        self._degraded_units = 0
        self._leases_observed = 0
        self._closed = False
        for index in range(workers):
            self._spawn_worker(index, initial=True)
        self.warmup_seconds: Optional[float] = None
        if warm_config is not None:
            # Warm the coordinator process with the same state the
            # workers build, so single-process comparison runs and the
            # merge path start equally hot.
            started = time.perf_counter()
            warm_worker(self._host_names, backend, self.table_cache_dir)
            self.warmup_seconds = time.perf_counter() - started

    def _spawn_worker(self, index: int, initial: bool) -> None:
        """Start (or replace) the worker at ``index``.

        Replacements get no stall and no faults: stalls model one slow
        incarnation, and a respawned worker re-suffering its
        predecessor's crash fault would burn the whole respawn budget
        on one injury.
        """
        faults: Tuple[Fault, ...] = ()
        stall = 0.0
        if initial:
            stall = float(self._stalls.get(index, 0.0))
            if self._fault_plan is not None:
                faults = self._fault_plan.for_worker(index)
        receiver, sender = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_unit_worker_main,
            args=(index, self._host_names, self.backend,
                  self.table_cache_dir, self._tasks, sender, stall, faults),
            daemon=True,
            name="fleet-worker-%d" % index,
        )
        process.start()
        # The parent's copy of the send end must close so a dead
        # worker surfaces as EOF on its channel instead of a hang.
        sender.close()
        if index < len(self._processes):
            self._processes[index] = process
            self._channels[index] = receiver
        else:
            self._processes.append(process)
            self._channels.append(receiver)

    # -- result channel ---------------------------------------------------------

    def _open_channels(self) -> List[Any]:
        return [channel for channel in self._channels if channel is not None]

    def _receive(self, timeout: Optional[float]) -> List[Dict[str, Any]]:
        """Drain ready channels; returns the unit frames received.

        Warm-state frames are absorbed into :attr:`_warm_states` and
        lease announcements into :attr:`_leases`.  A worker death —
        EOF, or a frame torn mid-transmission — closes that channel and
        queues the index on :attr:`_pending_deaths` for
        :meth:`_service_deaths`; it never raises.  ``error`` frames
        (deterministic Python exceptions inside a unit) still raise:
        those reproduce on re-execution, so supervision cannot heal
        them.
        """
        channels = self._open_channels()
        if not channels:
            return []
        units: List[Dict[str, Any]] = []
        for channel in _connection_wait(channels, timeout=timeout):
            try:
                data = channel.recv_bytes()
            except (EOFError, OSError):
                index = self._channels.index(channel)
                self._channels[index] = None
                channel.close()
                self._pending_deaths.append(index)
                continue
            message = decode_message(data)
            if message.get("version") != WIRE_VERSION:
                raise RuntimeError(
                    "result-channel version mismatch: worker sent %r, "
                    "coordinator speaks %r"
                    % (message.get("version"), WIRE_VERSION)
                )
            kind = message.get("kind")
            if kind == "warm":
                self._warm_states[message["worker"]] = message
            elif kind == "lease":
                self._leases[message["worker"]] = message["shard_index"]
                self._leases_observed += 1
            elif kind == "error":
                raise RuntimeError(
                    "fleet worker %r failed:\n%s"
                    % (message.get("worker"), message.get("error"))
                )
            elif kind == "unit":
                self._leases.pop(message["worker"], None)
                units.append(message)
            else:
                raise RuntimeError("unknown channel frame kind %r" % (kind,))
        return units

    def _service_deaths(
        self, outstanding: Optional[Dict[int, ShardSpec]] = None
    ) -> None:
        """Supervise every death :meth:`_receive` has detected.

        For each dead worker: join it for the exitcode, requeue the unit
        it held a lease on (if any), and respawn a replacement at the
        same index while the budget lasts.
        """
        while self._pending_deaths:
            index = self._pending_deaths.pop(0)
            process = self._processes[index]
            process.join(timeout=5.0)
            leased = self._leases.pop(index, None)
            crash: Dict[str, Any] = {
                "worker": index,
                "pid": process.pid,
                "exitcode": process.exitcode,
                "leased_unit": leased,
                "requeued": False,
                "respawned": False,
            }
            if (leased is not None and outstanding is not None
                    and leased in outstanding):
                self._tasks.put(outstanding[leased])
                crash["requeued"] = True
            if self._respawns < self.respawn_budget:
                self._respawns += 1
                self._spawn_worker(index, initial=False)
                crash["respawned"] = True
            self._crashes.append(crash)

    def supervision_report(self) -> Dict[str, Any]:
        """Everything the pool has survived so far."""
        return {
            "respawn_budget": self.respawn_budget,
            "respawns": self._respawns,
            "crashes": [dict(crash) for crash in self._crashes],
            "degraded_units": self._degraded_units,
            "leases": self._leases_observed,
        }

    def _collect_warm_states(self, timeout: float) -> None:
        """Wait until every *live* worker's warm frame arrived (bounded).

        Dead, unreplaced slots are not waited on — their absence is the
        diagnostic, and blocking the per-worker report on a worker that
        can never answer would turn every degraded run into a timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            waiting = [
                index for index in range(self.workers)
                if self._channels[index] is not None
                and index not in self._warm_states
            ]
            if not waiting:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._receive(timeout=min(remaining, 0.25))
            self._service_deaths()

    # -- scheduling -------------------------------------------------------------

    def run_units(
        self, specs: Sequence[ShardSpec]
    ) -> Tuple[List[ShardResult], Dict[str, Any]]:
        """Execute units across the pool via the shared task queue.

        Every spec goes onto the queue at once; workers pull (steal)
        whatever is next as they go idle.  Blocks until all results are
        back and returns them (schedule order), trace events included,
        together with the scheduling report: per-worker units /
        journeys / warmup-compute split and the supervision record
        (crashes survived, respawns, degraded units).

        Worker deaths do not fail the run: leased units are requeued
        and workers respawned while the budget lasts; if every worker
        is gone and the budget is spent, the coordinator finishes the
        remaining units in-process.  The returned results are
        bit-identical to a crash-free run.
        """
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        by_index: Dict[int, ShardSpec] = {}
        for spec in specs:
            if spec.shard_index in by_index:
                raise ConfigurationError(
                    "duplicate unit index %d" % spec.shard_index
                )
            by_index[spec.shard_index] = spec
        for spec in specs:
            self._tasks.put(spec)
        outstanding: Dict[int, ShardSpec] = dict(by_index)
        results: List[ShardResult] = []
        while outstanding:
            if not self._open_channels():
                # Every worker is dead and the respawn budget is spent:
                # nobody is left to claim the queue, so the coordinator
                # runs whatever is left itself.  Forward progress is
                # guaranteed whatever the pool survived; only wall time
                # is lost.
                self._drain_tasks()
                leftover = run_in_process(outstanding.values())
                self._degraded_units += len(leftover)
                results.extend(leftover)
                break
            frames = self._receive(timeout=_POLL_SECONDS)
            self._service_deaths(outstanding)
            for frame in frames:
                spec = by_index.get(frame.get("shard_index"))
                if spec is None:
                    raise RuntimeError(
                        "worker answered for unknown unit %r"
                        % (frame.get("shard_index"),)
                    )
                if spec.shard_index not in outstanding:
                    raise RuntimeError(
                        "duplicate result for unit %d — a requeued unit "
                        "was also completed by its original worker"
                        % spec.shard_index
                    )
                results.append(_unit_result_from_wire(frame, spec))
                del outstanding[spec.shard_index]
        self._collect_warm_states(timeout=10.0)
        report = {
            "mode": "work-stealing",
            "workers": _per_worker_report(
                results, self.workers, self._warm_states
            ),
            "supervision": self.supervision_report(),
        }
        return results, report

    def _drain_tasks(self) -> None:
        try:
            while True:
                self._tasks.get_nowait()
        except (_queue.Empty, OSError, ValueError):
            pass

    # -- diagnostics ------------------------------------------------------------

    def warmup_report(self) -> Dict[str, Any]:
        """Deterministic per-worker warmup diagnostics.

        Every worker sends its warm state exactly once, as the first
        frame on its dedicated result channel — before it ever touches
        the shared task queue, so the probe cannot interleave with (or
        be starved by) real unit work.  The report is a census, not a
        sample: all ``workers`` entries are present, ordered by worker
        index.
        """
        self._collect_warm_states(timeout=120.0)
        if len(self._warm_states) < self.workers:
            raise RuntimeError(
                "only %d of %d workers reported their warm state"
                % (len(self._warm_states), self.workers)
            )
        workers = []
        for index in sorted(self._warm_states):
            state = dict(self._warm_states[index])
            state.pop("kind", None)
            state.pop("version", None)
            workers.append(state)
        return {
            "workers": workers,
            "workers_reporting": len(workers),
            "coordinator_warmup_seconds": self.warmup_seconds,
            "backend": self.backend or (
                workers[0].get("backend") if workers else None
            ),
            "table_cache_dir": self.table_cache_dir,
        }

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._processes:
            try:
                self._tasks.put(None)
            except (OSError, ValueError):
                break
        for process in self._processes:
            process.join(timeout=10.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for channel in self._channels:
            if channel is not None:
                channel.close()
        self._channels = [None] * self.workers
        # An abnormal shutdown (worker deaths, an error-frame raise)
        # can leave unclaimed units and our own sentinels on the queue
        # with no worker left to drain them; ``join_thread()`` would
        # then block on the feeder forever.  Drain what we can and
        # never wait on the feeder — the queue dies with the pool.
        self._drain_tasks()
        self._tasks.close()
        self._tasks.cancel_join_thread()

    def __enter__(self) -> "FleetWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _per_worker_report(
    results: Sequence[ShardResult],
    workers: int,
    warm_states: Dict[int, Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-worker overhead split of a run's unit results.

    One entry per pool worker, 0-unit ones included — a stalled worker
    showing ``units: 0`` is the diagnostic, not a reporting gap — then
    a ``"coordinator"`` entry for units this process ran itself, if
    any.  The entries' ``units`` always sum to the run's unit count.
    """
    report = []
    for worker in [*range(workers), None]:
        mine = [r for r in results if r.worker_index == worker]
        if worker is None and not mine:
            continue
        warm = warm_states.get(worker, {})
        report.append({
            "worker": "coordinator" if worker is None else worker,
            "pid": warm.get("pid") or (mine[0].worker_pid if mine else None),
            "units": len(mine),
            "journeys": sum(r.spec.num_agents for r in mine),
            "warmup_seconds": warm.get("warmup_seconds"),
            "compute_seconds": round(
                sum(r.compute_seconds for r in mine), 6
            ),
            "compute_cpu_seconds": round(
                sum(r.compute_cpu_seconds for r in mine), 6
            ),
        })
    return report


def _merge_verifier_stats(
    stats: Sequence[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    if not stats:
        return None
    merged: Dict[str, Any] = {
        "verified": 0, "failed": 0, "batches": 0,
        "cache": {"hits": 0, "misses": 0, "entries": 0},
        "deferred_failures": 0,
        "shards": len(stats),
    }
    for entry in stats:
        merged["verified"] += entry.get("verified", 0)
        merged["failed"] += entry.get("failed", 0)
        merged["batches"] += entry.get("batches", 0)
        merged["deferred_failures"] += entry.get("deferred_failures", 0)
        cache = entry.get("cache", {})
        for key in ("hits", "misses", "entries"):
            merged["cache"][key] += cache.get(key, 0)
    # Keep the merged cache dict shape-compatible with
    # VerificationCache.stats() so reporting code never has to care
    # whether a result came out of one process or many.
    lookups = merged["cache"]["hits"] + merged["cache"]["misses"]
    merged["cache"]["hit_rate"] = (
        merged["cache"]["hits"] / lookups if lookups else 0.0
    )
    return merged


def merge_shard_results(
    config: FleetConfig,
    shard_results: Sequence[ShardResult],
    wall_seconds: float,
) -> FleetResult:
    """Fold unit outputs into one :class:`FleetResult`.

    The merged result carries the canonical outcome order (completion
    time, then journey id) — the same order a single-process engine
    produces — so its deterministic signature equals the unsharded
    run's, whatever schedule produced the inputs.  Units rebuild the
    topology independently; a mismatch in their malicious-host maps
    would mean the topology substream leaked shard-local state, so it
    is asserted rather than papered over.
    """
    if not shard_results:
        raise ConfigurationError("cannot merge zero shard results")
    ordered = sorted(shard_results, key=lambda r: r.spec.shard_index)
    covered = [(r.spec.agent_start, r.spec.agent_stop) for r in ordered]
    expected_start = 0
    for start, stop in covered:
        if start != expected_start:
            raise ConfigurationError(
                "shard ranges %r do not tile the agent range" % (covered,)
            )
        expected_start = stop
    if expected_start != config.num_agents:
        raise ConfigurationError(
            "shard ranges %r do not cover %d journeys"
            % (covered, config.num_agents)
        )

    malicious = dict(ordered[0].malicious_hosts)
    for result in ordered[1:]:
        if result.malicious_hosts != malicious:
            raise ConfigurationError(
                "shard %d rebuilt a different topology — the topology "
                "substream is no longer shard-independent"
                % result.spec.shard_index
            )

    outcomes: List[JourneyOutcome] = []
    deferred: List[Dict[str, Any]] = []
    for result in ordered:
        outcomes.extend(result.outcomes)
        deferred.extend(result.deferred_signature_failures)
    outcomes.sort(key=lambda o: (o.completed_at, o.journey_id))

    return FleetResult(
        config=config,
        outcomes=outcomes,
        malicious_hosts=malicious,
        virtual_makespan=max(r.virtual_makespan for r in ordered),
        events_processed=sum(r.events_processed for r in ordered),
        wall_seconds=wall_seconds,
        verifier_stats=_merge_verifier_stats(
            [r.verifier_stats for r in ordered if r.verifier_stats]
        ),
        deferred_signature_failures=deferred,
        shards=[
            dict(r.spec.describe(), wall_seconds=r.wall_seconds,
                 events_processed=r.events_processed,
                 campaign_attacked=r.campaign_attacked,
                 worker=r.worker_index)
            for r in ordered
        ],
    )


def _write_merged_trace(
    config: FleetConfig,
    trace_path: str,
    unit_events: Iterable[List[Dict[str, Any]]],
) -> None:
    """Write the canonical merged trace: one header, then every event."""
    header = {"event": "fleet", "config": config.to_canonical()}
    TraceWriter([header, *merge_shard_events(unit_events)]).write(trace_path)


def _merged_telemetry(
    shard_results: Sequence[ShardResult],
    report: Dict[str, Any],
) -> Optional[Dict[str, Any]]:
    """Fold per-unit engine snapshots plus pool counters into one block.

    Unit snapshots travel sample-bearing over the result channel, so
    the merged histograms report fleet-wide percentiles; the pool's
    supervision record contributes the lease/respawn/crash/degraded
    counters.  Returns ``None`` when observability is disabled (no unit
    carried a snapshot).
    """
    from repro.obs import MetricsRegistry

    snapshots = [r.telemetry for r in shard_results if r.telemetry]
    if not snapshots:
        return None
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    registry.counter("pool.units").inc(len(shard_results))
    supervision = report.get("supervision")
    if supervision is not None:
        registry.counter("pool.leases").inc(
            int(supervision.get("leases") or 0)
        )
        registry.counter("pool.respawns").inc(
            int(supervision.get("respawns") or 0)
        )
        registry.counter("pool.crashes").inc(
            len(supervision.get("crashes") or ())
        )
        registry.counter("pool.degraded_units").inc(
            int(supervision.get("degraded_units") or 0)
        )
    return registry.snapshot()


def run_fleet(
    config: FleetConfig,
    workers: int = 1,
    start_method: str = DEFAULT_START_METHOD,
    pool: Optional[FleetWorkerPool] = None,
    unit_size: Optional[int] = None,
) -> FleetResult:
    """Run a fleet across the work-stealing pool and merge the units.

    Parameters
    ----------
    config:
        The fleet description.  ``config.trace_path`` (if set) receives
        the merged JSONL trace, the only file the run writes.
    workers:
        Worker processes to use.  ``1`` (or a one-unit plan) runs every
        unit through the coordinator's in-process loop,
        :func:`run_in_process` — the same loop a pool falls back to
        when it loses every worker.
    start_method:
        :mod:`multiprocessing` start method for the pool (ignored when
        ``pool`` is given).
    pool:
        Optional persistent :class:`FleetWorkerPool`.  Passing one
        amortizes worker spawn and crypto warm-up across many runs —
        the pool is left open for the caller to reuse.  Without it a
        throwaway pool is created per call.  A ``workers=1`` call stays
        single-process even when a pool is supplied, so serial
        baselines remain serial.
    unit_size:
        Journeys per unit; defaults to the dynamic plan of
        :func:`plan_units` (several small units per worker).  Smaller
        units steal better; larger units amortize per-unit setup.  The
        merged result is bit-identical for every ``(workers,
        unit_size)`` choice, including the single-process engine.

    Returns
    -------
    FleetResult
        Merged result with per-unit metadata in ``result.shards`` and
        the scheduling/overhead report in ``result.worker_report``.
    """
    if workers < 1:
        raise ConfigurationError("workers must be positive")
    started = time.perf_counter()
    specs = split_fleet(
        config, plan_units(config, workers, unit_size=unit_size)
    )

    if workers == 1 or len(specs) == 1:
        shard_results = run_in_process(specs)
        report: Dict[str, Any] = {
            "mode": "in-process",
            "workers": _per_worker_report(shard_results, 0, {}),
        }
    else:
        active = pool
        own_pool: Optional[FleetWorkerPool] = None
        if active is None:
            own_pool = FleetWorkerPool(
                min(workers, len(specs)), start_method=start_method
            )
            active = own_pool
        try:
            shard_results, report = active.run_units(specs)
        finally:
            if own_pool is not None:
                own_pool.close()

    merge_started = time.perf_counter()
    merged = merge_shard_results(
        config, shard_results, wall_seconds=time.perf_counter() - started
    )
    if config.trace_path:
        _write_merged_trace(
            config, config.trace_path, [r.events for r in shard_results]
        )
    report["merge_seconds"] = round(time.perf_counter() - merge_started, 6)
    report["num_units"] = len(specs)
    report["telemetry"] = _merged_telemetry(shard_results, report)
    merged.worker_report = report
    return merged
