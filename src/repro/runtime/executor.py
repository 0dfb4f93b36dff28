"""The simulated XiTAO-style runtime.

One :class:`SimulatedRuntime` executes one task graph over one machine with
one scheduling policy.  Worker processes (one per core) run the XiTAO loop:

1. drain the local Assembly Queue (joining moldable assemblies, which
   synchronize all member cores for the task's duration);
2. else dequeue from the local Work-Stealing Queue and run the policy's
   placement decision (Algorithm 1), inserting the resulting assembly into
   the AQs of all member cores;
3. else steal the oldest *stealable* task from a random victim's WSQ and
   re-run the placement at the thief's core (Figure 3, steps 3-5);
4. else sleep until new work is signalled (queue pushes and AQ inserts
   wake idle workers, so no polling is needed).

Task commit (Figure 3, step 8) happens in the work-completion callback: the
leader-observed elapsed time trains the policy's model, dependents are
released and routed to WSQs by ``policy.on_ready``, and member workers
resume.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.core.policies.base import SchedulerPolicy
from repro.errors import RuntimeStateError, SchedulingError, TaskRetryExhausted
from repro.graph.dag import TaskGraph
from repro.graph.task import Task
from repro.kernels.base import WorkProfile
from repro.machine.speed import SpeedModel
from repro.machine.topology import ExecutionPlace, Machine
from repro.metrics.collector import TraceCollector
from repro.metrics.records import TaskRecord
from repro.profile.phases import active_phases
from repro.runtime.assembly import Assembly
from repro.runtime.config import RuntimeConfig
from repro.runtime.queues import WorkStealingQueue
from repro.sim.environment import Environment, Interrupt, Process
from repro.sim.events import Event, NORMAL, PENDING
from repro.trace.events import (
    DecisionEvent,
    QueueReclaimEvent,
    QueueSampleEvent,
    RunMarkEvent,
    StealEvent,
    TaskExecEvent,
    TaskRetryEvent,
    WorkerLostEvent,
    WorkerRecoveredEvent,
    WorkerStateEvent,
)
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.util.rng import SeedLike, StreamPool

#: Spin-tick verdict delivered through the worker's barrier event when
#: the worker should re-run its loop top (own work appeared / shutdown).
#: Any other verdict is the stolen task itself.
_SPIN_RECHECK = object()

#: Most kernel cost profiles one profile table holds; a miss that finds
#: it full empties it first (see ``SimulatedRuntime._profile_for``).
PROFILE_TABLE_MAX = 4096


def _backlog_of(wsqs, aqs, busy) -> Callable[[int], float]:
    """The load estimate policies use to break ties in global placement
    searches, read from the runtime's queues (not the runtime itself, so
    the bound policy holds no reference back to it)."""

    def backlog(core: int) -> float:
        return len(wsqs[core]) + len(aqs[core]) + (1.0 if busy[core] else 0.0)

    return backlog


@dataclass
class RunResult:
    """Outcome of one simulated run.

    ``extra`` carries run-specific attachments (e.g. the bound scheduler
    instance, for PTT introspection after the run).
    """

    makespan: float
    tasks_completed: int
    throughput: float
    collector: TraceCollector
    scheduler_name: str
    machine_name: str
    extra: Dict[str, object] = field(default_factory=dict)


class _SpinDriver:
    """One worker's empty-handed episodes, run as event callbacks.

    In inline-steal configurations the steal-backoff wait is scheduled
    as a pooled callback event — the "spin tick" — instead of a
    generator sleep, and an idle worker parks on an event whose callback
    probes instead of resuming the generator.  The callbacks replay the
    loop-top decision sequence for an empty-handed worker in the steal
    state — same draws, same counters, same heap schedule — and resume
    the worker's generator (through :attr:`barrier`) only when the
    outcome needs it: a stolen task, own work appeared, or shutdown.
    Misses stay inside the callback, which costs a fraction of a
    generator resume, and consecutive provably-missing ticks are
    fast-forwarded wholesale by :meth:`SimulatedRuntime._spin_collapse`.

    The runtime holds no reference to a driver: the worker's generator
    and the driver's pending events do (a tick carries its driver as its
    value), so a finished run leaves no reference cycle through it.
    """

    __slots__ = (
        "runtime", "core", "env", "queue", "free", "ticks", "wsqs", "items",
        "aq", "allow_steal", "record_steal", "record_failed_scan",
        "worker_state", "idle_events", "n_cores", "backoff", "integers",
        "sbuf", "barrier", "tick_seq",
    )

    def __init__(self, runtime: "SimulatedRuntime", core: int, integers) -> None:
        env = runtime.env
        self.runtime = runtime
        self.core = core
        self.env = env
        self.queue = env._queue
        self.free = env._queue._free
        self.ticks = runtime._spin_ticks
        self.wsqs = runtime.wsqs
        self.items = runtime.wsqs[core]._items
        self.aq = runtime.aqs[core]
        self.allow_steal = runtime.scheduler.allow_steal
        self.record_steal = runtime.collector.record_steal
        self.record_failed_scan = runtime.collector.record_failed_scan
        self.worker_state = runtime._worker_state
        self.idle_events = runtime._idle_events
        self.n_cores = runtime._num_cores
        self.backoff = runtime.config.steal_backoff
        self.integers = integers
        #: Victim-slot buffer shared with the generator's inline probe:
        #: [pre-drawn slots, next index].
        self.sbuf = [None, 64]
        #: Yielded on by the generator while an episode is in flight.  It
        #: is never scheduled: a callback triggers it directly, so the
        #: resume runs inside the tick's own heap slot, exactly where the
        #: original sleep resume ran.
        self.barrier = Event(env)
        #: Heap sequence number of this worker's latest spin tick.
        self.tick_seq = -1

    def wake(self, verdict) -> None:
        """Resume the generator with ``verdict`` (a task or a recheck)."""
        barrier = self.barrier
        callbacks = barrier.callbacks
        barrier.callbacks = None
        barrier._value = verdict
        for callback in callbacks:
            callback(barrier)

    def push_tick(self, at: float) -> None:
        free = self.free
        if free:
            tick = free.pop()
        else:
            tick = Event(self.env)
            tick._pooled = True
        tick._value = self
        tick.callbacks.append(self.spin_tick)
        queue = self.queue
        seq = queue._seq
        self.tick_seq = seq
        self.ticks[seq] = self.core
        queue.push(at, NORMAL, tick)

    def register_idle(self) -> None:
        # Driver-mode _register_idle: the parked event's callback is
        # idle_tick, so a wake probes (and possibly re-parks) without
        # resuming the generator.
        free = self.free
        if free:
            parked = free.pop()
        else:
            parked = Event(self.env)
            parked._pooled = True
        parked.callbacks.append(self.idle_tick)
        self.idle_events[self.core] = parked

    def probe_and_park(self) -> None:
        # The shared tail of a wake: one victim probe, then a hit
        # hand-off, the next backoff tick, or going idle — the exact
        # loop-top sequence for an empty-handed worker already in the
        # steal state.
        sbuf = self.sbuf
        buf, idx = sbuf
        if idx >= 64:
            buf = self.integers(0, self.n_cores - 1, size=64)
            sbuf[0] = buf
            idx = 0
        sbuf[1] = idx + 1
        slot = buf[idx]
        core = self.core
        victim = int(slot) + (1 if slot >= core else 0)
        runtime = self.runtime
        wsq = self.wsqs[victim]
        if wsq._items:
            stolen = wsq.steal(self.allow_steal)
            if stolen is not None:
                runtime._wsq_total -= 1
                self.record_steal()
                self.wake(stolen)
                return
        self.record_failed_scan()
        if runtime._wsq_total > 0:
            if runtime._any_stealable():
                self.push_tick(self.env._now + self.backoff)
            else:
                runtime._spin_collapse(self, self.env._now + self.backoff)
        else:
            worker_state = self.worker_state
            if worker_state[core] != "idle":
                worker_state[core] = "idle"
            self.register_idle()

    def spin_tick(self, _tick: Event) -> None:
        # One steal-backoff wake.  Divert back to the generator the
        # moment anything else needs doing, otherwise probe.
        self.ticks.pop(self.tick_seq, None)
        if self.runtime._shutdown or self.items or self.aq:
            self.wake(_SPIN_RECHECK)
            return
        self.probe_and_park()

    def idle_tick(self, _parked: Event) -> None:
        # An idle wake (queue push / AQ insert / shutdown).  The loop top
        # would transition idle -> steal and probe; a miss parks the
        # worker again with no generator resume — which is what makes
        # waking every idle worker on a stealable push cheap.
        if self.runtime._shutdown or self.items or self.aq:
            self.wake(_SPIN_RECHECK)
            return
        worker_state = self.worker_state
        if worker_state[self.core] != "steal":
            worker_state[self.core] = "steal"
        self.probe_and_park()


class SimulatedRuntime:
    """Executes a :class:`TaskGraph` on a machine under a policy.

    Parameters
    ----------
    env, machine:
        The simulation environment and machine topology.
    graph:
        The task graph (may grow dynamically through spawn hooks).
    scheduler:
        A :class:`SchedulerPolicy`; it is bound to the machine here.
    config:
        Runtime overheads; defaults to :class:`RuntimeConfig()`.
    speed:
        An existing :class:`SpeedModel` to share (e.g. with an
        interference scenario or a co-running runtime); one is created
        when omitted.
    seed:
        Seed of the stealing / noise randomness.
    name:
        Label used in error messages and traces.
    tracer:
        A :class:`repro.trace.Tracer`; the default shared
        :data:`~repro.trace.NULL_TRACER` records nothing and keeps the
        run bit-identical to an untraced one (tracing never consumes
        randomness or schedules events).  An enabled tracer is threaded
        into the policy's PTT store and the speed model, and receives
        worker-state, queue-depth, steal, decision and task events.
    profiles:
        A kernel cost-profile table to read and fill, shared by runs on
        the same ``machine`` instance; a private one when omitted.
    streams:
        The :class:`~repro.util.rng.StreamPool` the run's generators come
        from and go back to when :meth:`run` ends; a private one when
        omitted.  Either way the streams are those of ``seed``.
    """

    def __init__(
        self,
        env: Environment,
        machine: Machine,
        graph: TaskGraph,
        scheduler: SchedulerPolicy,
        config: Optional[RuntimeConfig] = None,
        speed: Optional[SpeedModel] = None,
        seed: SeedLike = 0,
        name: str = "runtime",
        tracer: Optional[Tracer] = None,
        profiles: Optional[Dict[tuple, WorkProfile]] = None,
        streams: Optional[StreamPool] = None,
    ) -> None:
        self.env = env
        self.machine = machine
        self.graph = graph
        self.scheduler = scheduler
        self.config = config or RuntimeConfig()
        self.speed = speed or SpeedModel(env, machine)
        self.name = name
        self.collector = TraceCollector(machine.num_cores)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled
        #: Active profiling phase timer, captured once at construction
        #: (None in unprofiled runs — every hook is one predicate).
        self._phases = active_phases()
        if self._tracing:
            self.tracer.clock = lambda: env.now
            # Share the tracer with a speed model built elsewhere (e.g. by
            # an interference harness) unless it already carries one.
            if not self.speed.tracer.enabled:
                self.speed.tracer = self.tracer

        n = machine.num_cores
        #: The run's generator streams: the policy's, one victim stream
        #: per worker, the noise and the wake-order stream.  They go back
        #: to ``streams`` (the builder's pool, else a private one) when
        #: :meth:`run` ends.
        self._seed = seed
        self._stream_pool: Optional[StreamPool] = (
            streams if streams is not None else StreamPool()
        )
        self._streams = self._stream_pool.take(seed, n + 2)
        self._steal_rngs = self._streams[1:n + 1]
        self._noise_rng = self._streams[n + 1]
        self._wake_rng = self._streams[n + 2]
        #: Pre-drawn victim slots per thief (single-probe stealing only).
        #: ``Generator.integers(lo, hi, size=k)`` consumes the bit stream
        #: exactly like k scalar draws, so buffering is stream-identical
        #: to drawing one victim per attempt — it just amortizes the
        #: numpy call overhead across 64 steal attempts.
        self._steal_buf: List = [None] * n
        self._steal_idx: List[int] = [0] * n
        self._num_cores = n
        self._steal_tries_eff = min(self.config.steal_tries, n - 1) if n > 1 else 0

        self.wsqs: List[WorkStealingQueue] = [WorkStealingQueue(c) for c in range(n)]
        self.aqs: List[Deque[Assembly]] = [deque() for _ in range(n)]
        self._core_busy_now: List[bool] = [False] * n
        scheduler.bind(
            machine,
            rng=self._streams[0],
            clock=lambda: env.now,
            backlog=_backlog_of(self.wsqs, self.aqs, self._core_busy_now),
            tracer=self.tracer,
        )
        #: Worker loop states ("exec"/"poll"/"steal"/"idle"); the same
        #: transitions feed :meth:`snapshot` and (when enabled) the tracer,
        #: so live polling and a recorded trace always agree.
        self._worker_state: List[str] = ["idle"] * n
        self._current_assembly: List[Optional[Assembly]] = [None] * n
        self._idle_events: Dict[int, Event] = {}
        self._ready_time: Dict[int, float] = {}
        #: Total tasks currently parked across all WSQs, maintained at the
        #: push/pop/steal/reclaim sites so the steal-backoff decision is
        #: O(1) instead of scanning every queue.
        self._wsq_total = 0
        #: Spin-tick driver state (single-probe steal fast path only; see
        #: :class:`_SpinDriver`): heap sequence number -> spinning core of
        #: every in-flight spin tick, used to recognize tick heap entries
        #: so provably-missing spins can be fast-forwarded
        #: (:meth:`_spin_collapse`).  Sequence numbers are unique per
        #: push, so an entry can never alias a recycled event's later
        #: schedule.
        self._spin_ticks: Dict[int, int] = {}
        #: Memoized kernel cost profiles.  ``KernelModel.profile`` is pure
        #: in (kernel, machine, place) and the machine is fixed for the
        #: executor's lifetime, so profiles are computed once per distinct
        #: (kernel instance, place) pair.  Keying on the kernel object
        #: itself (identity hash) keeps it alive, so ids cannot be reused.
        self._profile_cache = {} if profiles is None else profiles
        self._shutdown = False
        self._started = False
        self._start_time = 0.0
        self._root_rr = 0
        #: Lean-records mode (see :meth:`arm_lean_records`): skip
        #: TaskRecord construction and collector accounting.
        self._lean_records = False
        #: Observers called with each TaskRecord as tasks commit.
        self.on_task_commit: List[Callable[[TaskRecord], None]] = []
        #: Run-specific attachments carried into every RunResult built by
        #: :meth:`result` (the bound scheduler is always included there).
        self.extra: Dict[str, object] = {}

        # Fault-recovery state.  Everything below is inert (and every
        # hot-path branch reads one False bool) until a
        # :class:`~repro.faults.FaultInjector` installed on this
        # environment attaches itself — with faults off the runtime is
        # bit-identical to a build without this machinery.
        self._faults_enabled = False
        self._workers: List[Optional[Process]] = [None] * n
        #: ``_crashed``: the fault hit (worker halted, lease ticking);
        #: ``_dead``: lease expired, loss confirmed, recovery done.
        self._crashed: List[bool] = [False] * n
        self._dead: List[bool] = [False] * n
        self._crash_epoch: List[int] = [0] * n
        self._crash_time: List[float] = [0.0] * n
        self._fault_stats: Dict[str, object] = {
            "workers_lost": 0,
            "workers_recovered": 0,
            "tasks_reclaimed": 0,
            "tasks_retried": 0,
            "recovery_latencies": [],
        }
        injectors = getattr(env, "fault_injectors", None)
        if injectors:
            for injector in injectors:
                if injector.speed is self.speed:
                    injector.attach(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed the root tasks and spawn the worker processes."""
        if self._started:
            raise RuntimeStateError(f"{self.name} already started")
        self._started = True
        self._start_time = self.env.now
        if self._tracing:
            self.tracer.emit(
                RunMarkEvent(t=self.env.now, label="start", detail=self.name)
            )
        for task in sorted(self.graph.drain_ready(), key=lambda t: t.priority):
            self._enqueue_ready(task, waker_core=self._next_root_core())
        for core in range(self.machine.num_cores):
            self._workers[core] = self.env.process(
                self._worker(core), name=f"{self.name}-w{core}"
            )

    def arm_lean_records(self) -> None:
        """Skip all per-task record keeping for this run, unless
        something in the run reads it.

        No TaskRecords, no collector busy-time accounting, no ready-time
        bookkeeping — none of it feeds back into the simulation, so the
        schedule is unchanged; the steal and failed-scan counters stay.
        A tracer, a fault injector or a commit observer reads the
        records, so such runs keep them.  The caller vouches that its
        metrics never read them (all in
        :data:`repro.sweep.registry.RECORD_FREE_METRICS`).  Must be
        called before :meth:`start`.
        """
        if self._started:
            raise RuntimeStateError(
                f"{self.name}: lean records must be armed before start()"
            )
        self._lean_records = not (
            self._tracing or self._faults_enabled or self.on_task_commit
        )

    def run(self) -> RunResult:
        """Drive the simulation until the graph finishes; returns the result.

        Creates the workers if :meth:`start` was not called.  Raises
        :class:`RuntimeStateError` on deadlock (no pending events while
        tasks remain) or when ``config.max_time`` is exceeded.
        """
        if not self._started:
            self.start()
        deadline = self._start_time + self.config.max_time
        phases = self._phases
        if phases is not None:
            phases.push("sim-loop")
        # The event loop below is env.step() inlined (heappop raises
        # IndexError exactly when no live events remain): this loop runs
        # once per simulated event, so per-event method-call overhead is
        # measurable.  Defunct (cancelled) heads are dropped before each
        # pop, exactly as EventQueue.pop does.
        env = self.env
        queue = env._queue
        heap = queue._heap
        heappop = heapq.heappop
        try:
            while not self._shutdown:
                if queue._defunct:
                    queue._drop_defunct_head()
                try:
                    item = heappop(heap)
                except IndexError:
                    raise RuntimeStateError(
                        f"{self.name}: deadlock — no pending events but "
                        f"{self.graph.total_tasks - self.graph.completed_tasks} "
                        "tasks remain"
                    )
                env._now = item[0]
                event = item[3]
                event._seq = -1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if event._pooled:
                    queue._recycle(event)
                if env._now > deadline:
                    raise RuntimeStateError(
                        f"{self.name}: exceeded max_time={self.config.max_time}"
                    )
        finally:
            if phases is not None:
                phases.pop()
            pool = self._stream_pool
            if pool is not None:
                # The run is over (finished or raised): its generators
                # can serve the pool's next run.
                self._stream_pool = None
                pool.give_back(self._seed, self._streams)
        return self.result()

    def result(self) -> RunResult:
        """Build the :class:`RunResult` for a finished (or ongoing) run.

        ``extra`` always carries the bound scheduler handle (for PTT
        introspection) plus any attachments placed in :attr:`extra`, so
        repeated calls return consistently populated results.
        """
        makespan = self.env.now - self._start_time
        done = self.graph.completed_tasks
        if self._faults_enabled:
            self.extra["fault_stats"] = self.fault_stats()
        return RunResult(
            makespan=makespan,
            tasks_completed=done,
            throughput=(done / makespan) if makespan > 0 else 0.0,
            collector=self.collector,
            scheduler_name=self.scheduler.name,
            machine_name=self.machine.name,
            extra={"scheduler": self.scheduler, **self.extra},
        )

    @property
    def finished(self) -> bool:
        return self._shutdown

    def snapshot(self) -> Dict[str, object]:
        """Debug view of the runtime's current state.

        Per-core queue depths, worker loop states, the assembly each core
        is currently inside, and graph progress — useful when diagnosing a
        stalled custom policy or workload.  ``worker_states`` and
        ``current_assembly`` read the exact state the tracer's
        worker-state events are emitted from, so a live poll and a
        recorded trace can never disagree.
        """
        return {
            "now": self.env.now,
            "tasks_done": self.graph.completed_tasks,
            "tasks_total": self.graph.total_tasks,
            "wsq_depths": [len(q) for q in self.wsqs],
            "aq_depths": [len(q) for q in self.aqs],
            "busy": list(self._core_busy_now),
            "worker_states": list(self._worker_state),
            "current_assembly": [
                None if a is None else a.assembly_id
                for a in self._current_assembly
            ],
            "current_task": [
                None if a is None else a.task.task_id
                for a in self._current_assembly
            ],
            "idle_workers": sorted(self._idle_events),
            "steals": self.collector.steals,
        }

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _set_state(self, core: int, state: str) -> None:
        """Record a worker loop-state transition (snapshot + tracer)."""
        if self._worker_state[core] != state:
            self._worker_state[core] = state
            if self._tracing:
                self.tracer.emit(
                    WorkerStateEvent(t=self.env.now, core=core, state=state)
                )

    def _worker(self, core: int):
        try:
            yield from self._worker_loop(core)
        except Interrupt:
            # The fault injector killed this worker: fall through to the
            # terminal state.  Its queues are reclaimed at lease expiry.
            pass
        if self._crashed[core] or self._dead[core]:
            self._set_state(core, "dead")

    def _worker_loop(self, core: int):
        # Everything loop-invariant is hoisted into locals: this loop is
        # the hottest code in the simulator and each load of an unchanged
        # attribute costs as much as the work it guards.  The deque behind
        # the WSQ is stable for the queue's lifetime, so reading it
        # directly also skips a method call per iteration.
        config = self.config
        env = self.env
        wsq = self.wsqs[core]
        aq = self.aqs[core]
        items = wsq._items
        tracing = self._tracing  # fixed at construction
        phases = self._phases
        scheduler = self.scheduler
        current_assembly = self._current_assembly
        core_busy = self._core_busy_now
        dispatch_overhead = config.dispatch_overhead
        steal_overhead = config.steal_overhead
        steal_backoff = config.steal_backoff
        worker_state = self._worker_state
        # Single-probe steal fast path: with the default one-try scan and
        # neither tracing nor faults armed, the whole probe inlines here
        # with its RNG buffer held in loop locals (the generator frame
        # keeps them alive across yields).  Draws, outcomes and counter
        # updates are stream-identical to _try_steal — only the attribute
        # traffic is gone.  Any other configuration falls back to the
        # method.
        wsqs = self.wsqs
        n_cores = self._num_cores
        inline_steal = (
            self._steal_tries_eff == 1
            and n_cores > 1
            and not tracing
            and not self._faults_enabled
        )
        steal_integers = self._steal_rngs[core].integers if inline_steal else None
        allow_steal = scheduler.allow_steal
        record_steal = self.collector.record_steal
        record_failed_scan = self.collector.record_failed_scan
        # Spin-tick driver (inline-steal configurations only; see
        # _SpinDriver): the steal-backoff wait and idle parks are event
        # callbacks, and this generator only resumes when an episode
        # ends with a stolen task or something to re-check.
        driver = _SpinDriver(self, core, steal_integers) if inline_steal else None
        if driver is not None:
            sbuf = driver.sbuf
            barrier = driver.barrier
        while not self._shutdown:
            # A pending high-priority task in the local WSQ is dispatched
            # before joining further assemblies: its placement decision
            # (Algorithm 1) must not languish behind queued work.
            tail = items[-1] if items else None
            has_urgent = tail is not None and tail.is_high_priority

            if aq and not has_urgent:
                assembly = aq.popleft()
                if worker_state[core] != "exec":
                    worker_state[core] = "exec"
                    if tracing:
                        self.tracer.emit(
                            WorkerStateEvent(t=env.now, core=core, state="exec")
                        )
                current_assembly[core] = assembly
                if tracing:
                    self.tracer.emit(
                        QueueSampleEvent(
                            t=env.now, core=core,
                            wsq=len(wsq), aq=len(aq), op="aq_pop",
                        )
                    )
                core_busy[core] = True
                if assembly.join(core):
                    self._start_assembly(assembly)
                yield assembly.completed
                core_busy[core] = False
                current_assembly[core] = None
                continue

            task = items.pop() if items else None
            if task is not None:
                self._wsq_total -= 1
                if worker_state[core] != "poll":
                    worker_state[core] = "poll"
                    if tracing:
                        self.tracer.emit(
                            WorkerStateEvent(t=env.now, core=core, state="poll")
                        )
                if tracing:
                    self.tracer.emit(
                        QueueSampleEvent(
                            t=env.now, core=core,
                            wsq=len(wsq), aq=len(aq), op="pop",
                        )
                    )
                if dispatch_overhead > 0:
                    yield env.sleep(dispatch_overhead)
                if phases is not None:
                    phases.push("policy-search")
                place = scheduler.choose_place(task, core)
                if phases is not None:
                    phases.pop()
                self._dispatch(task, place, core, stolen=False)
                continue

            if worker_state[core] != "steal":
                worker_state[core] = "steal"
                if tracing:
                    self.tracer.emit(
                        WorkerStateEvent(t=env.now, core=core, state="steal")
                    )
            if inline_steal:
                buf, idx = sbuf
                if idx >= 64:
                    buf = steal_integers(0, n_cores - 1, size=64)
                    sbuf[0] = buf
                    idx = 0
                sbuf[1] = idx + 1
                slot = buf[idx]
                victim = int(slot) + (1 if slot >= core else 0)
                stolen = None
                if wsqs[victim]._items:
                    stolen = wsqs[victim].steal(allow_steal)
                    if stolen is not None:
                        self._wsq_total -= 1
                        record_steal()
                if stolen is None:
                    record_failed_scan()
            else:
                stolen = self._try_steal(core)
            if stolen is not None:
                if steal_overhead > 0:
                    yield env.sleep(steal_overhead)
                if phases is not None:
                    phases.push("policy-search")
                place = scheduler.place_after_steal(stolen, core)
                if phases is not None:
                    phases.pop()
                self._dispatch(stolen, place, core, stolen=True)
                continue

            if driver is not None:
                # Tick-driver mode: hand the whole empty-handed episode
                # (backoff spins and idle parks alike) to the callbacks;
                # the generator only resumes when the episode ends with a
                # stolen task or with something to re-check.
                if self._wsq_total > 0:
                    driver.push_tick(env._now + steal_backoff)
                else:
                    if worker_state[core] != "idle":
                        worker_state[core] = "idle"
                    driver.register_idle()
                verdict = yield barrier
                barrier.callbacks = []
                barrier._value = PENDING
                if verdict is _SPIN_RECHECK:
                    continue
                # The driver stole a task: finish the hit exactly as the
                # inline path above does.
                if steal_overhead > 0:
                    yield env.sleep(steal_overhead)
                if phases is not None:
                    phases.push("policy-search")
                place = scheduler.place_after_steal(verdict, core)
                if phases is not None:
                    phases.pop()
                self._dispatch(verdict, place, core, stolen=True)
            elif self._wsq_total > 0:
                # Some queue still holds tasks (wrong victim, or only
                # steal-exempt work): back off briefly and retry, like a
                # spinning work-stealing loop.
                yield env.sleep(steal_backoff)
            else:
                if worker_state[core] != "idle":
                    worker_state[core] = "idle"
                    if tracing:
                        self.tracer.emit(
                            WorkerStateEvent(t=env.now, core=core, state="idle")
                        )
                yield self._register_idle(core)

    def _try_steal(self, thief: int) -> Optional[Task]:
        """Probe up to ``config.steal_tries`` random victims for a task."""
        n = self._num_cores
        if n <= 1:
            return None
        tries = self._steal_tries_eff
        if tries == 1:
            # Stream-identical to choice(n-1, size=1, replace=False)[0]
            # for numpy's Generator, without the choice() setup cost —
            # the common single-probe configuration (see _steal_buf).
            buf = self._steal_buf[thief]
            idx = self._steal_idx[thief]
            if buf is None or idx >= 64:
                buf = self._steal_rngs[thief].integers(0, n - 1, size=64)
                self._steal_buf[thief] = buf
                idx = 0
            self._steal_idx[thief] = idx + 1
            slots = (int(buf[idx]),)
        else:
            slots = self._steal_rngs[thief].choice(n - 1, size=tries, replace=False)
        for slot in slots:
            victim = int(slot) + (1 if slot >= thief else 0)
            if not self.wsqs[victim]._items:
                continue
            task = self.wsqs[victim].steal(self.scheduler.allow_steal)
            if task is not None:
                self._wsq_total -= 1
                self.collector.record_steal()
                if self._tracing:
                    self.tracer.emit(
                        StealEvent(
                            t=self.env.now, thief=thief, victim=victim,
                            task_id=task.task_id, outcome="hit",
                        )
                    )
                    self.tracer.emit(
                        QueueSampleEvent(
                            t=self.env.now, core=victim,
                            wsq=len(self.wsqs[victim]),
                            aq=len(self.aqs[victim]), op="stolen",
                        )
                    )
                return task
        self.collector.record_failed_scan()
        if self._tracing:
            self.tracer.emit(
                StealEvent(
                    t=self.env.now, thief=thief, victim=-1,
                    task_id=-1, outcome="miss",
                )
            )
        return None

    def _any_stealable(self) -> bool:
        """True when some WSQ holds a task the policy lets thieves take.

        ``allow_steal`` depends only on the task (never on the thief), so
        a False answer proves *every* worker's next probe misses no
        matter which victim it draws — the precondition for
        :meth:`_spin_collapse`.
        """
        allow = self.scheduler.allow_steal
        for wsq in self.wsqs:
            items = wsq._items
            if items:
                for task in items:
                    if allow(task):
                        return True
        return False

    def _spin_collapse(self, driver: "_SpinDriver", phase: float) -> None:
        """Fast-forward steal-backoff spins that are provable misses.

        Called from a worker's spin tick (its ``driver``) after a failed
        probe when no queued task anywhere is stealable.  Until another
        event mutates queue state, every backoff wake — this worker's and
        any other spinner's — repeats the same guaranteed miss, whose
        only effects are one victim draw from the spinner's own RNG
        stream and one failed-scan count.  Those wakes are simulated here
        in a tight loop and each affected spinner gets a single tick
        re-scheduled at its first wake at or after the next real event:

        * draws advance each spinner's private buffered stream exactly
          as its ticks would (streams are independent, so interleaving
          order across spinners cannot matter);
        * wake times are accumulated by the same repeated addition the
          per-tick schedule uses, keeping every float bit-exact;
        * only ticks of spinners whose own queues are still empty are
          consumed — a tick that would divert back to its generator is
          left in place and ends the frozen window;
        * re-scheduled ticks are pushed in ascending (time, prior tick
          seq) order, reproducing the relative heap order the per-tick
          schedule would have given ticks that land at equal times.
        """
        env = self.env
        queue = env._queue
        heap = queue._heap
        defunct = queue._defunct
        heappop = heapq.heappop
        backoff = self.config.steal_backoff
        ticks = self._spin_ticks
        wsqs = self.wsqs
        aqs = self.aqs
        n1 = self._num_cores - 1
        virtual = {driver.core: (phase, driver.tick_seq, driver)}
        scans = 0
        while heap:
            head = heap[0]
            seq = head[2]
            if seq in defunct:
                defunct.discard(seq)
                dead = heappop(heap)[3]
                if dead._pooled:
                    queue._recycle(dead)
                continue
            owner = ticks.get(seq)
            if owner is None or wsqs[owner]._items or aqs[owner]:
                # A real event, or a spinner with work of its own: the
                # frozen window ends here.
                break
            heappop(heap)
            del ticks[seq]
            tick = head[3]
            spinner = tick._value  # the owner's driver (see push_tick)
            queue._recycle(tick)
            cell = spinner.sbuf
            idx = cell[1]
            if idx >= 64:
                cell[0] = spinner.integers(0, n1, size=64)
                idx = 0
            cell[1] = idx + 1
            scans += 1
            virtual[owner] = (head[0] + backoff, seq, spinner)
        if heap:
            head_time = heap[0][0]
            for owner, (t, order, spinner) in list(virtual.items()):
                if t < head_time:
                    cell = spinner.sbuf
                    draw = spinner.integers
                    idx = cell[1]
                    while t < head_time:
                        if idx >= 64:
                            cell[0] = draw(0, n1, size=64)
                            idx = 0
                        idx += 1
                        scans += 1
                        t += backoff
                    cell[1] = idx
                    virtual[owner] = (t, order, spinner)
        for _owner, (t, _order, spinner) in sorted(
            virtual.items(), key=lambda kv: (kv[1][0], kv[1][1])
        ):
            spinner.push_tick(t)
        if scans:
            self.collector.record_failed_scans(scans)

    # ------------------------------------------------------------------
    # dispatch & execution
    # ------------------------------------------------------------------
    def _profile_for(self, kernel, place: ExecutionPlace) -> WorkProfile:
        """Cached :meth:`KernelModel.profile` for this machine."""
        key = (kernel, place)
        profile = self._profile_cache.get(key)
        if profile is None:
            profile = kernel.profile(self.machine, place)
            if len(self._profile_cache) >= PROFILE_TABLE_MAX:
                self._profile_cache.clear()
            self._profile_cache[key] = profile
        return profile

    def _dispatch(
        self,
        task: Task,
        place: ExecutionPlace,
        deciding_core: int,
        stolen: bool,
    ) -> None:
        """Wrap ``task`` in an assembly at ``place`` and enqueue it."""
        if self._faults_enabled:
            place = self._remap_dead_place(place, deciding_core)
        cores = self.machine.place_cores(place)  # validates unknown places
        profile = self._profile_for(task.kernel, place)
        if self._tracing:
            self._emit_decision(task, place, deciding_core, stolen)
        assembly = Assembly(self.env, task, place, cores, profile)
        if not self._lean_records:
            assembly.task.metadata.setdefault("_dequeue_time", self.env.now)
            task.metadata["_stolen"] = stolen
        # Plain FIFO append for every priority: assemblies must keep the
        # same relative order in all member AQs (a priority jump past an
        # assembly that another member has already joined deadlocks the
        # rendezvous).
        for member in cores:
            self.aqs[member].append(assembly)
            if self._tracing:
                self.tracer.emit(
                    QueueSampleEvent(
                        t=self.env.now, core=member,
                        wsq=len(self.wsqs[member]),
                        aq=len(self.aqs[member]), op="aq_push",
                    )
                )
        self._wake(cores)

    def _emit_decision(
        self,
        task: Task,
        place: ExecutionPlace,
        deciding_core: int,
        stolen: bool,
    ) -> None:
        """Trace one placement decision (tracer-enabled path only).

        Captures the per-place PTT predictions the policy saw, whether the
        chosen place was unexplored (exploration vs exploitation), and the
        rate-oracle's fastest place for the decision-quality metric.
        Everything here is pure reads — no randomness, no sim events.
        """
        predictions: tuple = ()
        exploration = False
        if self.scheduler.ptt is not None:
            table = self.scheduler.ptt.table(task.type_name)
            predictions = tuple(
                (p.leader, p.width, table.predict(p))
                for p in self.machine.places
            )
            exploration = table.samples(place) == 0
        oracle_leader, oracle_width = -1, -1
        best = float("inf")
        for p in self.machine.places:
            prof = self._profile_for(task.kernel, p)
            est = self.speed.estimate_time(
                self.machine.place_cores(p), prof.work,
                memory_intensity=prof.memory_intensity,
            )
            if est < best:
                best = est
                oracle_leader, oracle_width = p.leader, p.width
        self.tracer.emit(
            DecisionEvent(
                t=self.env.now,
                task_id=task.task_id,
                type_name=task.type_name,
                core=deciding_core,
                leader=place.leader,
                width=place.width,
                kind="steal" if stolen else "dequeue",
                priority="high" if task.is_high_priority else "low",
                exploration=exploration,
                predictions=predictions,
                oracle_leader=oracle_leader,
                oracle_width=oracle_width,
            )
        )

    def _start_assembly(self, assembly: Assembly) -> None:
        """All members joined: run the task's work (or communication op)."""
        assembly.exec_start = self.env.now
        comm_op = assembly.task.metadata.get("comm_op")
        if comm_op is not None:
            done = comm_op(assembly)
            if not isinstance(done, Event):
                raise SchedulingError(
                    f"comm_op of {assembly.task!r} must return a sim Event"
                )
        else:
            work = self.speed.begin_work(
                assembly.cores,
                assembly.profile.work,
                memory_intensity=assembly.profile.memory_intensity,
                demand=assembly.profile.demand,
            )
            assembly.work = work
            done = work.done

        def _on_done(event: Event, a=assembly) -> None:
            if a.aborted:
                # Recovery already re-routed this task; a late completion
                # (e.g. a comm op resolving after the abort) must not
                # commit it a second time.
                return
            # A comm op may report a "billable" time (local protocol +
            # wire, excluding the wait for the peer) as the event value;
            # that is what trains the PTT — an elapsed time dominated by
            # peer skew says nothing about this core's speed.
            override = event._value if isinstance(event._value, float) else None
            self._finish_assembly(a, observed_override=override)

        done.callbacks.append(_on_done)

    def _finish_assembly(
        self, assembly: Assembly, observed_override: Optional[float] = None
    ) -> None:
        """Commit: train the model, release dependents, wake members."""
        assembly.exec_end = self.env.now
        true_elapsed = assembly.exec_end - assembly.exec_start
        observed = (
            observed_override if observed_override is not None else true_elapsed
        )
        if self.config.measurement_noise > 0:
            observed += float(
                self._noise_rng.normal(0.0, self.config.measurement_noise)
            )
            observed = max(observed, 1e-9)
        task = assembly.task
        self.scheduler.on_complete(task, assembly.place, observed)
        if not self._lean_records:
            md = task.metadata
            record = TaskRecord(
                task_id=task.task_id,
                type_name=task.type_name,
                priority=task.priority,
                place=assembly.place,
                ready_time=self._ready_time.pop(task.task_id, self._start_time),
                dequeue_time=md.get("_dequeue_time", assembly.exec_start),
                exec_start=assembly.exec_start,
                exec_end=assembly.exec_end,
                observed=observed,
                stolen=bool(md.get("_stolen", False)),
                metadata={k: v for k, v in md.items() if not k.startswith("_")},
            )
            # collector.record_task inlined (joined_at is always populated
            # for assemblies built here): one bound-method dispatch less
            # per task on the busiest commit path, identical accounting.
            collector = self.collector
            collector.records.append(record)
            joined_at = assembly.joined_at
            end = assembly.exec_end
            core_busy = collector.core_busy
            exec_start = assembly.exec_start
            for core in assembly.cores:
                core_busy[core] += end - joined_at.get(core, exec_start)
            if self._faults_enabled:
                crashed_at = task.metadata.pop("_crashed_at", None)
                if crashed_at is not None:
                    self._fault_stats["recovery_latencies"].append(
                        self.env.now - crashed_at
                    )
            if self._tracing:
                self.tracer.emit(
                    TaskExecEvent(
                        t=self.env.now,
                        task_id=task.task_id,
                        type_name=task.type_name,
                        leader=assembly.leader,
                        width=assembly.width,
                        cores=assembly.cores,
                        exec_start=assembly.exec_start,
                        exec_end=assembly.exec_end,
                        priority="high" if task.is_high_priority else "low",
                        stolen=record.stolen,
                    )
                )
            for observer in self.on_task_commit:
                observer(record)

        newly_ready = self.graph.complete(task)
        # Low-priority children are pushed first so the waker's LIFO pop
        # reaches the critical child immediately; the lows sit at the steal
        # end of the queue for idle workers.  (complete() hands us a fresh
        # drained list, so sorting in place is safe.)
        if len(newly_ready) > 1:
            newly_ready.sort(key=lambda t: t.priority)
        for child in newly_ready:
            self._enqueue_ready(child, waker_core=assembly.leader)

        assembly.completed.succeed()
        if self.graph.is_finished:
            self._shutdown = True
            if self._tracing:
                self.tracer.emit(
                    RunMarkEvent(
                        t=self.env.now, label="finish", detail=self.name
                    )
                )
            self._wake_all_idle()
            self._stop_workers()

    def _enqueue_ready(self, task: Task, waker_core: int) -> None:
        """Route a released task to a WSQ per the policy's wake-up rule."""
        if not self._lean_records:
            self._ready_time[task.task_id] = self.env.now
        target = self.scheduler.on_ready(task, waker_core)
        if not (0 <= target < self.machine.num_cores):
            raise SchedulingError(
                f"{self.scheduler.name}.on_ready returned invalid core {target}"
            )
        if self._faults_enabled and self._dead[target]:
            target = self._live_fallback(waker_core)
        self.wsqs[target].push(task)
        self._wsq_total += 1
        if self._tracing:
            self.tracer.emit(
                QueueSampleEvent(
                    t=self.env.now, core=target,
                    wsq=len(self.wsqs[target]),
                    aq=len(self.aqs[target]), op="push",
                )
            )
        # Only workers that can act on the push are woken: the target core
        # always; the other (idle) workers only when the task is actually
        # stealable — a steal-exempt task would just bounce them through a
        # futile victim scan and a backoff timeout.
        if self.scheduler.allow_steal(task):
            self._wake_all_idle()
        else:
            self._wake((target,))

    def _next_root_core(self) -> int:
        core = self._root_rr % self.machine.num_cores
        self._root_rr += 1
        return core

    # ------------------------------------------------------------------
    # fault recovery
    # ------------------------------------------------------------------
    def enable_fault_recovery(self) -> None:
        """Arm the recovery machinery (called by an attaching injector)."""
        self._faults_enabled = True

    def fault_stats(self) -> Dict[str, object]:
        """JSON-safe summary of fault-recovery activity this run."""
        latencies = self._fault_stats["recovery_latencies"]
        return {
            "workers_lost": self._fault_stats["workers_lost"],
            "workers_recovered": self._fault_stats["workers_recovered"],
            "tasks_reclaimed": self._fault_stats["tasks_reclaimed"],
            "tasks_retried": self._fault_stats["tasks_retried"],
            "tasks_recovered": (
                self._fault_stats["tasks_reclaimed"]
                + self._fault_stats["tasks_retried"]
            ),
            "recovery_latency_mean": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "recovery_latency_max": max(latencies) if latencies else 0.0,
        }

    def on_core_crashed(self, core: int) -> None:
        """A fault hit ``core`` *now*: halt its worker, start its lease.

        The rest of the system does not react yet — detection (and all
        recovery) happens one ``config.lease_timeout`` later, when the
        missing heartbeat confirms the loss.  A transient fault that
        heals inside the lease window (see :meth:`on_core_recovered`)
        renews the lease and recovery never triggers.
        """
        if self._crashed[core] or self._shutdown:
            return
        self._crashed[core] = True
        self._crash_epoch[core] += 1
        self._crash_time[core] = self.env.now
        self._idle_events.pop(core, None)
        worker = self._workers[core]
        if worker is not None and worker.is_alive:
            worker.interrupt("core-crashed")
        self._workers[core] = None
        self._core_busy_now[core] = False
        epoch = self._crash_epoch[core]
        lease = self.env.timeout(self.config.lease_timeout)
        lease.callbacks.append(
            lambda _ev, core=core, epoch=epoch: self._on_lease_expired(
                core, epoch
            )
        )

    def _on_lease_expired(self, core: int, epoch: int) -> None:
        """Heartbeat deadline passed; confirm the loss unless it healed."""
        if self._shutdown or self._dead[core]:
            return
        if not self._crashed[core] or self._crash_epoch[core] != epoch:
            return  # the worker came back and renewed its lease
        self._handle_worker_lost(core)

    def _handle_worker_lost(self, core: int) -> None:
        """Confirmed loss: invalidate the PTT, reclaim queues, retry work."""
        now = self.env.now
        crashed_at = self._crash_time[core]
        self._dead[core] = True
        self._fault_stats["workers_lost"] += 1

        if self.scheduler.ptt is not None:
            self.scheduler.ptt.mark_core_lost(core)

        # Salvage the ready tasks still parked in the dead worker's WSQ.
        reclaimed: List[Task] = []
        wsq = self.wsqs[core]
        while True:
            task = wsq.pop_local()
            if task is None:
                break
            self._wsq_total -= 1
            reclaimed.append(task)
        reclaimed.reverse()  # restore push (FIFO) order

        # Every assembly with the dead core among its members is doomed:
        # the rendezvous can never complete (queued) or the work can
        # never finish (in flight, its member rate is now zero).
        doomed: Dict[int, Assembly] = {}
        for queue in self.aqs:
            for assembly in queue:
                if core in assembly.cores:
                    doomed[assembly.assembly_id] = assembly
        for current in self._current_assembly:
            if current is not None and core in current.cores:
                doomed[current.assembly_id] = current
        if doomed:
            for queue in self.aqs:
                if any(a.assembly_id in doomed for a in queue):
                    # Workers hold references to their deques; filter in
                    # place rather than rebinding.
                    survivors = [
                        a for a in queue if a.assembly_id not in doomed
                    ]
                    queue.clear()
                    queue.extend(survivors)
        self._current_assembly[core] = None

        if self._tracing:
            self.tracer.emit(
                WorkerLostEvent(
                    t=now, core=core, crashed_at=crashed_at,
                    reclaimed=len(reclaimed) + len(doomed),
                )
            )
            self.tracer.emit(
                QueueReclaimEvent(
                    t=now, core=core, wsq=len(reclaimed), aq=len(doomed),
                )
            )

        # Never-started tasks re-enqueue immediately and do not burn the
        # retry budget; they were victims of placement, not execution.
        self._fault_stats["tasks_reclaimed"] += len(reclaimed)
        for task in reclaimed:
            task.metadata.setdefault("_crashed_at", crashed_at)
            self._requeue_recovered(task, core)

        # In-flight (or rendezvousing) tasks are aborted and re-executed
        # under the retry budget with exponential backoff.
        for assembly_id in sorted(doomed):
            assembly = doomed[assembly_id]
            if assembly.work is not None:
                self.speed.cancel_work(assembly.work)
            assembly.aborted = True
            self._retry_task(assembly.task, core)
            if not assembly.completed.triggered:
                # Release any live members blocked on the rendezvous.
                assembly.completed.succeed()

        # Live idle workers may now have salvaged work to pick up.
        self._wake_all_idle()

    def _retry_task(self, task: Task, dead_core: int) -> None:
        """Re-enqueue an in-flight task after backoff; enforce the budget."""
        attempt = int(task.metadata.get("_retries", 0)) + 1
        if attempt > self.config.max_task_retries:
            raise TaskRetryExhausted(task.task_id, attempt)
        task.metadata["_retries"] = attempt
        task.metadata.setdefault("_crashed_at", self._crash_time[dead_core])
        backoff = self.config.retry_backoff * (2 ** (attempt - 1))
        self._fault_stats["tasks_retried"] += 1
        if self._tracing:
            self.tracer.emit(
                TaskRetryEvent(
                    t=self.env.now,
                    task_id=task.task_id,
                    type_name=task.type_name,
                    core=dead_core,
                    attempt=attempt,
                    backoff=backoff,
                )
            )
        if backoff > 0:
            delay = self.env.timeout(backoff)
            delay.callbacks.append(
                lambda _ev, task=task, core=dead_core: (
                    self._requeue_recovered(task, core)
                )
            )
        else:
            self._requeue_recovered(task, dead_core)

    def _requeue_recovered(self, task: Task, dead_core: int) -> None:
        """Land a recovered task back in a live ready queue."""
        if self._shutdown:
            return
        self._enqueue_ready(task, waker_core=self._live_fallback(dead_core))

    def on_core_recovered(self, core: int) -> None:
        """A transient fault healed: renew the lease or respawn the worker."""
        if not self._crashed[core] or self._shutdown:
            return
        self._crashed[core] = False
        was_dead = self._dead[core]
        self._dead[core] = False
        if was_dead:
            self._fault_stats["workers_recovered"] += 1
            if self.scheduler.ptt is not None:
                self.scheduler.ptt.mark_core_recovered(core)
        if self._tracing:
            self.tracer.emit(
                WorkerRecoveredEvent(
                    t=self.env.now, core=core,
                    down_for=self.env.now - self._crash_time[core],
                )
            )
        if self._started:
            self._workers[core] = self.env.process(
                self._worker(core), name=f"{self.name}-w{core}"
            )

    def _live_fallback(self, preferred: int) -> int:
        """``preferred`` if alive, else the lowest-numbered live core."""
        if not self._dead[preferred]:
            return preferred
        for core in range(self.machine.num_cores):
            if not self._dead[core]:
                return core
        raise RuntimeStateError(
            f"{self.name}: every core has been lost; nothing can execute"
        )

    def _remap_dead_place(
        self, place: ExecutionPlace, deciding_core: int
    ) -> ExecutionPlace:
        """Reroute a placement that touches a confirmed-dead core.

        PTT invalidation steers model-driven policies away on its own;
        this is the hard guarantee that covers model-free policies (RWS,
        FA) and the window before a fresh PTT sample exists.
        """
        cores = self.machine.place_cores(place)
        if not any(self._dead[c] for c in cores):
            return place
        return ExecutionPlace(self._live_fallback(deciding_core), 1)

    def stop(self) -> None:
        """End this runtime where it stands, finished or not.

        A live co-runner's chain never finishes, so its environment's
        close calls this: in-flight work is abandoned, parked workers'
        wake-up events are dropped and every worker loop ends, so nothing
        is left that refers back to the runtime.
        """
        self._shutdown = True
        for assembly in self._current_assembly:
            if assembly is not None and assembly.work is not None:
                self.speed.cancel_work(assembly.work)
        self._idle_events.clear()
        self._stop_workers()

    def _stop_workers(self) -> None:
        """End every worker's loop at shutdown.

        A worker would only resume to see the shutdown flag and return;
        closing its generator now ends it the same way without the
        resume.  A suspended worker frame holds the runtime, and the
        event it waits on holds the worker, so this is also what lets
        reference counting free a finished run.  A worker whose wait
        event still fires later (another runtime driving a shared
        environment) finds its generator done and terminates.
        """
        active = self.env._active_process
        for process in self._workers:
            if process is not None and process is not active:
                process.generator.close()

    # ------------------------------------------------------------------
    # idle management
    # ------------------------------------------------------------------
    def _register_idle(self, core: int) -> Event:
        # Pooled: only this dict holds the event until it is succeeded,
        # and the waiting worker's generator drops its reference when
        # resumed, so recycling after processing is safe.
        event = self.env._pooled_event()
        self._idle_events[core] = event
        return event

    def _wake(self, cores) -> None:
        """Wake idle workers among ``cores`` in random order.

        The wake order decides who wins a steal race at the same
        timestamp; randomizing it keeps stealing fair across cores
        (otherwise low-numbered cores would win every race).
        """
        idle = self._idle_events
        targets = [c for c in cores if c in idle]
        if not targets:
            return
        if len(targets) > 1:
            self._wake_rng.shuffle(targets)
        for core in targets:
            idle.pop(core).succeed()

    def _wake_all_idle(self) -> None:
        """Wake every idle worker (randomized order, like :meth:`_wake`)."""
        idle = self._idle_events
        if not idle:
            return
        targets = sorted(idle)
        if len(targets) > 1:
            self._wake_rng.shuffle(targets)
        for core in targets:
            idle.pop(core).succeed()
