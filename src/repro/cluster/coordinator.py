"""The sweep-cell coordinator: leases, liveness, exactly-once commit.

The coordinator serves :mod:`repro.cluster.comm` connections (from its
listener, and from the worker processes it forks) and drives one
:meth:`ClusterCoordinator.execute` call per batch of pending sweep
cells.  The design generalizes PR 4's simulated-core recovery machinery
(lease expiry, queue reclaim, exactly-once re-execution, retry budgets)
to real workers over a connection, following the classic scheduler/worker
split:

* every pending cell is **leased** to a worker; the lease's expiry
  deadline arms when the worker reports the run *started*;
* **liveness** is the PR 7 heartbeat channel generalized over the comm
  layer: any message refreshes ``last_seen``; a closed connection or
  silence past ``liveness_timeout`` declares the worker lost and
  reclaims its leases onto the live pool;
* faulted cells retry with **exponential backoff + seeded jitter** up to
  ``max_attempts``, then resolve to *exhausted* (the CLI maps that to
  exit code 4);
* **exactly-once commit**: results are committed by cache key, first
  writer wins.  A reclaimed-then-finished lease's late result either
  commits (and the queued re-execution is dropped) or is suppressed as
  a duplicate — both paths count into
  ``cluster_reexec_suppressed_total`` and neither can double-commit a
  checkpoint line;
* **graceful degradation**: zero live workers parks the sweep (logged,
  resumable) instead of aborting, and a worker joining mid-sweep is
  granted leases immediately;
* **placement**: each queued cell, in the engine's longest-first
  order, goes to the worker holding the fewest leases, one ``lease``
  frame per cell, up to ``capacity * BACKLOG_FACTOR`` leases a worker;
* **work stealing**: when the queue drains, an idle worker steals an
  *unstarted* lease from the slowest backlogged worker's tail;
* **local worker processes**: :meth:`ClusterCoordinator.start_local_workers`
  forks workers that speak to it over socketpairs.  It owns them: a lost
  one is reaped (its started lease faults as a ``crash``) and, while
  cells remain, replaced; one whose run passes the run timeout is
  killed (a ``timeout``); :meth:`~ClusterCoordinator.close` stops them.

Stragglers keep PR 7's contract: a slow-but-heartbeating run is flagged
(``cluster_stragglers_total``) and *never* reclaimed early — only the
lease deadline (the distributed analog of the per-run timeout) or
worker death takes work away.  See ``docs/cluster.md``.

The coordinator feeds the telemetry hub's
:class:`~repro.telemetry.heartbeat.WorkerTable`: one row per executor
slot of each registered worker, busy while a lease runs there, with the
run's heartbeats.  The table's straggler check is the only one.  The
dispatch loop runs on the calling thread and blocks in
:func:`~repro.cluster.comm.wait` on the listener and every connection,
so an idle coordinator costs nothing and no other thread is involved.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster import comm, protocol
from repro.errors import ConfigurationError
from repro.sweep.spec import RunSpec
from repro.telemetry import Telemetry

#: How many leases a worker may hold per capacity slot (the extra is
#: the backlog that work stealing later raids).
BACKLOG_FACTOR = 2

#: Default multiple of the per-run timeout after which a *started*
#: lease expires (the run timeout is the worker's kill budget; the
#: lease deadline must sit beyond it to stay a backstop).
LEASE_TIMEOUT_FACTOR = 2.5

#: Default worker-silence budget, in heartbeat intervals.  Generous on
#: purpose: heartbeats can stall while a run holds the GIL, and PR 7's
#: contract is that silence alone never kills *early*.
LIVENESS_INTERVALS = 20.0

#: Seconds a lost local worker process gets to finish exiting before it
#: is terminated, and an idle one to obey ``shutdown`` at close.
LOST_GRACE = 1.0
SHUTDOWN_GRACE = 5.0


@dataclass
class LeaseOutcome:
    """Terminal state of one cell, as seen by the sweep runner."""

    status: str  # "ok" | "exception" | "exhausted"
    payload: Any = None  # metrics dict, or {"type", "message"} on failure
    wall: float = 0.0
    attempts: int = 1
    kind: str = ""  # exception | crash | timeout | expired (failures only)


@dataclass
class ExecuteReport:
    """Aggregate counters of one :meth:`ClusterCoordinator.execute`."""

    outcomes: Dict[str, LeaseOutcome] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    expired: int = 0
    reclaimed: int = 0
    suppressed: int = 0
    steals: int = 0
    peak_workers: int = 0
    #: Leases that started, heartbeat messages received and runs
    #: flagged as stragglers.
    started: int = 0
    heartbeats: int = 0
    stragglers: int = 0


@dataclass
class _Cell:
    """One pending sweep cell plus its retry state."""

    key: str
    spec: RunSpec
    width: int = 1
    attempts: int = 0
    not_before: float = 0.0


@dataclass
class _Lease:
    """One grant of a cell to a worker."""

    lease_id: str
    cell: _Cell
    worker: str
    granted: float
    started_at: Optional[float] = None
    deadline: Optional[float] = None
    #: The WorkerTable row showing this lease while it runs.
    row: Optional[int] = None
    #: A steal revocation is in flight; the lease is requeued only when
    #: the worker confirms it never started the run (MSG_REVOKED).
    revoking: bool = False

    @property
    def started(self) -> bool:
        return self.started_at is not None


@dataclass
class _Remote:
    """Coordinator-side state of one registered worker."""

    name: str
    conn: comm.Connection
    capacity: int = 1
    pid: Optional[int] = None
    last_seen: float = 0.0
    leases: Dict[str, _Lease] = field(default_factory=dict)
    results_done: int = 0
    #: WorkerTable rows of this worker's slots, and those not running
    #: a lease.
    rows: List[int] = field(default_factory=list)
    idle_rows: List[int] = field(default_factory=list)

    def unstarted(self) -> List[_Lease]:
        return [l for l in self.leases.values() if not l.started]


@dataclass
class _Local:
    """A worker process the coordinator forked, and the connection over
    its socketpair."""

    proc: Any  # multiprocessing.Process
    conn: comm.Connection


class ClusterCoordinator:
    """Leases sweep cells to remote workers and survives their failures.

    Parameters
    ----------
    address:
        Where to listen (``tcp://host:port``); port 0 binds
        ephemerally, and :attr:`address` reports the bound endpoint.
        ``None`` opens no listener: only the worker processes of
        :meth:`start_local_workers` can join.
    telemetry:
        Hub whose registry receives the ``cluster_*`` metrics.
    max_attempts / retry_backoff:
        Per-cell retry budget and backoff base for *infrastructure*
        failures (worker death, lease expiry, remote crash/timeout),
        the sweep engine's retry contract.  Attempt ``n``
        backs off ``retry_backoff * 2**(n-1)`` seconds plus seeded
        jitter.
    run_timeout:
        Per-run wall-clock budget: a local worker process still running
        a lease past it is killed and the run reported as a
        ``timeout``.  Also the straggler yardstick when set.
    lease_timeout:
        Seconds (per replicate of width) after a lease *starts* before
        the coordinator expires and reclaims it.  Defaults to
        ``LEASE_TIMEOUT_FACTOR * run_timeout`` when a run timeout is
        set, else no expiry (liveness alone reclaims).
    liveness_timeout:
        Worker-silence budget; ``None`` derives a generous default from
        the heartbeat interval (silence must not kill *early*).
    heartbeat_interval:
        Sent to every worker in its welcome; workers heartbeat at it.
    drain_timeout:
        After the last cell resolves, how long to keep listening for
        in-flight duplicate results from reclaimed-but-alive leases so
        they are counted (and suppressed) rather than orphaned.
    cost_model:
        Optional :class:`~repro.sweep.cost.CostModel`; its prediction
        for a started lease's spec becomes the row's expected wall
        time, which the straggler check and the sweep's ETA read.
    seed:
        Seeds the backoff jitter — scheduling only, never results.
    """

    def __init__(
        self,
        address: Optional[str],
        telemetry: Optional[Telemetry] = None,
        max_attempts: int = 2,
        retry_backoff: float = 0.5,
        run_timeout: Optional[float] = None,
        lease_timeout: Optional[float] = None,
        liveness_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.25,
        drain_timeout: float = 0.25,
        cost_model=None,
        seed: int = 0,
        log: Optional[Callable[..., None]] = None,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.listener = None if address is None else comm.listen(address)
        self.address = None if address is None else self.listener.address
        self.telemetry = telemetry or Telemetry(enabled=False)
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.run_timeout = run_timeout
        if lease_timeout is None and run_timeout is not None:
            lease_timeout = LEASE_TIMEOUT_FACTOR * run_timeout
        self.lease_timeout = lease_timeout
        #: A run is a straggler past half this (or 3x its expected
        #: wall); see :func:`~repro.telemetry.heartbeat.straggler_after`.
        self._straggler_timeout = (
            run_timeout if run_timeout is not None else lease_timeout
        )
        self.heartbeat_interval = heartbeat_interval
        if liveness_timeout is None:
            liveness_timeout = max(
                LIVENESS_INTERVALS * heartbeat_interval, 5.0
            )
        self.liveness_timeout = liveness_timeout
        self.drain_timeout = drain_timeout
        self.cost_model = cost_model
        self._rng = random.Random(seed)
        self._log = log or (lambda message, kind="info": None)
        self._lease_ids = itertools.count(1)
        self._workers: Dict[str, _Remote] = {}
        #: Cell key -> count of leases currently granted for it,
        #: maintained incrementally so `_next_ready` never rebuilds it.
        self._inflight: Dict[str, int] = {}
        #: Names of workers holding >= 1 lease — the expiry/straggler
        #: rescans iterate this instead of the whole worker table.
        self._leased: Set[str] = set()
        self._held_count = 0
        #: Connections accepted but not yet registered.
        self._pending_conns: List[comm.Connection] = []
        #: Connections of lost-but-possibly-returning workers, still
        #: pumped so a paused worker's late results are seen (and
        #: suppressed or committed) instead of silently dropped.
        self._lost_conns: Dict[str, comm.Connection] = {}
        #: Reclaimed-but-maybe-still-running leases by id (the owner is
        #: alive; its result may still arrive).
        self._zombies: Dict[str, _Lease] = {}
        #: Earliest backoff expiry the dispatch loop must wake for.
        self._wake_at = float("inf")
        self._closed = False
        self._unresolved: Set[str] = set()
        #: The worker processes this coordinator started, by name.
        self._locals: Dict[str, _Local] = {}

        reg = self.telemetry.registry
        self._m_live = reg.gauge(
            "cluster_workers_live", "Registered cluster workers currently live"
        )
        self._m_held = reg.gauge(
            "cluster_leases_held", "Leases currently granted to workers"
        )
        self._m_joined = reg.counter(
            "cluster_workers_joined_total", "Worker registrations accepted"
        )
        self._m_lost = reg.counter(
            "cluster_workers_lost_total",
            "Workers declared dead (connection closed or heartbeat silence)",
        )
        self._m_granted = reg.counter(
            "cluster_leases_granted_total", "Leases granted (retries re-count)"
        )
        self._m_expired = reg.counter(
            "cluster_leases_expired_total",
            "Started leases that outlived their expiry deadline",
        )
        self._m_reclaimed = reg.counter(
            "cluster_leases_reclaimed_total",
            "Leases taken back onto the queue (expiry, death, stealing)",
        )
        self._m_suppressed = reg.counter(
            "cluster_reexec_suppressed_total",
            "Duplicate commits avoided: late results dropped by cache key "
            "and queued re-executions cancelled by an earlier commit",
        )
        self._m_steals = reg.counter(
            "cluster_steals_total",
            "Unstarted leases stolen from a backlogged worker's tail",
        )
        self._m_retries = reg.counter(
            "cluster_retries_total",
            "Cell re-queues after an infrastructure failure",
        )
        self._m_results = reg.counter(
            "cluster_results_total", "Results received from workers"
        )
        self._m_heartbeats = reg.counter(
            "cluster_heartbeats_total", "Worker heartbeat messages received"
        )
        self._m_stragglers = reg.counter(
            "cluster_stragglers_total",
            "Remote runs flagged past their expected envelope (never killed)",
        )
        self._m_parked = reg.counter(
            "cluster_parked_total",
            "Dispatch-loop intervals spent parked with zero live workers",
        )

    # -- worker bookkeeping ---------------------------------------------
    def workers_live(self) -> int:
        return len(self._workers)

    def _welcome(self, worker: _Remote) -> None:
        worker.conn.send(
            {
                "type": protocol.MSG_WELCOME,
                "worker": worker.name,
                "heartbeat_interval": self.heartbeat_interval,
            }
        )

    def _add_worker(self, worker: _Remote) -> None:
        """Enter a (re)joined worker, with one WorkerTable row per slot."""
        table = self.telemetry.workers
        worker.rows = [table.spawn(worker.pid) for _ in range(worker.capacity)]
        worker.idle_rows = list(worker.rows)
        self._workers[worker.name] = worker
        lost = self._lost_conns.pop(worker.name, None)
        if lost is not None and lost is not worker.conn:
            lost.close()  # it came back over a new connection
        self._m_joined.inc()
        self._m_live.set(len(self._workers))

    def _retire_rows(self, worker: _Remote) -> None:
        for ident in worker.rows:
            self.telemetry.workers.retire(ident)

    def _register(
        self, conn: comm.Connection, message: Dict[str, Any], now: float
    ) -> None:
        name = str(message.get("name") or f"worker-{len(self._workers)}")
        old = self._workers.get(name)
        if old is not None and old.conn is not conn:
            # The worker reconnected (partition healed, coordinator
            # restart): reclaim whatever the old connection held — its
            # started leases become zombies whose late results are
            # resolved by key — and adopt the new connection.
            self._reclaim_worker(
                old, f"worker {name} lost (connection replaced)",
                keep_zombies=True,
            )
            self._retire_rows(old)
            old.conn.close()
        worker = _Remote(
            name=name,
            conn=conn,
            capacity=max(1, int(message.get("capacity", 1))),
            pid=message.get("pid"),
            last_seen=now,
        )
        self._add_worker(worker)
        self._welcome(worker)
        self._log(
            f"cluster: worker {name} joined "
            f"(capacity {worker.capacity}, pid {worker.pid})"
        )

    def _revive(
        self, name: str, conn: comm.Connection, now: float
    ) -> _Remote:
        """A lost worker spoke again without re-registering: rejoin it
        with zero leases (everything it held was already reclaimed)."""
        worker = _Remote(name=name, conn=conn, last_seen=now)
        self._add_worker(worker)
        self._log(f"cluster: worker {name} resumed after silence")
        return worker

    def _reclaim_worker(
        self, worker: _Remote, message: str, keep_zombies: bool
    ) -> None:
        """Take every lease back from ``worker`` and fault the started
        ones with ``message``.  ``keep_zombies`` preserves started
        leases as zombies — used when the worker may still be executing
        (pause, partition, reconnect) so its late result is matched
        instead of orphaned."""
        leases = list(worker.leases.values())
        worker.leases.clear()
        for lease in leases:
            self._lease_removed(worker, lease)
            self._m_reclaimed.inc()
            self._report.reclaimed += 1
            if lease.started:
                if keep_zombies:
                    self._zombies[lease.lease_id] = lease
                self._fault(
                    lease.cell,
                    kind="crash",
                    etype="SweepWorkerError",
                    message=message,
                )
            else:
                # Never started: recycling costs no attempt.
                lease.cell.not_before = 0.0
                self._queue.append(lease.cell)
        self._update_held()

    def _lose_worker(self, worker: _Remote, reason: str) -> None:
        self._workers.pop(worker.name, None)
        self._m_lost.inc()
        self._m_live.set(len(self._workers))
        self._log(
            f"cluster: worker {worker.name} lost ({reason}); "
            f"reclaiming {len(worker.leases)} lease(s)",
            kind="retry",
        )
        if worker.name in self._locals:
            # One of ours: it ends here, so nothing it ran can still
            # arrive, and while cells remain a new process takes its
            # place.
            code = self._reap(worker.name, LOST_GRACE)
            self._reclaim_worker(
                worker, f"worker process died (exit code {code})",
                keep_zombies=False,
            )
            self._retire_rows(worker)
            if self._unresolved:
                self._start_local(worker.name)
            return
        # Keep the connection on file when it is still open: a paused
        # worker that wakes up will speak again and be revived.
        still_open = not worker.conn.closed
        self._reclaim_worker(
            worker, f"worker {worker.name} lost ({reason})",
            keep_zombies=still_open,
        )
        self._retire_rows(worker)
        if still_open:
            self._lost_conns[worker.name] = worker.conn

    # -- local worker processes ------------------------------------------
    def start_local_workers(self, count: int) -> None:
        """Top this coordinator's worker processes up to ``count``,
        named ``local-0`` ... ``local-<count-1>``; each registers like
        any worker (see :meth:`await_workers`).

        Each is forked (``multiprocessing.Process``) from the calling
        thread, which must be the one driving :meth:`execute`: only that
        thread ever starts them, so no child inherits another start's
        half-made state.
        """
        for slot in range(count):
            if f"local-{slot}" not in self._locals:
                self._start_local(f"local-{slot}")

    def _start_local(self, name: str) -> None:
        import multiprocessing
        import socket

        from repro.cluster.worker import local_worker_main

        ours, theirs = socket.socketpair()
        conn = comm.Connection(ours)
        inherited = [conn] + [local.conn for local in self._locals.values()]
        proc = multiprocessing.Process(
            target=local_worker_main, args=(theirs, name, inherited),
            name=f"repro-{name}", daemon=True,
        )
        proc.start()
        theirs.close()
        self._pending_conns.append(conn)
        self._locals[name] = _Local(proc=proc, conn=conn)

    def _reap(self, name: str, grace: float) -> Optional[int]:
        """Close local worker ``name``'s connection, give its process
        ``grace`` seconds to exit, terminate it if it has not, and reap
        it; returns its exit code."""
        local = self._locals.pop(name)
        local.conn.close()
        local.proc.join(grace)
        if local.proc.is_alive():
            local.proc.terminate()
            local.proc.join()
        return local.proc.exitcode

    def _update_held(self) -> None:
        self._m_held.set(self._held_count)

    def _lease_added(self, worker: _Remote, lease: _Lease) -> None:
        """Record a grant: worker table, inflight index, leased index."""
        worker.leases[lease.lease_id] = lease
        self._held_count += 1
        self._leased.add(worker.name)
        key = lease.cell.key
        self._inflight[key] = self._inflight.get(key, 0) + 1

    def _lease_removed(self, worker: Optional[_Remote], lease: _Lease) -> None:
        """Undo :meth:`_lease_added` after a lease left a worker table
        (result, expiry, revoke, reclaim) — call *after* the removal.
        A started lease frees its WorkerTable row."""
        self._held_count -= 1
        if worker is not None and not worker.leases:
            self._leased.discard(worker.name)
        if lease.row is not None:
            self.telemetry.workers.finish(lease.row)
            if worker is not None:
                worker.idle_rows.append(lease.row)
            lease.row = None
        key = lease.cell.key
        remaining = self._inflight.get(key, 0) - 1
        if remaining > 0:
            self._inflight[key] = remaining
        else:
            self._inflight.pop(key, None)

    # -- cell resolution -------------------------------------------------
    def _resolve(self, cell_key: str, outcome: LeaseOutcome) -> None:
        self._report.outcomes[cell_key] = outcome
        self._unresolved.discard(cell_key)
        # Cancel any queued re-execution of the same cell (a reclaimed
        # lease finished after all): that is a suppressed re-execution.
        queued = [c for c in self._queue if c.key == cell_key]
        for cell in queued:
            self._queue.remove(cell)
            self._m_suppressed.inc()
            self._report.suppressed += 1
        # Revoke unstarted sibling leases of the same cell (stolen-then-
        # committed races); started siblings run to completion and their
        # results are suppressed on arrival.
        for worker in self._workers.values():
            for lease in list(worker.leases.values()):
                if lease.cell.key == cell_key and not lease.started:
                    del worker.leases[lease.lease_id]
                    self._lease_removed(worker, lease)
                    self._m_suppressed.inc()
                    self._report.suppressed += 1
                    try:
                        worker.conn.send(
                            {
                                "type": protocol.MSG_REVOKE,
                                "lease": lease.lease_id,
                            }
                        )
                    except comm.ClusterError:
                        pass
        if self._on_resolved is not None:
            extra = self._on_resolved(cell_key, outcome)
            if extra:
                for key, spec, width in extra:
                    self._add_cell(key, spec, width)

    def _add_cell(self, key: str, spec: RunSpec, width: int) -> None:
        if key in self._unresolved or key in self._report.outcomes:
            return
        self._unresolved.add(key)
        cell = _Cell(key=key, spec=spec, width=width)
        self._cells[key] = cell
        self._queue.append(cell)

    def _fault(
        self, cell: _Cell, kind: str, etype: str, message: str
    ) -> None:
        """Infrastructure failure of one execution: retry or exhaust."""
        cell.attempts += 1
        if kind in ("timeout", "expired"):
            self._report.timeouts += 1
        if cell.key not in self._unresolved:
            return  # already committed by a racing duplicate
        if cell.attempts >= self.max_attempts:
            self._resolve(
                cell.key,
                LeaseOutcome(
                    status="exhausted",
                    payload={"type": etype, "message": message},
                    attempts=cell.attempts,
                    kind=kind,
                ),
            )
            self._log(
                f"cluster: run {cell.key[:12]}: {kind} on attempt "
                f"{cell.attempts}/{self.max_attempts}; giving up "
                f"({message})",
                kind="fail",
            )
            return
        self._m_retries.inc()
        self._report.retries += 1
        delay = self.retry_backoff * (2 ** (cell.attempts - 1))
        delay *= 1.0 + 0.25 * self._rng.random()  # seeded jitter
        cell.not_before = time.monotonic() + delay
        self._wake_at = min(self._wake_at, cell.not_before)
        self._queue.append(cell)
        self._log(
            f"cluster: run {cell.key[:12]}: {kind} on attempt "
            f"{cell.attempts}/{self.max_attempts}; retrying in "
            f"{delay:.2f}s ({message})",
            kind="retry",
        )

    # -- message handling -------------------------------------------------
    def _handle_result(
        self, worker: Optional[_Remote], message: Dict[str, Any]
    ) -> None:
        lease_id = message.get("lease")
        cell_key = message.get("key")
        self._m_results.inc()
        lease = self._zombies.pop(lease_id, None)
        wall = float(message.get("wall") or 0.0)
        if worker is not None:
            found = worker.leases.pop(lease_id, None)
            if found is not None:
                lease = found
                worker.results_done += 1
                self._lease_removed(worker, found)
        self._update_held()
        if cell_key not in self._unresolved:
            # Late duplicate of an already-committed cell (the reclaim
            # raced a finish): detected by cache key and dropped.
            self._m_suppressed.inc()
            self._report.suppressed += 1
            self._log(
                f"cluster: duplicate result for {str(cell_key)[:12]} "
                "suppressed (cell already committed)"
            )
            return
        cell = lease.cell if lease is not None else None
        attempts = (cell.attempts if cell is not None else 0) + 1
        if message.get("ok"):
            self._resolve(
                cell_key,
                LeaseOutcome(
                    status="ok",
                    payload=message.get("payload"),
                    wall=wall,
                    attempts=attempts,
                ),
            )
            return
        payload = message.get("payload") or {}
        kind = str(message.get("kind") or "exception")
        if kind == "exception":
            # Deterministic: captured once, never retried.
            self._resolve(
                cell_key,
                LeaseOutcome(
                    status="exception",
                    payload=payload,
                    wall=wall,
                    attempts=attempts,
                    kind=kind,
                ),
            )
            return
        # Worker-side infrastructure failure (a lease that did not
        # decode).
        target = cell if cell is not None else self._find_cell(cell_key)
        if target is not None:
            self._fault(
                target,
                kind=kind,
                etype=str(payload.get("type") or "SweepWorkerError"),
                message=str(payload.get("message") or "remote failure"),
            )

    def _find_cell(self, cell_key: str) -> Optional[_Cell]:
        for cell in self._queue:
            if cell.key == cell_key:
                return None  # already queued for retry; nothing to fault
        for w in self._workers.values():
            for lease in w.leases.values():
                if lease.cell.key == cell_key:
                    return None
        if cell_key in self._unresolved and cell_key in self._cells:
            return self._cells[cell_key]
        return None

    def _handle_message(
        self,
        conn: comm.Connection,
        worker: Optional[_Remote],
        message: Dict[str, Any],
        now: float,
    ) -> Optional[_Remote]:
        mtype = message.get("type")
        if mtype == protocol.MSG_REGISTER:
            self._register(conn, message, now)
            return self._workers.get(str(message.get("name")))
        if worker is None:
            # A lost-but-open connection spoke: revive, then process.
            name = next(
                (n for n, c in self._lost_conns.items() if c is conn), None
            )
            if name is not None:
                worker = self._revive(name, conn, now)
            elif mtype == protocol.MSG_RESULT:
                # Unknown sender (e.g. pre-restart worker): results are
                # still matched by key — exactly-once is key-based.
                self._handle_result(None, message)
                return None
            else:
                return None
        worker.last_seen = now
        if mtype == protocol.MSG_HEARTBEAT:
            self._m_heartbeats.inc()
            self._report.heartbeats += 1
            for lease_id in message.get("busy") or ():
                lease = worker.leases.get(lease_id)
                if lease is not None and lease.row is not None:
                    self.telemetry.workers.heartbeat(lease.row, now)
        elif mtype == protocol.MSG_STARTED:
            lease = worker.leases.get(message.get("lease"))
            if lease is not None and not lease.started:
                self._start(worker, lease, now)
        elif mtype == protocol.MSG_RESULT:
            self._handle_result(worker, message)
        elif mtype == protocol.MSG_REVOKED:
            lease = worker.leases.get(message.get("lease"))
            if lease is not None and not lease.started:
                # Confirmed unstarted: the steal completes and the cell
                # is free for the next idle worker.
                del worker.leases[lease.lease_id]
                self._lease_removed(worker, lease)
                self._m_steals.inc()
                self._report.steals += 1
                self._m_reclaimed.inc()
                self._report.reclaimed += 1
                lease.cell.not_before = 0.0
                self._queue.appendleft(lease.cell)
                self._update_held()
                self._log(
                    f"cluster: stole unstarted lease {lease.lease_id} "
                    f"({lease.cell.key[:12]}) from {worker.name}"
                )
        elif mtype == protocol.MSG_GOODBYE:
            self._lose_worker(worker, reason="goodbye")
        return worker

    def _start(self, worker: _Remote, lease: _Lease, now: float) -> None:
        """A lease's run began: arm its deadline and show it in a row."""
        lease.started_at = now
        # The worker won any in-flight steal race: a started lease is
        # never handed back.
        lease.revoking = False
        cell = lease.cell
        if self.run_timeout is not None and worker.name in self._locals:
            # One of ours: the process is killed at the run timeout.
            lease.deadline = now + self.run_timeout * max(cell.width, 1)
        elif self.lease_timeout is not None:
            lease.deadline = now + self.lease_timeout * max(cell.width, 1)
        self._report.started += 1
        table = self.telemetry.workers
        if worker.idle_rows:
            lease.row = worker.idle_rows.pop()
        else:  # more runs than the slots it registered with
            lease.row = table.spawn(worker.pid)
            worker.rows.append(lease.row)
        table.assign(
            lease.row,
            cell.key,
            self.telemetry.label,
            attempt=cell.attempts + 1,
            width=cell.width,
            now=now,
            expected=(
                self.cost_model.predict(cell.spec)
                if self.cost_model is not None
                else None
            ),
        )

    def _accept(self, now: float) -> bool:
        """Accept joins and read the register frames of unregistered
        connections; True if anything happened."""
        activity = False
        while self.listener is not None:
            try:
                conn = self.listener.accept(timeout=0)
            except comm.ClusterError:
                break
            if conn is None:
                break
            self._pending_conns.append(conn)
            activity = True
        # Unregistered connections: wait for their register frame.
        for conn in list(self._pending_conns):
            try:
                while True:
                    message = conn.recv(timeout=0)
                    if message is None:
                        break
                    activity = True
                    self._handle_message(conn, None, message, now)
                    if any(
                        w.conn is conn for w in self._workers.values()
                    ):
                        self._pending_conns.remove(conn)
                        break
            except comm.ConnectionClosed:
                if conn in self._pending_conns:
                    self._pending_conns.remove(conn)
        return activity

    def await_workers(self, count: int, timeout: float) -> None:
        """Return once ``count`` workers have registered.

        Only joins and registrations are processed meanwhile, so the
        wait is on the listener and the unregistered connections alone.
        Raises :class:`~repro.cluster.comm.ClusterError` when fewer than
        ``count`` have registered after ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while len(self._workers) < count:
            left = deadline - time.monotonic()
            if left <= 0:
                raise comm.ClusterError(
                    f"{len(self._workers)} of {count} workers registered"
                )
            if not self._accept(time.monotonic()):
                comm.wait(self._endpoints(registered=False), left)

    def _endpoints(self, registered: bool = True) -> List[Any]:
        """What the loop waits on: the listener, the unregistered
        connections and, unless ``registered`` is False, those of the
        registered and the lost workers."""
        endpoints: List[Any] = list(self._pending_conns)
        if self.listener is not None:
            endpoints.append(self.listener)
        if registered:
            endpoints.extend(w.conn for w in self._workers.values())
            endpoints.extend(self._lost_conns.values())
        return endpoints

    def _pump(self, now: float) -> bool:
        """Accept joins and drain every connection; True if anything
        happened (used to decide whether the loop may sleep)."""
        activity = self._accept(now)
        for worker in list(self._workers.values()):
            try:
                while True:
                    message = worker.conn.recv(timeout=0)
                    if message is None:
                        break
                    activity = True
                    self._handle_message(worker.conn, worker, message, now)
                    if self._workers.get(worker.name) is not worker:
                        break  # replaced or lost mid-drain
            except comm.ConnectionClosed:
                if self._workers.get(worker.name) is worker:
                    self._lose_worker(worker, reason="connection closed")
                activity = True
        for name, conn in list(self._lost_conns.items()):
            try:
                while True:
                    message = conn.recv(timeout=0)
                    if message is None:
                        break
                    activity = True
                    self._handle_message(conn, None, message, now)
            except comm.ConnectionClosed:
                self._lost_conns.pop(name, None)
                # Whatever it was still running will never arrive.
                for lease_id, lease in list(self._zombies.items()):
                    if lease.worker == name:
                        del self._zombies[lease_id]
        return activity

    # -- lease management --------------------------------------------------
    def _check_liveness(self, now: float) -> None:
        for worker in list(self._workers.values()):
            if worker.conn.closed:
                self._lose_worker(worker, reason="connection closed")
            elif (
                self.liveness_timeout is not None
                and now - worker.last_seen > self.liveness_timeout
            ):
                self._lose_worker(
                    worker,
                    reason=(
                        f"no heartbeat for {now - worker.last_seen:.1f}s"
                    ),
                )

    def _check_expiry(self, now: float) -> None:
        # Only workers holding leases can have one expire — the rescan
        # walks the leased index, not the whole worker table, so an idle
        # fleet costs nothing per tick.
        if not self._leased:
            return
        for name in list(self._leased):
            worker = self._workers.get(name)
            if worker is None or not worker.leases:
                self._leased.discard(name)
                continue
            for lease in list(worker.leases.values()):
                if lease.deadline is None or now < lease.deadline:
                    continue
                del worker.leases[lease.lease_id]
                self._lease_removed(worker, lease)
                if self.run_timeout is not None and name in self._locals:
                    # One of ours (see _start): the run ends with its
                    # process.
                    self._locals[name].proc.kill()
                    self._fault(
                        lease.cell,
                        kind="timeout",
                        etype="SweepTimeout",
                        message=(
                            f"run exceeded the {self.run_timeout:g}s "
                            "wall-clock timeout"
                        ),
                    )
                    self._lose_worker(worker, reason="run timed out")
                    break
                self._m_expired.inc()
                self._report.expired += 1
                self._m_reclaimed.inc()
                self._report.reclaimed += 1
                # The worker is alive — it cannot kill an in-flight
                # inline run, so the lease survives as a zombie whose
                # eventual result is matched by key.
                self._zombies[lease.lease_id] = lease
                self._log(
                    f"cluster: lease {lease.lease_id} "
                    f"({lease.cell.key[:12]}) on {worker.name} expired "
                    f"after {now - (lease.started_at or now):.1f}s; "
                    "reclaiming",
                    kind="retry",
                )
                self._fault(
                    lease.cell,
                    kind="expired",
                    etype="SweepTimeout",
                    message=(
                        f"lease outlived its "
                        f"{self.lease_timeout:g}s/replicate deadline on "
                        f"{worker.name}"
                    ),
                )
        self._update_held()

    def _check_stragglers(self, now: float) -> None:
        """Flag runs past their expected envelope; never acts on them."""
        table = self.telemetry.workers
        for view in table.check_stragglers(now, self._straggler_timeout):
            self._m_stragglers.inc()
            self._report.stragglers += 1
            expected = (
                f" (expected ~{view.expected:.1f}s)" if view.expected else ""
            )
            self._log(
                f"cluster: worker {view.ident} (pid {view.pid}) straggling "
                f"on run {(view.key or '')[:12]}: "
                f"{view.elapsed(now):.1f}s elapsed{expected}; "
                "letting it finish",
                kind="straggler",
            )

    def _grant(self, now: float) -> None:
        """Hand queued cells to the least-loaded workers, one ``lease``
        frame per cell.

        The engine submits cells cost-ordered longest-first, so the head
        of the queue goes to the worker holding the fewest leases; no
        worker holds more than ``capacity * BACKLOG_FACTOR``.
        """
        if not self._queue or not self._workers:
            return
        while True:
            open_workers = [
                w
                for w in self._workers.values()
                if len(w.leases) < w.capacity * BACKLOG_FACTOR
            ]
            if not open_workers:
                break
            cell = self._next_ready(now)
            if cell is None:
                break
            worker = min(open_workers, key=lambda w: (len(w.leases), w.name))
            if not self._send_lease(worker, cell, now):
                break  # dead conn; liveness check reaps it
        self._update_held()

    def _send_lease(self, worker: _Remote, cell: _Cell, now: float) -> bool:
        """Ship one ``lease`` frame for ``cell`` to ``worker``.  On a
        send failure the cell goes back to the queue head and the answer
        is False — the liveness check reaps the dead connection."""
        lease = _Lease(
            lease_id=f"L{next(self._lease_ids)}",
            cell=cell,
            worker=worker.name,
            granted=now,
        )
        try:
            worker.conn.send(
                {
                    "type": protocol.MSG_LEASE,
                    "lease": lease.lease_id,
                    "key": cell.key,
                    "spec": protocol.spec_to_wire(cell.spec),
                }
            )
        except comm.ClusterError:
            # Nothing was leased; a frame that did land anyway is
            # resolved by duplicate-lease suppression.
            self._queue.appendleft(cell)
            return False
        self._lease_added(worker, lease)
        self._m_granted.inc()
        return True

    def _next_ready(self, now: float) -> Optional[_Cell]:
        """Pop the first queued cell whose backoff has elapsed; leaves
        cells that (a) are still backing off or (b) already have an
        in-flight lease (no point racing ourselves while the original
        might still land)."""
        for _ in range(len(self._queue)):
            cell = self._queue.popleft()
            if cell.not_before <= now and cell.key not in self._inflight:
                return cell
            self._queue.append(cell)
        return None

    def _steal(self, now: float) -> None:
        """Move one unstarted tail lease from the most backlogged worker
        to an idle one when the queue has nothing ready."""
        if self._queue and any(
            c.not_before <= now for c in self._queue
        ):
            return  # plenty of ordinary work to grant
        idle = [w for w in self._workers.values() if not w.leases]
        if not idle:
            return
        def stealable(w):
            return [l for l in w.unstarted() if not l.revoking]

        victims = [
            w
            for w in self._workers.values()
            if stealable(w) and len(w.leases) > w.capacity
        ]
        if not victims:
            return
        victim = max(
            victims,
            key=lambda w: (len(stealable(w)), -w.results_done),
        )
        lease = stealable(victim)[-1]  # the tail of its backlog
        # Two-phase: the worker may be starting this run right now, so
        # only its MSG_REVOKED confirmation (it found the lease still
        # queued) releases the cell for re-grant — an optimistic requeue
        # here would race MSG_STARTED and execute the cell twice.
        lease.revoking = True
        try:
            victim.conn.send(
                {"type": protocol.MSG_REVOKE, "lease": lease.lease_id}
            )
        except comm.ClusterError:
            lease.revoking = False  # dead conn; liveness check reaps it
        self._log(
            f"cluster: revoking unstarted lease {lease.lease_id} "
            f"({lease.cell.key[:12]}) on {victim.name} for an idle "
            "worker"
        )

    # -- the dispatch loop -------------------------------------------------
    def execute(
        self,
        jobs: Sequence[Tuple[str, RunSpec, int]],
        on_resolved: Optional[
            Callable[[str, LeaseOutcome], Optional[List[Tuple[str, RunSpec, int]]]]
        ] = None,
        tick: Optional[Callable[[int, int, int], None]] = None,
    ) -> ExecuteReport:
        """Drive every job to resolution; returns the outcome report.

        ``on_resolved(key, outcome)`` fires as each cell commits (the
        sweep runner records, caches and checkpoints there — streaming,
        so a killed sweep still resumes past committed cells); it may
        return extra ``(key, spec, width)`` jobs to enqueue (the batch
        fall-back path).  ``tick(queue_depth, busy, live)`` lets the
        runner refresh its telemetry gauges each loop.
        """
        if self._closed:
            raise comm.ClusterError("coordinator is closed")
        self._report = ExecuteReport()
        self._on_resolved = on_resolved
        self._queue: deque = deque()
        self._unresolved = set()
        self._cells: Dict[str, _Cell] = {}
        # Rebuild the lease indexes from the worker tables: leases can
        # survive between execute() calls (e.g. a started sibling whose
        # cell committed), and the indexes must agree with the tables.
        self._inflight = {}
        self._leased = set()
        self._held_count = 0
        for worker in self._workers.values():
            for lease in list(worker.leases.values()):
                self._lease_added(worker, lease)  # re-keying is a no-op
        for key, spec, width in jobs:
            self._add_cell(key, spec, width)
        parked_since: Optional[float] = None
        last_park_log = 0.0
        while self._unresolved:
            now = time.monotonic()
            activity = self._pump(now)
            self._check_liveness(now)
            self._check_expiry(now)
            self._check_stragglers(now)
            self._steal(now)
            self._grant(now)
            self._report.peak_workers = max(
                self._report.peak_workers, len(self._workers)
            )
            if tick is not None:
                busy = sum(
                    1
                    for w in self._workers.values()
                    for lease in w.leases.values()
                    if lease.started
                )
                tick(len(self._queue), busy, len(self._workers))
            if not self._workers:
                if parked_since is None:
                    parked_since = now
                if now - last_park_log > 2.0:
                    last_park_log = now
                    self._m_parked.inc()
                    self._log(
                        f"cluster: parked — zero live workers, "
                        f"{len(self._unresolved)} cell(s) outstanding; "
                        "waiting for workers to join",
                        kind="retry",
                    )
            elif parked_since is not None:
                self._log(
                    f"cluster: resumed after parking "
                    f"{now - parked_since:.1f}s"
                )
                parked_since = None
            if not activity:
                # Whatever arrived since the pump is still readable, so
                # the wait returns at once for it.
                comm.wait(self._endpoints(), self._nap(now))
        # Linger briefly for duplicate results from reclaimed-but-alive
        # leases so they are observed (and suppressed) rather than left
        # to hit a closed socket.
        drain_until = time.monotonic() + self.drain_timeout
        while self._zombies and time.monotonic() < drain_until:
            if not self._pump(time.monotonic()):
                comm.wait(
                    self._endpoints(), drain_until - time.monotonic()
                )
            self._check_liveness(time.monotonic())
        self._on_resolved = None
        return self._report

    def _nap(self, now: float) -> float:
        """How long an idle pass may block before the next one: until
        the earliest backoff expiry, and at most 50 ms while work is
        out (lease expiry and straggler checks) or 250 ms otherwise."""
        nap = 0.05 if (self._held_count or self._queue) else 0.25
        if self._wake_at <= now:
            self._wake_at = float("inf")
        return min(nap, self._wake_at - now)

    def close(self) -> None:
        """Shut down: tell every worker to exit, stop and reap the local
        worker processes, and release the listener.

        An idle local process exits 0 on its ``shutdown`` and is joined
        with a bound; one still holding a lease (the sweep raised) is
        terminated at once, since nobody would take its result.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            self._retire_rows(worker)
            try:
                worker.conn.send({"type": protocol.MSG_SHUTDOWN})
            except comm.ClusterError:
                pass
            worker.conn.close()
        for conn in self._pending_conns:
            conn.close()
        for conn in self._lost_conns.values():
            conn.close()
        for name in list(self._locals):
            worker = self._workers.get(name)
            busy = worker is not None and bool(worker.leases)
            self._reap(name, 0.0 if busy else SHUTDOWN_GRACE)
        self._workers.clear()
        self._m_live.set(0)
        if self.listener is not None:
            self.listener.close()


__all__ = [
    "BACKLOG_FACTOR",
    "ClusterCoordinator",
    "ExecuteReport",
    "LeaseOutcome",
]
