"""The cluster worker: executes leased cells, streams results back.

``python -m repro.cluster.worker --connect tcp://host:port --jobs N``
joins a coordinator (:mod:`repro.cluster.coordinator`) with ``N``
worker processes under one parent, which restarts a child that exits
non-zero and exits 0 once every child has exited 0 after ``shutdown``.
Each process executes the :class:`~repro.sweep.spec.RunSpec`\\ s it is
leased.  The sweep engine's auto-workers (every ``--jobs N`` sweep and
``--cluster inproc``) are the same class in processes their
coordinator forks (:func:`local_worker_main`), each speaking over one
end of a socketpair; the chaos harness and tests also run it on a
thread (:func:`start_worker_thread`).

Executor threads run leases via
:func:`~repro.sweep.registry.execute_spec`, ``capacity`` at a time, and
send their ``started`` and ``result`` messages straight over the
connection (a worker under chaos queues them for the main loop
instead).  The main loop blocks on one wake-up event, set by inbound
messages and by anything queued for it; it takes in leases, flushes
queued messages, and
heartbeats every ``heartbeat_interval`` (the coordinator's, adopted
from its welcome) — so a slow run keeps heartbeating (straggler, never
killed) while a paused or GIL-bound worker goes silent (the
coordinator's liveness call).  On a lost connection the worker
reconnects with backoff and **re-registers**, then flushes any results
buffered while disconnected — that is how it survives both partitions
and a coordinator restart; the coordinator resolves replayed results
by cache key, so nothing double-commits.  A worker without an address
(a forked auto-worker) cannot reconnect: losing its connection ends it.
"""

from __future__ import annotations

import argparse
import itertools
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.cluster import comm, protocol

#: Serializes per-run telemetry-registry installs across executor
#: threads (the registry hook is process-global).
_TELEMETRY_LOCK = threading.Lock()


def _execute(spec, builder, metered: bool):
    """Run one spec; returns ``(ok, payload, snap)``.

    ``payload`` is the metrics dict, or ``{"type", "message"}`` when the
    run raised.  ``metered`` installs a fresh metrics registry for the
    run and returns its snapshot as ``snap`` (else ``None``).  Only
    ``Exception`` is caught.
    """
    from repro.sweep.registry import execute_spec

    snap = None
    try:
        if metered:
            from repro.telemetry.registry import MetricsRegistry, install

            registry = MetricsRegistry()
            previous = install(registry)
            try:
                metrics = execute_spec(spec, builder)
            finally:
                install(previous)
                snap = registry.snapshot()
        else:
            metrics = execute_spec(spec, builder)
    except Exception as exc:
        return False, _failure(exc), snap
    return True, metrics, snap


def _decode(key: str, wire: Any):
    """Rebuild a lease's spec; :class:`~repro.cluster.protocol.SpecWireError`
    unless it is one and hashes to the lease's key."""
    spec = protocol.spec_from_wire(wire)
    if spec.key() != key:
        raise protocol.SpecWireError(
            f"lease spec rebuilds key {spec.key()[:12]}, "
            f"not its lease key {str(key)[:12]}"
        )
    return spec


def _failure(exc: BaseException) -> Dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc)}


class _ActiveRun:
    """One lease currently executing on an executor thread."""

    def __init__(self, lease_id: str, key: str) -> None:
        self.lease_id = lease_id
        self.key = key
        self.started = time.monotonic()


class ClusterWorker:
    """One worker process/thread serving a coordinator.

    Parameters
    ----------
    address:
        The coordinator's listen address; ``None`` for a worker handed
        its connection (:func:`local_worker_main`), which ends when that
        connection does.
    name:
        Stable worker name; reconnections under the same name let the
        coordinator match the returning worker to its old state.
    capacity:
        Concurrent executor slots (and the advertised lease capacity).
    heartbeat_interval:
        Seconds between heartbeats until the coordinator's welcome
        replaces it with the coordinator's own interval.
    reconnect_timeout:
        Total seconds to keep retrying a lost/absent coordinator before
        giving up; ``0`` fails fast (tests), ``None`` retries forever.
    chaos:
        Optional :class:`~repro.cluster.chaos.WorkerChaos` hook driving
        deterministic failure injection (kills, pauses, partitions,
        stalls) for the chaos harness.
    """

    def __init__(
        self,
        address: Optional[str],
        name: Optional[str] = None,
        capacity: int = 1,
        heartbeat_interval: float = 0.25,
        reconnect_timeout: Optional[float] = 30.0,
        reconnect_delay: float = 0.1,
        chaos=None,
    ) -> None:
        self.address = address
        self.name = name or f"worker-{os.getpid()}"
        self.capacity = max(1, int(capacity))
        self.heartbeat_interval = heartbeat_interval
        self.reconnect_timeout = reconnect_timeout
        self.reconnect_delay = reconnect_delay
        self.chaos = chaos
        self.telemetry_on = False
        self._conn: Optional[comm.Connection] = None
        #: Cleared by stop(), a shutdown message or a chaos kill.  Set
        #: here rather than in run(), so a stop() that lands before the
        #: worker's thread gets to run() still holds.
        self._running = True
        self._killed = False
        self._lock = threading.Lock()
        #: Wakes executor threads the moment a lease lands; shares
        #: ``_lock`` so intake and revoke stay serialized.
        self._lease_cv = threading.Condition(self._lock)
        #: Wakes the main loop: set by inbound messages (the
        #: connection's ``wakeup``), by queued outbound ones and by stop.
        self._wakeup = threading.Event()
        self._leases: deque = deque()  # granted, not yet picked up
        self._active: Dict[str, _ActiveRun] = {}
        self._outbox: deque = deque()  # messages awaiting a live conn
        self._executors: List[threading.Thread] = []
        self._run_counter = itertools.count()
        self.results_completed = 0
        self._last_heartbeat = 0.0
        self._reconnect_not_before = 0.0

    # -- connection management ------------------------------------------
    def _connect(self) -> bool:
        """(Re)connect and register; False when the budget is spent or
        there is no address to connect to."""
        if self.address is None:
            return False
        deadline = (
            None
            if self.reconnect_timeout is None
            else time.monotonic() + self.reconnect_timeout
        )
        delay = self.reconnect_delay
        while self._running:
            wait = self._reconnect_not_before - time.monotonic()
            if wait > 0:
                time.sleep(min(wait, 0.1))
                continue
            try:
                conn = comm.connect(self.address)
            except comm.ClusterError:
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                time.sleep(delay)
                delay = min(delay * 2, 2.0)
                continue
            self._attach(conn)
            return True
        return False

    def _attach(self, conn: comm.Connection) -> None:
        """Register over ``conn`` and serve it from here on."""
        conn.wakeup = self._wakeup
        conn.send(
            {
                "type": protocol.MSG_REGISTER,
                "name": self.name,
                "capacity": self.capacity,
                "pid": os.getpid(),
            }
        )
        self._conn = conn
        # Registering is proof of life: the first heartbeat is due one
        # interval from now.
        self._last_heartbeat = time.monotonic()

    def _drop_conn(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _post(self, message: Dict[str, Any]) -> None:
        """Send a message.

        It goes straight over the live connection unless messages are
        already queued ahead of it (only after a failed send); then it
        is queued for the main loop to flush.  A worker under chaos
        always queues, so the main loop sees each result and applies its
        chaos events in between.
        """
        with self._lock:
            conn = self._conn
            if conn is not None and not self._outbox and self.chaos is None:
                try:
                    conn.send(message)
                    return
                except comm.ClusterError:
                    pass
            self._outbox.append(message)
        self._wakeup.set()

    def _flush(self) -> bool:
        """Push the outbox over the live connection; False on failure."""
        while True:
            with self._lock:
                if not self._outbox:
                    return True
                message = self._outbox[0]
            try:
                self._conn.send(message)
            except comm.ClusterError:
                return False
            with self._lock:
                self._outbox.popleft()

    # -- lease intake ----------------------------------------------------
    def _handle(self, message: Dict[str, Any]) -> None:
        mtype = message.get("type")
        if mtype == protocol.MSG_WELCOME:
            self.telemetry_on = bool(message.get("telemetry"))
            interval = message.get("heartbeat_interval")
            if interval:
                self.heartbeat_interval = float(interval)
        elif mtype == protocol.MSG_LEASE:
            with self._lock:
                self._leases.append(message)
                self._lease_cv.notify()
        elif mtype == protocol.MSG_REVOKE:
            lease_id = message.get("lease")
            with self._lock:
                queued = [g for g in self._leases if g.get("lease") == lease_id]
                for grant in queued:
                    self._leases.remove(grant)
            # A started lease is never handed back: its result wins or
            # loses the commit race at the coordinator.
            if queued:
                self._post({"type": protocol.MSG_REVOKED, "lease": lease_id})
        elif mtype == protocol.MSG_SHUTDOWN:
            self._halt()

    def _halt(self) -> None:
        """Stop serving: wake every executor waiting for a lease and the
        main loop."""
        with self._lease_cv:
            self._running = False
            self._lease_cv.notify_all()
        self._wakeup.set()

    def _take_lease(self, wait: float = 0.0) -> Optional[Dict[str, Any]]:
        with self._lease_cv:
            if not self._leases and wait > 0 and self._running:
                self._lease_cv.wait(wait)
            if self._leases:
                return self._leases.popleft()
        return None

    # -- execution -------------------------------------------------------
    def _execute_inline(self, spec, builder):
        """Run a spec on this thread; returns (ok, payload, kind, snap)."""
        if self.telemetry_on:
            with _TELEMETRY_LOCK:
                ok, payload, snap = _execute(spec, builder, True)
        else:
            ok, payload, snap = _execute(spec, builder, False)
        return ok, payload, "" if ok else "exception", snap

    def _executor_loop(self) -> None:
        from repro.sweep.registry import RunBuilder

        builder = RunBuilder()  # builds every run of this thread
        while self._running:
            # Block on the lease condvar: it wakes the instant a grant
            # lands, and stop() wakes it too.
            lease = self._take_lease(wait=1.0)
            if lease is None:
                continue
            lease_id = lease["lease"]
            key = lease["key"]
            try:
                spec = _decode(key, lease.get("spec"))
            except protocol.SpecWireError as exc:
                # No MSG_STARTED: the run never began.  A "decode" kind
                # routes through the coordinator's retry path.
                self._post(
                    {
                        "type": protocol.MSG_RESULT,
                        "lease": lease_id,
                        "key": key,
                        "ok": False,
                        "payload": _failure(exc),
                        "kind": "decode",
                        "wall": 0.0,
                        "snap": None,
                    }
                )
                continue
            run_index = next(self._run_counter)
            active = _ActiveRun(lease_id, key)
            with self._lock:
                self._active[lease_id] = active
            self._post(
                {"type": protocol.MSG_STARTED, "lease": lease_id, "key": key}
            )
            conn = self._conn
            if conn is not None:
                # The coordinator must know the run started before the
                # run can take this process down with it.
                conn.flush()
            if self.chaos is not None:
                stall = self.chaos.stall_before(run_index)
                if stall > 0:
                    time.sleep(stall)
            start = time.monotonic()
            ok, payload, kind, snap = self._execute_inline(spec, builder)
            wall = time.monotonic() - start
            with self._lock:
                self._active.pop(lease_id, None)
            self._post(
                {
                    "type": protocol.MSG_RESULT,
                    "lease": lease_id,
                    "key": key,
                    "ok": ok,
                    "payload": payload,
                    "kind": kind,
                    "wall": wall,
                    "snap": snap,
                }
            )
            self.results_completed += 1

    # -- the main loop ---------------------------------------------------
    def _heartbeat(self) -> None:
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_interval:
            return
        self._last_heartbeat = now
        with self._lock:
            busy = {
                run.lease_id: round(now - run.started, 3)
                for run in self._active.values()
            }
        try:
            self._conn.send(
                {"type": protocol.MSG_HEARTBEAT, "busy": busy}
            )
        except comm.ClusterError:
            pass  # the pump notices the dead conn

    def _heartbeat_due(self) -> float:
        """Seconds until the next heartbeat is due."""
        return max(
            0.0,
            self._last_heartbeat + self.heartbeat_interval - time.monotonic(),
        )

    def _apply_chaos(self) -> None:
        if self.chaos is None:
            return
        event = self.chaos.next_event(self.results_completed)
        if event is None:
            return
        if event.kind == "kill":
            # Abrupt death: no goodbye, no flush — the coordinator only
            # learns from the closed connection / silence.
            self._killed = True
            self._running = False
            self._drop_conn()
        elif event.kind == "pause":
            # Heartbeat silence: the main loop sleeps through its
            # heartbeats while executor threads keep running.
            time.sleep(event.duration)
        elif event.kind == "partition":
            self._drop_conn()
            self._reconnect_not_before = (
                time.monotonic() + event.duration
            )

    def run(self) -> None:
        """Serve leases until shutdown, stop, a chaos kill, or a lost
        connection that cannot be replaced."""
        for slot in range(self.capacity):
            thread = threading.Thread(
                target=self._executor_loop,
                name=f"{self.name}-exec{slot}",
                daemon=True,
            )
            thread.start()
            self._executors.append(thread)
        try:
            while self._running:
                if self._conn is None:
                    if not self._connect():
                        break
                # Cleared before the connection is drained, so anything
                # that arrives from here on wakes the wait below.
                self._wakeup.clear()
                try:
                    message = self._conn.recv(timeout=0)
                    while message is not None:
                        self._handle(message)
                        if not self._running:
                            break
                        message = self._conn.recv(timeout=0)
                except comm.ConnectionClosed:
                    self._drop_conn()
                    continue
                if not self._running:
                    break
                if not self._flush():
                    self._drop_conn()
                    continue
                self._heartbeat()
                self._apply_chaos()
                self._wakeup.wait(self._heartbeat_due())
        finally:
            self._halt()
            if self._conn is not None and not self._killed:
                try:
                    self._conn.send({"type": protocol.MSG_GOODBYE})
                except comm.ClusterError:
                    pass
            self._drop_conn()
            for thread in self._executors:
                thread.join(timeout=5.0)
            self._executors.clear()

    def stop(self) -> None:
        """Ask the worker loop to exit (thread-safe); its executors wake
        at once."""
        self._halt()


def start_worker_thread(
    address: str, name: Optional[str] = None, **kwargs
) -> ClusterWorker:
    """Spawn a :class:`ClusterWorker` on a daemon thread (tests, the
    chaos harness and the dispatch benchmark's TCP mode).  Returns the
    worker; its thread is ``worker._thread``."""
    worker = ClusterWorker(address, name=name, **kwargs)
    thread = threading.Thread(
        target=worker.run, name=f"cluster-{worker.name}", daemon=True
    )
    worker._thread = thread
    thread.start()
    return worker


def local_worker_main(sock, name: str, inherited) -> None:
    """Body of a worker process its coordinator forked
    (:meth:`~repro.cluster.coordinator.ClusterCoordinator.start_local_workers`).

    ``sock`` is this process's end of its socketpair.  ``inherited``
    holds the coordinator's ends of every local socketpair; closing
    their copies here means a process sees end-of-stream, and exits,
    once the coordinator's end closes or its process dies.  Returning
    from here (exit code 0) lets exit handlers such as a tracer's
    span dump run.
    """
    comm.reset_after_fork()
    for end in inherited:
        end.close()
    worker = ClusterWorker(None, name=name)
    worker._attach(comm.adopt(sock))
    worker.run()


def _serve(address: str, name: str, reconnect_timeout: float) -> None:
    """Body of one worker process of the command line (see :func:`main`)."""
    ClusterWorker(
        address, name=name, reconnect_timeout=reconnect_timeout
    ).run()


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.cluster.worker --connect ...``.

    Starts ``--jobs`` single-slot worker processes, named
    ``<name>-0``, ``<name>-1``..., and restarts one under its name when
    it exits non-zero.  Returns 0 once every process has exited 0 (after
    the coordinator's ``shutdown``, or when its reconnect budget ran
    out).
    """
    import multiprocessing
    from multiprocessing.connection import wait

    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Join a repro sweep coordinator and execute leases.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="ADDR",
        help="coordinator address (tcp://host:port or inproc://name)",
    )
    parser.add_argument(
        "--name", default=None,
        help="stable worker name; process i registers as NAME-i "
        "(default: pid-based)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes, each running one lease at a time "
        "(default 1)",
    )
    parser.add_argument(
        "--reconnect-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long to keep retrying a lost coordinator before exiting "
        "(default 30; 0 fails fast)",
    )
    args = parser.parse_args(argv)
    name = args.name or f"worker-{os.getpid()}"

    def start(slot: int):
        proc = multiprocessing.Process(
            target=_serve,
            args=(args.connect, f"{name}-{slot}", args.reconnect_timeout),
            daemon=True,
        )
        proc.start()
        return proc

    procs = {slot: start(slot) for slot in range(max(1, args.jobs))}
    while procs:
        wait([proc.sentinel for proc in procs.values()])
        for slot, proc in list(procs.items()):
            if proc.exitcode is None:
                continue
            if proc.exitcode == 0:
                del procs[slot]
            else:
                procs[slot] = start(slot)
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
