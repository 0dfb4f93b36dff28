"""The cluster worker: executes leased cells, streams results back.

``python -m repro.cluster.worker --connect tcp://host:port`` joins a
coordinator (:mod:`repro.cluster.coordinator`) and executes the
:class:`~repro.sweep.spec.RunSpec`\\ s it is leased.  The same class
runs on a thread of the sweep's own process for ``--cluster inproc``
auto-workers, the chaos harness and tests.

Two execution modes:

* ``isolate=True`` (the CLI default, and every ``--cluster inproc``
  auto-worker): each executor thread wraps one long-lived subprocess
  running the supervised-pool worker loop
  (:func:`repro.sweep.engine._worker_main`), so leases run on their own
  CPUs and get exactly the single-host pool's crash/timeout
  containment — a subprocess that dies or blows the per-run budget is
  reported as a ``crash``/``timeout`` result and respawned, and the
  coordinator's retry budget takes it from there.  Stopping the worker
  ends each subprocess gracefully: ``None`` on its pipe, a bounded
  join, and ``terminate`` only if it is still alive (or was stopped
  mid-run).
* ``isolate=False`` (the class default; ``--no-isolate``): leases
  execute via :func:`~repro.sweep.registry.execute_spec` on executor
  threads inside this process — no subprocess to start, with crash
  isolation delegated to the coordinator's lease machinery.  The chaos
  harness and the coordinator tests use it.

The main loop is never blocked by execution: it pumps the connection,
flushes the outbox, and heartbeats on ``heartbeat_interval`` — so a
slow run keeps heartbeating (straggler, never killed) while a paused or
GIL-bound worker goes silent (the coordinator's liveness call).  On a
lost connection the worker reconnects with backoff and **re-registers**,
then flushes any results buffered while disconnected — that is how it
survives both partitions and a coordinator restart; the coordinator
resolves replayed results by cache key, so nothing double-commits.
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
        The coordinator's listen address.
    name:
        Stable worker name; reconnections under the same name let the
        coordinator match the returning worker to its old state.
    capacity:
        Concurrent executor slots (and the advertised lease capacity).
    isolate:
        Execute leases in supervised subprocesses (see module docs).
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
        address: str,
        name: Optional[str] = None,
        capacity: int = 1,
        isolate: bool = False,
        heartbeat_interval: float = 0.25,
        reconnect_timeout: Optional[float] = 30.0,
        reconnect_delay: float = 0.1,
        chaos=None,
    ) -> None:
        self.address = address
        self.name = name or f"worker-{os.getpid()}"
        self.capacity = max(1, int(capacity))
        self.isolate = isolate
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
        """(Re)connect and register; False when the budget is spent."""
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
            conn.send(
                {
                    "type": protocol.MSG_REGISTER,
                    "name": self.name,
                    "capacity": self.capacity,
                    "pid": os.getpid(),
                    "mode": "pool" if self.isolate else "inline",
                }
            )
            self._conn = conn
            return True
        return False

    def _drop_conn(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _post(self, message: Dict[str, Any]) -> None:
        """Queue a message for the main loop to flush (thread-safe)."""
        with self._lock:
            self._outbox.append(message)

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
        elif mtype == protocol.MSG_LEASE:
            with self._lock:
                self._leases.append(message)
                self._lease_cv.notify()
        elif mtype == protocol.MSG_LEASE_BATCH:
            bodies = message.get("leases") or []
            with self._lock:
                self._leases.extend(bodies)
                self._lease_cv.notify_all()
        elif mtype == protocol.MSG_REVOKE:
            lease_id = message.get("lease")
            with self._lock:
                for queued in list(self._leases):
                    if queued.get("lease") == lease_id:
                        self._leases.remove(queued)
                        self._outbox.append(
                            {
                                "type": protocol.MSG_REVOKED,
                                "lease": lease_id,
                            }
                        )
                        break
                # A started lease is never handed back: its result wins
                # or loses the commit race at the coordinator.
        elif mtype == protocol.MSG_SHUTDOWN:
            self._halt()

    def _halt(self) -> None:
        """Stop serving and wake every executor waiting for a lease."""
        with self._lease_cv:
            self._running = False
            self._lease_cv.notify_all()

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
        from repro.sweep.registry import execute_spec

        snap = None
        try:
            if self.telemetry_on:
                from repro.telemetry.registry import MetricsRegistry, install

                with _TELEMETRY_LOCK:
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
            return (
                False,
                {"type": type(exc).__name__, "message": str(exc)},
                "exception",
                snap,
            )
        return True, metrics, "", snap

    def _spawn_pool_proc(self):
        import multiprocessing

        from repro.sweep.engine import _worker_main

        parent, child = multiprocessing.Pipe()
        proc = multiprocessing.Process(
            target=_worker_main, args=(child,), daemon=True
        )
        proc.start()
        child.close()
        return proc, parent

    @staticmethod
    def _stop_pool_proc(state: Dict[str, Any], graceful: bool) -> None:
        """Stop and reap this slot's subprocess, if it has one.

        ``graceful`` (an idle subprocess) sends ``None``, which ends its
        loop with exit code 0, and joins with a bound; a subprocess
        still alive after that — or one stopped mid-run — is terminated.
        """
        proc, pipe = state.get("proc"), state.get("pipe")
        state["proc"] = state["pipe"] = None
        if proc is None:
            return
        if graceful:
            try:
                pipe.send(None)
            except (OSError, BrokenPipeError):
                pass
            proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=5.0)
        pipe.close()

    def _execute_isolated(
        self, state: Dict[str, Any], key: str, spec,
        timeout: Optional[float], width: int,
    ):
        """Run a spec in this slot's supervised subprocess.

        Mirrors the single-host pool's contract: a dead subprocess is a
        ``crash``, one past ``timeout * width`` is killed and reported
        as a ``timeout``; either way the subprocess is replaced.  A
        worker stopped mid-run terminates the subprocess: nobody is left
        to take the result.
        """
        from repro.telemetry import HEARTBEAT_TAG

        if state.get("proc") is None or not state["proc"].is_alive():
            state["proc"], state["pipe"] = self._spawn_pool_proc()
        proc, pipe = state["proc"], state["pipe"]
        telem = (
            {"heartbeat_interval": self.heartbeat_interval}
            if self.telemetry_on
            else None
        )
        try:
            pipe.send((key, spec, telem))
        except (OSError, BrokenPipeError):
            self._stop_pool_proc(state, graceful=False)
            return (
                False,
                {"type": "SweepWorkerError",
                 "message": "pool worker died between assignments"},
                "crash",
                None,
            )
        deadline = (
            time.monotonic() + timeout * max(width, 1)
            if timeout is not None
            else None
        )
        while True:  # the assigned run must resolve either way
            step = 0.1
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._stop_pool_proc(state, graceful=False)
                    return (
                        False,
                        {"type": "SweepTimeout",
                         "message": (
                             f"run exceeded the {timeout:g}s wall-clock "
                             "timeout"
                         )},
                        "timeout",
                        None,
                    )
                step = min(step, remaining)
            if pipe.poll(step):
                try:
                    message = pipe.recv()
                except (EOFError, OSError):
                    message = None
                if message is None:
                    break  # torn pipe: treat as a crash below
                if message[0] == HEARTBEAT_TAG:
                    continue  # subprocess liveness; main loop heartbeats
                _key, ok, payload, _wall, snap = message
                if ok:
                    return True, payload, "", snap
                return False, payload, "exception", snap
            elif not proc.is_alive():
                break
            elif not self._running:
                self._stop_pool_proc(state, graceful=False)
                return (
                    False,
                    {"type": "SweepWorkerError",
                     "message": "worker stopped mid-run"},
                    "crash",
                    None,
                )
        # Dead, or tore its pipe on its way out: let it finish exiting,
        # so the exit code is known, then reap it.
        proc.join(timeout=5.0)
        code = proc.exitcode
        self._stop_pool_proc(state, graceful=False)
        return (
            False,
            {"type": "SweepWorkerError",
             "message": f"worker process died (exit code {code})"},
            "crash",
            None,
        )

    def _executor_loop(self, slot: int) -> None:
        from repro.sweep.registry import RunBuilder

        state: Dict[str, Any] = {"proc": None, "pipe": None}
        builder = RunBuilder()  # runs on this thread (not isolated)
        try:
            while self._running:
                # Block on the lease condvar: it wakes the instant a
                # grant lands.
                lease = self._take_lease(wait=0.05)
                if lease is None:
                    continue
                lease_id = lease["lease"]
                key = lease["key"]
                try:
                    spec = protocol.spec_from_wire(lease.get("spec"))
                    if spec.key() != key:
                        raise protocol.SpecWireError(
                            f"lease spec rebuilds key {spec.key()[:12]}, "
                            f"not its lease key {str(key)[:12]}"
                        )
                except protocol.SpecWireError as exc:
                    # No MSG_STARTED: the run never began.  A "decode"
                    # kind routes through the coordinator's retry path.
                    self._post(
                        {
                            "type": protocol.MSG_RESULT,
                            "lease": lease_id,
                            "key": key,
                            "ok": False,
                            "payload": {
                                "type": type(exc).__name__,
                                "message": str(exc),
                            },
                            "kind": "decode",
                            "wall": 0.0,
                            "snap": None,
                        }
                    )
                    continue
                width = int(lease.get("width") or 1)
                timeout = lease.get("timeout")
                run_index = next(self._run_counter)
                active = _ActiveRun(lease_id, key)
                with self._lock:
                    self._active[lease_id] = active
                self._post(
                    {"type": protocol.MSG_STARTED, "lease": lease_id,
                     "key": key}
                )
                if self.chaos is not None:
                    stall = self.chaos.stall_before(run_index)
                    if stall > 0:
                        time.sleep(stall)
                start = time.monotonic()
                if self.isolate:
                    ok, payload, kind, snap = self._execute_isolated(
                        state, key, spec, timeout, width
                    )
                else:
                    ok, payload, kind, snap = self._execute_inline(
                        spec, builder
                    )
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
        finally:
            self._stop_pool_proc(state, graceful=True)

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
        """Serve leases until shutdown, stop, or a chaos kill."""
        for slot in range(self.capacity):
            thread = threading.Thread(
                target=self._executor_loop,
                args=(slot,),
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
                # Short poll while anything is in flight (results must
                # flush promptly for tiny cells), long poll when idle so
                # an idle worker stays cheap.
                with self._lock:
                    busy = bool(self._active or self._leases or self._outbox)
                recv_timeout = 0.002 if busy else 0.02
                try:
                    message = self._conn.recv(timeout=recv_timeout)
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
        at once and stop their subprocesses."""
        self._halt()


def start_worker_thread(
    address: str, name: Optional[str] = None, **kwargs
) -> ClusterWorker:
    """Spawn a :class:`ClusterWorker` on a daemon thread (tests, the
    chaos harness, and the ``--cluster inproc`` auto-workers).  Returns
    the worker; its thread is ``worker._thread``."""
    worker = ClusterWorker(address, name=name, **kwargs)
    thread = threading.Thread(
        target=worker.run, name=f"cluster-{worker.name}", daemon=True
    )
    worker._thread = thread
    thread.start()
    return worker


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.cluster.worker --connect ...``."""
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
        "--name", default=None, help="stable worker name (default: pid-based)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="concurrent executor slots (default 1)",
    )
    parser.add_argument(
        "--no-isolate",
        action="store_true",
        help="execute leases on threads in this process instead of in "
        "supervised subprocesses (faster; loses crash/timeout isolation)",
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
    worker = ClusterWorker(
        args.connect,
        name=args.name,
        capacity=args.jobs,
        isolate=not args.no_isolate,
        reconnect_timeout=args.reconnect_timeout,
    )
    worker.run()
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
