"""Tests for the coordinator/worker cluster backend (repro.cluster).

Inproc workers — threads of this process, or the subprocesses that
``--cluster inproc`` auto-workers fork from it — see the executors
registered here; the TCP smoke test spawns real
``python -m repro.cluster.worker`` subprocesses and therefore sticks to
spec kinds from the built-in registry.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cluster import comm
from repro.cluster.chaos import run_chaos_proof
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.worker import start_worker_thread
from repro.errors import ConfigurationError
from repro.sweep import (
    ERROR_KEY,
    AdaptivePolicy,
    RunSpec,
    SweepRunner,
    is_error_result,
    pop_stats,
)
from repro.sweep.registry import executor
from repro.telemetry import Telemetry


@executor("cluster_echo")
def _echo(spec, _builder):
    return {"value": float(spec.params["value"])}


@executor("cluster_mark")
def _mark(spec, _builder):
    """Appends one line per execution — observable exactly-once evidence."""
    with open(spec.params["counter"], "a") as fh:
        fh.write(f"{spec.params['value']}\n")
    return {"value": float(spec.params["value"])}


@executor("cluster_sleep")
def _sleep(spec, _builder):
    time.sleep(spec.params.get("sleep", 0.2))
    return {"value": float(spec.params.get("value", 0))}


@executor("cluster_crash")
def _crash(spec, _builder):
    """Kills its worker subprocess; raises instead when run in-thread."""
    if multiprocessing.parent_process() is None:
        raise RuntimeError("cluster_crash runs only in a worker subprocess")
    os._exit(3)


def _executions(counter) -> int:
    try:
        with open(counter) as fh:
            return len(fh.readlines())
    except OSError:
        return 0


def _spec(kind, metrics=("value",), **params):
    return RunSpec(kind=kind, params=params, metrics=metrics)


def _jobs(specs):
    return [(spec.key(), spec, 1) for spec in specs]


def _metric(telemetry, name) -> float:
    return telemetry.registry.get(name).value


def _auto_worker_threads():
    """Live threads of ``--cluster inproc`` auto-workers (``local-<i>``)."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("cluster-local-", "local-"))
    ]


class TestComm:
    def test_inproc_roundtrip_value_space(self):
        listener = comm.listen("inproc://t-roundtrip")
        client = comm.connect(listener.address)
        server = listener.accept(timeout=1.0)
        assert server is not None
        client.send({"type": "hello", "tuple": (1, 2)})
        got = server.recv(timeout=1.0)
        # Messages cross in JSON value space even in-process: a tuple
        # arrives as a list, exactly as it would over TCP.
        assert got == {"type": "hello", "tuple": [1, 2]}
        server.send({"ok": True})
        assert client.recv(timeout=1.0) == {"ok": True}
        client.close()
        server.close()
        listener.close()

    def test_inproc_duplicate_address_rejected(self):
        listener = comm.listen("inproc://t-dup")
        try:
            with pytest.raises(comm.AddressInUse):
                comm.listen("inproc://t-dup")
        finally:
            listener.close()
        # Closing releases the name for reuse.
        comm.listen("inproc://t-dup").close()

    def test_recv_timeout_returns_none(self):
        listener = comm.listen("inproc://t-timeout")
        client = comm.connect(listener.address)
        server = listener.accept(timeout=1.0)
        assert server.recv(timeout=0.05) is None
        client.close()
        server.close()
        listener.close()

    def test_closed_peer_raises_after_drain(self):
        listener = comm.listen("inproc://t-closed")
        client = comm.connect(listener.address)
        server = listener.accept(timeout=1.0)
        client.send({"n": 1})
        client.close()
        # The queued message is still delivered before the closed
        # connection surfaces as an error.
        assert server.recv(timeout=1.0) == {"n": 1}
        with pytest.raises(comm.ConnectionClosed):
            for _ in range(100):
                server.recv(timeout=0.05)
        server.close()
        listener.close()

    def test_connect_unknown_inproc_address_fails(self):
        with pytest.raises(comm.ClusterUnavailable):
            comm.connect("inproc://nobody-here", timeout=0.1)

    def test_tcp_roundtrip_on_ephemeral_port(self):
        listener = comm.listen("tcp://127.0.0.1:0")
        assert not listener.address.endswith(":0")  # bound port reported
        client = comm.connect(listener.address, timeout=5.0)
        server = listener.accept(timeout=5.0)
        assert server is not None
        client.send({"type": "ping", "payload": {"deep": [1, 2, 3]}})
        assert server.recv(timeout=5.0) == {
            "type": "ping", "payload": {"deep": [1, 2, 3]}
        }
        server.send({"type": "pong"})
        assert client.recv(timeout=5.0) == {"type": "pong"}
        client.close()
        server.close()
        listener.close()


class TestCoordinator:
    """Direct coordinator/worker tests, no sweep runner involved."""

    def _coordinator(self, name, **kw):
        kw.setdefault("telemetry", Telemetry(enabled=True))
        kw.setdefault("retry_backoff", 0.05)
        return ClusterCoordinator(f"inproc://{name}", **kw)

    def test_basic_lease_execution(self):
        coord = self._coordinator("t-basic")
        workers = [
            start_worker_thread(coord.address, name=f"w{i}", capacity=1)
            for i in range(2)
        ]
        specs = [_spec("cluster_echo", value=v) for v in range(6)]
        try:
            report = coord.execute(_jobs(specs))
        finally:
            coord.close()
            for w in workers:
                w.stop()
        assert len(report.outcomes) == 6
        for spec in specs:
            out = report.outcomes[spec.key()]
            assert out.status == "ok"
            assert out.payload == {"value": float(spec.params["value"])}
        assert report.peak_workers == 2

    def test_parked_sweep_resumes_when_worker_joins(self):
        tele = Telemetry(enabled=True)
        coord = self._coordinator("t-park", telemetry=tele)
        specs = [_spec("cluster_echo", value=v) for v in range(3)]
        box = {}

        def drive():
            box["report"] = coord.execute(_jobs(specs))

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        time.sleep(0.3)  # zero workers: the sweep must park, not die
        assert thread.is_alive()
        assert _metric(tele, "cluster_parked_total") >= 1
        worker = start_worker_thread(coord.address, name="late")
        thread.join(timeout=10.0)
        try:
            assert not thread.is_alive()
            outcomes = box["report"].outcomes
            assert all(o.status == "ok" for o in outcomes.values())
        finally:
            coord.close()
            worker.stop()

    def test_worker_death_reclaims_and_retries(self, tmp_path):
        from repro.cluster.chaos import ChaosEvent, WorkerChaos

        tele = Telemetry(enabled=True)
        coord = self._coordinator(
            "t-death", telemetry=tele, max_attempts=3, liveness_timeout=0.6
        )
        counter = tmp_path / "c"
        specs = [
            _spec("cluster_mark", counter=str(counter), value=v)
            for v in range(6)
        ]
        doomed = start_worker_thread(
            coord.address,
            name="doomed",
            heartbeat_interval=0.1,
            chaos=WorkerChaos(
                events=[ChaosEvent(kind="kill", after_results=1)]
            ),
        )
        survivor = start_worker_thread(
            coord.address, name="survivor", heartbeat_interval=0.1
        )
        try:
            report = coord.execute(_jobs(specs))
        finally:
            coord.close()
            doomed.stop()
            survivor.stop()
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert _metric(tele, "cluster_workers_lost_total") >= 1
        # Every cell committed exactly once even if a lease was reclaimed
        # from the dead worker and re-executed elsewhere.
        assert len(report.outcomes) == 6

    def test_unstarted_backlog_is_stolen_by_idle_worker(self, tmp_path):
        tele = Telemetry(enabled=True)
        coord = self._coordinator("t-steal", telemetry=tele)
        counter = tmp_path / "c"
        # Two slow cells: capacity-1 worker gets both leases (backlog
        # factor 2) but can only run one at a time.
        specs = [
            _spec("cluster_sleep", sleep=0.6, value=v,
                  counter=str(counter))
            for v in range(2)
        ]
        box = {}

        def drive():
            box["report"] = coord.execute(_jobs(specs))

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        busy = start_worker_thread(coord.address, name="busy", capacity=1)
        time.sleep(0.3)  # busy now runs cell 0 with cell 1 unstarted
        idle = start_worker_thread(coord.address, name="idle", capacity=1)
        thread.join(timeout=15.0)
        try:
            assert not thread.is_alive()
            report = box["report"]
            assert all(o.status == "ok" for o in report.outcomes.values())
            assert report.steals >= 1
            assert _metric(tele, "cluster_steals_total") >= 1
        finally:
            coord.close()
            busy.stop()
            idle.stop()

    def test_worker_reregisters_after_coordinator_restart(self):
        address = "inproc://t-restart"
        first = self._coordinator("t-restart")
        worker = start_worker_thread(
            address,
            name="steady",
            heartbeat_interval=0.1,
            reconnect_timeout=15.0,
            reconnect_delay=0.05,
        )
        specs_a = [_spec("cluster_echo", value=v) for v in (1, 2)]
        specs_b = [_spec("cluster_echo", value=v) for v in (3, 4)]
        try:
            report_a = first.execute(_jobs(specs_a))
            assert all(o.status == "ok" for o in report_a.outcomes.values())
            # Crash the coordinator: drop every connection abruptly, no
            # shutdown goodbye (close() would tell workers to exit).
            first.listener.close()
            for remote in first._workers.values():
                remote.conn.close()
            second = self._coordinator("t-restart")
            try:
                report_b = second.execute(_jobs(specs_b))
                assert all(
                    o.status == "ok" for o in report_b.outcomes.values()
                )
                assert report_b.peak_workers >= 1
            finally:
                second.close()
        finally:
            worker.stop()

    def test_stopped_isolated_worker_ends_its_subprocess_cleanly(
        self, process_starts
    ):
        # stop() sends the idle subprocess None and joins it: exit code
        # 0, not the -15 of a SIGTERM.
        started = process_starts
        coord = self._coordinator("t-isolated-stop")
        worker = start_worker_thread(
            coord.address, name="iso", capacity=1, isolate=True
        )
        spec = _spec("cluster_echo", value=7)
        try:
            report = coord.execute(_jobs([spec]))
        finally:
            worker.stop()
            worker._thread.join(timeout=15.0)
            coord.close()
        assert report.outcomes[spec.key()].payload == {"value": 7.0}
        assert not worker._thread.is_alive()
        assert len(started) == 1
        assert [proc.exitcode for proc in started] == [0]

    def test_subprocess_death_shows_despite_a_concurrent_start(
        self, monkeypatch
    ):
        """Two executor slots starting subprocesses at once: the second
        child must not inherit the first one's pipe end and sentinel, or
        the first one's death would never show to its executor."""
        from multiprocessing.connection import wait

        from repro.cluster.worker import ClusterWorker

        real_fork = os.fork
        other = {}

        def start_other():
            other["spawned"] = ClusterWorker._spawn_proc()

        def fork():
            pid = real_fork()
            if pid and "thread" not in other:
                # The first start, between its fork and its cleanup:
                # another slot starts a subprocess now (or as soon as
                # it may).
                other["thread"] = threading.Thread(target=start_other)
                other["thread"].start()
                other["thread"].join(0.5)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        proc, pipe = ClusterWorker._spawn_proc()
        other["thread"].join(10.0)
        other_proc, other_pipe = other["spawned"]
        try:
            proc.kill()
            assert wait([pipe, proc.sentinel], timeout=5.0)
        finally:
            other_pipe.send(None)
            for p in (proc, other_proc):
                p.join(5.0)
            pipe.close()
            other_pipe.close()
        assert other_proc.exitcode == 0

    def test_closed_coordinator_rejects_execute(self):
        coord = self._coordinator("t-closed-exec")
        coord.close()
        with pytest.raises(comm.ClusterError):
            coord.execute([])

    def test_await_workers_returns_once_all_registered(self):
        coord = self._coordinator("t-await")
        workers = [
            start_worker_thread(coord.address, name=f"w{i}", capacity=1)
            for i in range(2)
        ]
        try:
            coord.await_workers(2, timeout=10.0)
            assert coord.workers_live() == 2
            with pytest.raises(comm.ClusterError, match="2 of 3 workers"):
                coord.await_workers(3, timeout=0.05)
        finally:
            coord.close()
            for w in workers:
                w.stop()


class TestClusterSweep:
    """SweepRunner integration: ``cluster="inproc"`` vs the local pool."""

    def _runner(self, tmp_path, **kw):
        kw.setdefault("use_cache", False)
        kw.setdefault("progress", False)
        kw.setdefault("retry_backoff", 0.05)
        return SweepRunner(cache_dir=tmp_path / "cache", **kw)

    def test_results_bit_identical_to_local_pool(self, tmp_path):
        specs = [
            RunSpec(
                kind="single",
                params={
                    "scheduler": sched,
                    "workload": {"name": "layered", "kind": "matmul",
                                 "total": 20, "layers": 5,
                                 "parallelism": 2},
                    "machine": "jetson_tx2",
                },
                seed=s,
                metrics=("makespan", "tasks_completed"),
            )
            for sched in ("rws", "da")
            for s in (0, 1)
        ]
        want = self._runner(tmp_path, jobs=1).run(specs)
        pop_stats()
        runner = self._runner(tmp_path, jobs=2, cluster="inproc")
        try:
            got = runner.run(specs)
        finally:
            runner.close()
        assert got == want
        (stats,) = pop_stats()
        assert stats.executed == len(specs)
        assert stats.jobs == 2  # peak live cluster workers

    #: ci=0 stops only cells whose replicates are identical; these vary,
    #: so every cell grows to max_seeds: round 1 runs 2 replicates per
    #: cell, rounds 2-4 one more each.
    POLICY = AdaptivePolicy(ci=0.0, min_seeds=2, max_seeds=5)

    @staticmethod
    def _cells():
        return [
            RunSpec(
                kind="single",
                params={
                    "workload": {"name": "layered", "kernel": "copy",
                                 "parallelism": 2, "total": 16},
                    "machine": "jetson_tx2",
                    "scheduler": scheduler,
                },
                seed=3,
                metrics=("throughput", "tasks_completed"),
            )
            for scheduler in ("rws", "dam-c", "fam-c")
        ]

    def _serial(self, tmp_path):
        return self._runner(tmp_path, jobs=1).run_adaptive(
            self._cells(), self.POLICY
        )

    def test_adaptive_call_starts_one_process_per_auto_worker(
        self, tmp_path, process_starts
    ):
        serial = self._serial(tmp_path)
        started = process_starts
        pop_stats()
        runner = self._runner(tmp_path, jobs=2, cluster="inproc")
        try:
            rows = runner.run_adaptive(self._cells(), self.POLICY)
            # Checked before close(): the call itself reaps its workers.
            assert multiprocessing.active_children() == []
            assert _auto_worker_threads() == []
        finally:
            runner.close()
        (stats,) = pop_stats()
        assert rows == serial
        assert stats.executed == 3 * self.POLICY.max_seeds
        assert len(started) == 2
        assert [proc.exitcode for proc in started] == [0, 0]

    def test_auto_workers_register_before_the_first_dispatch(
        self, tmp_path, capsys
    ):
        serial = self._serial(tmp_path)
        tele = Telemetry(enabled=True)
        runner = self._runner(
            tmp_path, jobs=2, cluster="inproc", telemetry=tele, progress=True
        )
        try:
            for _ in range(2):  # each call starts its own auto-workers
                assert runner.run_adaptive(self._cells(), self.POLICY) == serial
        finally:
            runner.close()
        assert _metric(tele, "cluster_parked_total") == 0
        assert "parked" not in capsys.readouterr().err

    def test_no_auto_worker_outlives_a_failed_sweep(
        self, tmp_path, monkeypatch, process_starts
    ):
        started = process_starts
        runner = self._runner(tmp_path, jobs=2, cluster="inproc")
        original = runner._record_success
        calls = []

        def record_success(*args, **kwargs):
            calls.append(1)
            if len(calls) == 10:
                raise RuntimeError("commit failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "_record_success", record_success)
        # Round 1 has 19 jobs, so the 10th commit leaves leases out on
        # both workers.
        cells = self._cells() + [
            _spec("cluster_sleep", sleep=0.01 * i, value=i)
            for i in range(1, 9)
        ]
        try:
            with pytest.raises(RuntimeError, match="commit failed"):
                runner.run_adaptive(cells, self.POLICY)
            assert started
            assert not any(proc.is_alive() for proc in started)
            assert _auto_worker_threads() == []
            # The next call starts fresh auto-workers and completes.
            rows = runner.run_adaptive(self._cells(), self.POLICY)
            assert not any(proc.is_alive() for proc in started)
            assert _auto_worker_threads() == []
        finally:
            runner.close()
        assert rows == self._serial(tmp_path)

    def test_each_cell_executes_exactly_once(self, tmp_path):
        counter = tmp_path / "c"
        specs = [
            _spec("cluster_mark", counter=str(counter), value=v)
            for v in range(8)
        ]
        runner = self._runner(tmp_path, jobs=3, cluster="inproc")
        try:
            rows = runner.run(specs)
        finally:
            runner.close()
        assert [r["value"] for r in rows] == [float(v) for v in range(8)]
        assert _executions(counter) == 8

    def test_remote_exception_becomes_error_result(self, tmp_path):
        pop_stats()
        runner = self._runner(tmp_path, jobs=2, cluster="inproc")
        try:
            rows = runner.run([
                _spec("chaos_raise_cluster", value=9),
                _spec("cluster_echo", value=1),
            ])
        finally:
            runner.close()
        assert is_error_result(rows[0])
        err = rows[0][ERROR_KEY]
        assert err["kind"] == "exception"
        assert err["type"] == "ValueError"
        assert rows[1] == {"value": 1.0}
        (stats,) = pop_stats()
        assert stats.failures == 1
        assert stats.retries == 0  # deterministic: not retried

    def test_timeout_enforced_through_isolate_workers(self, tmp_path):
        pop_stats()
        runner = self._runner(
            tmp_path, jobs=1, cluster="inproc", timeout=0.4, max_attempts=1
        )
        start = time.perf_counter()
        try:
            (row,) = runner.run([_spec("cluster_sleep", sleep=60.0)])
        finally:
            runner.close()
        assert time.perf_counter() - start < 30.0
        assert is_error_result(row)
        assert row[ERROR_KEY]["kind"] == "timeout"
        (stats,) = pop_stats()
        assert stats.timeouts >= 1
        assert stats.exhausted == 1

    def test_auto_worker_crash_retried_then_exhausted(self, tmp_path):
        pop_stats()
        runner = self._runner(
            tmp_path, jobs=1, cluster="inproc", max_attempts=2
        )
        try:
            (row,) = runner.run([_spec("cluster_crash")])
        finally:
            runner.close()
        assert is_error_result(row)
        err = row[ERROR_KEY]
        assert err["kind"] == "crash"
        assert err["attempts"] == 2
        assert "exit code 3" in err["message"]
        (stats,) = pop_stats()
        assert stats.retries == 1
        assert stats.exhausted == 1

    def test_exhausted_cells_counted_in_stats(self, tmp_path):
        pop_stats()
        runner = self._runner(
            tmp_path, jobs=1, cluster="inproc", timeout=0.3, max_attempts=2
        )
        try:
            (row,) = runner.run([_spec("cluster_sleep", sleep=60.0)])
        finally:
            runner.close()
        assert is_error_result(row)
        assert row[ERROR_KEY]["attempts"] == 2
        (stats,) = pop_stats()
        assert stats.exhausted == 1
        assert stats.retries >= 1

    def test_checkpoint_resume_across_cluster_sweeps(self, tmp_path):
        counter = tmp_path / "c"
        specs = [
            _spec("cluster_mark", counter=str(counter), value=v)
            for v in range(4)
        ]
        pop_stats()
        first = self._runner(
            tmp_path, jobs=2, cluster="inproc", resume=True, label="fig"
        )
        try:
            first.run(specs)
        finally:
            first.close()
        assert _executions(counter) == 4
        # The resumed sweep replays from the checkpoint — no cluster
        # re-execution of committed cells.
        second = self._runner(
            tmp_path, jobs=2, cluster="inproc", resume=True, label="fig"
        )
        try:
            rows = second.run(specs)
        finally:
            second.close()
        assert [r["value"] for r in rows] == [0.0, 1.0, 2.0, 3.0]
        assert _executions(counter) == 4
        stats = pop_stats()
        assert stats[-1].resumed == 4
        assert stats[-1].executed == 0


class TestChaosProof:
    def test_chaos_run_bit_identical_with_faults_observed(self):
        # Seeded kills/pauses/stalls against an inproc cluster: results
        # must match the local pool bit-for-bit, with at least one lease
        # expiry, one reclaim and one suppressed duplicate observed.
        counters = run_chaos_proof(seed=0, log=lambda *a, **k: None)
        assert counters["cluster_leases_expired_total"] >= 1
        assert counters["cluster_leases_reclaimed_total"] >= 1
        assert counters["cluster_reexec_suppressed_total"] >= 1
        assert counters["cluster_workers_lost_total"] >= 1


class TestTcpWorkerSubprocess:
    def test_two_worker_tcp_sweep_matches_local(self, tmp_path):
        specs = [
            RunSpec(
                kind="single",
                params={
                    "scheduler": sched,
                    "workload": {"name": "layered", "kind": "matmul",
                                 "total": 20, "layers": 5,
                                 "parallelism": 2},
                    "machine": "jetson_tx2",
                },
                seed=s,
                metrics=("makespan", "tasks_completed"),
            )
            for sched in ("rws", "dam-c")
            for s in (0, 1)
        ]
        local = SweepRunner(
            jobs=1, use_cache=False, progress=False,
            cache_dir=tmp_path / "cache",
        )
        want = local.run(specs)

        runner = SweepRunner(
            jobs=1, use_cache=False, progress=False,
            cache_dir=tmp_path / "cache", cluster="tcp://127.0.0.1:0",
            label="tcp-smoke",
        )
        coordinator = runner._ensure_coordinator()
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cluster.worker",
                    "--connect", coordinator.address,
                    "--name", f"tcp-{i}",
                    "--no-isolate",
                    "--reconnect-timeout", "20",
                ],
                env=env,
            )
            for i in range(2)
        ]
        try:
            # Both workers register before the sweep starts.  Otherwise
            # the four tiny cells can all finish before the second worker
            # connects; that worker then misses the shutdown and sits out
            # its reconnect budget.
            deadline = time.monotonic() + 30.0
            while len(coordinator._workers) < 2:
                exited = [p.returncode for p in workers if p.poll() is not None]
                if exited or time.monotonic() > deadline:
                    pytest.fail(
                        f"{len(coordinator._workers)} of 2 TCP workers "
                        f"registered within 30 s (exited: {exited})"
                    )
                coordinator._pump(time.monotonic())
                time.sleep(0.01)
            got = runner.run(specs)
        finally:
            runner.close()  # sends shutdown to both workers
            for proc in workers:
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10.0)
        assert got == want
        # An orderly shutdown, not a kill, on both workers.
        assert [p.returncode for p in workers] == [0, 0]


class TestWorkerEntryPoint:
    def test_module_run_emits_no_runpy_warning(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.cluster.worker", "--help",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestSettingsValidation:
    def test_cluster_address_validated(self):
        from repro.experiments.common import ExperimentSettings

        with pytest.raises(ConfigurationError):
            ExperimentSettings(cluster="bogus")
        ExperimentSettings(cluster="inproc")
        ExperimentSettings(cluster="tcp://127.0.0.1:7777")


@executor("chaos_raise_cluster")
def _raise_cluster(spec, _builder):
    raise ValueError(f"bad parameter {spec.params['value']}")
