"""Tests for the sweep engine's fault tolerance.

Chaos executors registered here are inherited by the auto-workers'
subprocesses (they fork), which lets these tests inject real worker
crashes (``os._exit``), hangs (``time.sleep``) and deterministic
exceptions, then assert the coordinator's retry/timeout/error-capture
and checkpoint/resume behavior from the outside.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments import runner as cli
from repro.experiments.common import ExperimentSettings
from repro.sweep import (
    ERROR_KEY,
    AdaptivePolicy,
    RunSpec,
    SweepRunner,
    is_error_result,
    pop_stats,
)
from repro.sweep.registry import executor


@executor("chaos_crash_once")
def _crash_once(spec, _builder):
    """Dies hard on the first attempt, succeeds on retry."""
    flag = spec.params["flag"]
    if not os.path.exists(flag):
        with open(flag, "w"):
            pass
        os._exit(1)
    return {"value": float(spec.params["value"])}


@executor("chaos_crash_always")
def _crash_always(spec, _builder):
    os._exit(1)


@executor("chaos_hang")
def _hang(spec, _builder):
    time.sleep(spec.params.get("sleep", 60.0))
    return {"value": 0.0}


@executor("chaos_raise")
def _raise(spec, _builder):
    raise ValueError(f"bad parameter {spec.params['value']}")


@executor("chaos_count")
def _count(spec, _builder):
    """Appends one line per execution — observable exactly-once evidence."""
    with open(spec.params["counter"], "a") as fh:
        fh.write("x\n")
    return {"value": float(spec.params["value"])}


def _executions(counter) -> int:
    try:
        with open(counter) as fh:
            return len(fh.readlines())
    except OSError:
        return 0


def _spec(kind, metrics=("value",), **params):
    return RunSpec(kind=kind, params=params, metrics=metrics)


def _runner(tmp_path, **kw):
    kw.setdefault("use_cache", False)
    kw.setdefault("progress", False)
    kw.setdefault("retry_backoff", 0.01)
    return SweepRunner(cache_dir=tmp_path / "cache", **kw)


class TestWorkerCrash:
    def test_crash_is_retried_and_succeeds(self, tmp_path):
        pop_stats()
        runner = _runner(tmp_path, jobs=2)
        specs = [
            _spec("chaos_crash_once", flag=str(tmp_path / "flag"), value=7),
            _spec("chaos_count", counter=str(tmp_path / "c"), value=1),
            _spec("chaos_count", counter=str(tmp_path / "c"), value=2),
        ]
        rows = runner.run(specs)
        assert rows[0] == {"value": 7.0}
        assert rows[1] == {"value": 1.0}
        assert rows[2] == {"value": 2.0}
        (stats,) = pop_stats()
        assert stats.retries == 1
        assert stats.failures == 0

    def test_crash_budget_exhaustion_becomes_error_result(self, tmp_path):
        pop_stats()
        runner = _runner(tmp_path, jobs=2, max_attempts=2)
        specs = [
            _spec("chaos_crash_always", value=0),
            _spec("chaos_count", counter=str(tmp_path / "c"), value=1),
        ]
        rows = runner.run(specs)
        assert is_error_result(rows[0])
        err = rows[0][ERROR_KEY]
        assert err["kind"] == "crash"
        assert err["attempts"] == 2
        assert "died" in err["message"]
        # The healthy spec in the same batch still completed.
        assert rows[1] == {"value": 1.0}
        (stats,) = pop_stats()
        assert stats.failures == 1
        assert stats.retries == 1  # one re-execution before giving up

    def test_error_results_are_not_cached(self, tmp_path):
        flag = tmp_path / "flag"
        runner = _runner(tmp_path, jobs=2, max_attempts=1, use_cache=True)
        specs = [
            _spec("chaos_crash_once", flag=str(flag), value=3),
            _spec("chaos_count", counter=str(tmp_path / "c"), value=1),
        ]
        rows = runner.run(specs)
        assert is_error_result(rows[0])  # max_attempts=1: no retry
        # A fresh sweep over the same specs re-executes the failed cell —
        # the flag file now exists, so this time it succeeds.
        rows = _runner(
            tmp_path, jobs=2, max_attempts=1, use_cache=True
        ).run(specs)
        assert rows[0] == {"value": 3.0}


class TestTimeout:
    def test_hung_run_is_killed_and_reported(self, tmp_path):
        pop_stats()
        runner = _runner(tmp_path, jobs=1, timeout=0.4, max_attempts=1)
        start = time.perf_counter()
        (row,) = runner.run([_spec("chaos_hang", sleep=60.0)])
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0  # killed, not slept out
        assert is_error_result(row)
        err = row[ERROR_KEY]
        assert err["kind"] == "timeout"
        assert "0.4" in err["message"]
        (stats,) = pop_stats()
        assert stats.timeouts == 1
        assert stats.failures == 1

    def test_timeout_forces_supervision_even_serially(self, tmp_path):
        # jobs=1 normally runs inline (same process); a timeout cannot be
        # enforced there, so the engine must route through a subprocess.
        runner = _runner(tmp_path, jobs=1, timeout=5.0)
        counter = tmp_path / "c"
        (row,) = runner.run(
            [_spec("chaos_count", counter=str(counter), value=4)]
        )
        assert row == {"value": 4.0}
        assert _executions(counter) == 1

    def test_fast_run_within_timeout_unaffected(self, tmp_path):
        pop_stats()
        runner = _runner(tmp_path, jobs=2, timeout=30.0)
        rows = runner.run([
            _spec("chaos_count", counter=str(tmp_path / "c"), value=v)
            for v in (1, 2, 3)
        ])
        assert [r["value"] for r in rows] == [1.0, 2.0, 3.0]
        (stats,) = pop_stats()
        assert stats.timeouts == 0 and stats.failures == 0


class TestStragglers:
    """Straggler detection vs the run timeout (see repro.telemetry).

    Heartbeats are diagnostic, never disciplinary: an alive-but-slow
    worker is flagged and reported but only the per-run wall-clock
    ``timeout`` ever kills a run, and heartbeats neither extend nor
    shorten that deadline.
    """

    def _telemetry(self, **kw):
        from repro.telemetry import Telemetry

        return Telemetry(label="chaos", enabled=True, **kw)

    def test_slow_run_is_flagged_but_never_killed(self, tmp_path):
        # timeout=2.5 puts the straggler yardstick at 1.25s; the run
        # sleeps past it but finishes well inside the timeout.
        pop_stats()
        tele = self._telemetry()
        runner = _runner(
            tmp_path, jobs=1, timeout=2.5, telemetry=tele
        )
        (row,) = runner.run([_spec("chaos_hang", sleep=1.6)])
        assert row == {"value": 0.0}  # completed, not killed
        (stats,) = pop_stats()
        assert stats.timeouts == 0 and stats.failures == 0
        assert tele.workers.stragglers_flagged >= 1
        snap = tele.registry.snapshot()
        assert snap["sweep_stragglers_total"]["value"] >= 1
        assert snap["sweep_heartbeats_total"]["value"] >= 1
        # The flag was reported on the progress stream, not acted on.
        kinds = [kind for _, kind, _ in tele.progress_emitter.tail(50)]
        assert "straggler" in kinds

    def test_heartbeats_never_extend_the_deadline(self, tmp_path):
        # A hung run keeps heartbeating — proof of life must not win a
        # reprieve from the wall-clock timeout.
        pop_stats()
        tele = self._telemetry(heartbeat_interval=0.05)
        runner = _runner(
            tmp_path, jobs=1, timeout=0.5, max_attempts=1, telemetry=tele
        )
        start = time.perf_counter()
        (row,) = runner.run([_spec("chaos_hang", sleep=60.0)])
        assert time.perf_counter() - start < 10.0
        assert is_error_result(row)
        assert row[ERROR_KEY]["kind"] == "timeout"
        (stats,) = pop_stats()
        assert stats.timeouts == 1
        snap = tele.registry.snapshot()
        assert snap["sweep_heartbeats_total"]["value"] >= 1

    def test_silent_worker_is_not_killed_early(self, tmp_path):
        # No heartbeat ever arrives (interval far beyond the run) — a
        # GIL-bound worker looks exactly like this.  Stale heartbeat age
        # must not shorten the deadline either: the run completes.
        pop_stats()
        tele = self._telemetry(heartbeat_interval=30.0)
        runner = _runner(
            tmp_path, jobs=1, timeout=10.0, telemetry=tele
        )
        (row,) = runner.run([_spec("chaos_hang", sleep=0.8)])
        assert row == {"value": 0.0}
        (stats,) = pop_stats()
        assert stats.timeouts == 0 and stats.failures == 0
        snap = tele.registry.snapshot()
        assert snap["sweep_heartbeats_total"]["value"] == 0

    # -- the same contract for remote (cluster) workers -----------------

    def test_cluster_slow_run_is_flagged_but_never_killed(self, tmp_path):
        # The lease yardstick (lease_timeout/2 = 1.25s) flags the 1.6s
        # run as a straggler, but only lease expiry (2.5s) ever reclaims
        # — the flagged run completes untouched.
        pop_stats()
        tele = self._telemetry()
        runner = _runner(
            tmp_path, jobs=1, cluster="inproc", lease_timeout=2.5,
            telemetry=tele,
        )
        try:
            (row,) = runner.run([_spec("chaos_hang", sleep=1.6)])
        finally:
            runner.close()
        assert row == {"value": 0.0}  # completed, not killed
        (stats,) = pop_stats()
        assert stats.timeouts == 0 and stats.failures == 0
        snap = tele.registry.snapshot()
        assert snap["cluster_stragglers_total"]["value"] >= 1
        assert snap["cluster_leases_expired_total"]["value"] == 0
        assert snap["cluster_leases_reclaimed_total"]["value"] == 0

    def test_cluster_heartbeating_slow_worker_is_not_lost(self):
        # A run three times the liveness budget, but heartbeats keep
        # flowing: proof of life must keep the worker registered —
        # silence, not slowness, is the only death sentence.
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.cluster.worker import start_worker_thread
        from repro.telemetry import Telemetry

        tele = Telemetry(enabled=True)
        coord = ClusterCoordinator(
            "tcp://127.0.0.1:0", telemetry=tele,
            liveness_timeout=0.4, retry_backoff=0.05,
        )
        worker = start_worker_thread(
            coord.address, name="slowpoke", heartbeat_interval=0.1
        )
        spec = _spec("chaos_hang", sleep=1.2)
        try:
            report = coord.execute([(spec.key(), spec, 1)])
        finally:
            coord.close()
            worker.stop()
        (outcome,) = report.outcomes.values()
        assert outcome.status == "ok"
        assert outcome.payload == {"value": 0.0}
        snap = tele.registry.snapshot()
        assert snap["cluster_workers_lost_total"]["value"] == 0
        assert snap["cluster_heartbeats_total"]["value"] >= 3

    def test_cluster_silent_worker_is_reclaimed_exactly_once(self, tmp_path):
        # The mirror image: a paused main loop stops the heartbeats, so
        # the worker is lost after the liveness budget, its leases are
        # reclaimed, and a healthy worker finishes the sweep — with
        # every cell still committed exactly once.
        from repro.cluster.chaos import ChaosEvent, WorkerChaos
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.cluster.worker import start_worker_thread
        from repro.telemetry import Telemetry

        tele = Telemetry(enabled=True)
        coord = ClusterCoordinator(
            "tcp://127.0.0.1:0", telemetry=tele,
            liveness_timeout=0.4, retry_backoff=0.05, max_attempts=3,
        )
        specs = [
            _spec("chaos_count", counter=str(tmp_path / f"c{v}"), value=v)
            for v in range(4)
        ]
        silent = start_worker_thread(
            coord.address, name="silent", heartbeat_interval=0.1,
            chaos=WorkerChaos(events=[
                ChaosEvent(kind="pause", after_results=0, duration=1.0)
            ]),
        )
        healthy = start_worker_thread(
            coord.address, name="healthy", heartbeat_interval=0.1
        )
        try:
            report = coord.execute([(s.key(), s, 1) for s in specs])
        finally:
            coord.close()
            silent.stop()
            healthy.stop()
        assert all(o.status == "ok" for o in report.outcomes.values())
        assert len(report.outcomes) == 4
        snap = tele.registry.snapshot()
        assert snap["cluster_workers_lost_total"]["value"] >= 1


class TestDeterministicExceptions:
    def test_exception_captured_inline(self, tmp_path):
        pop_stats()
        runner = _runner(tmp_path, jobs=1)
        rows = runner.run([
            _spec("chaos_raise", value=9),
            _spec("chaos_count", counter=str(tmp_path / "c"), value=1),
        ])
        assert is_error_result(rows[0])
        err = rows[0][ERROR_KEY]
        assert err["kind"] == "exception"
        assert err["type"] == "ValueError"
        assert "bad parameter 9" in err["message"]
        assert rows[1] == {"value": 1.0}
        (stats,) = pop_stats()
        assert stats.failures == 1
        assert stats.retries == 0  # deterministic: retrying is pointless

    def test_exception_captured_in_pool(self, tmp_path):
        runner = _runner(tmp_path, jobs=2)
        rows = runner.run([
            _spec("chaos_raise", value=5),
            _spec("chaos_count", counter=str(tmp_path / "c"), value=1),
        ])
        assert is_error_result(rows[0])
        assert rows[0][ERROR_KEY]["type"] == "ValueError"
        assert rows[1] == {"value": 1.0}

    def test_exception_not_written_to_cache(self, tmp_path):
        counter = tmp_path / "c"
        specs = [_spec("chaos_raise", value=1),
                 _spec("chaos_count", counter=str(counter), value=2)]
        for _ in range(2):
            rows = _runner(tmp_path, jobs=1, use_cache=True).run(specs)
            assert is_error_result(rows[0])
        # The good spec was cached after sweep 1; the bad one re-raised
        # (i.e. re-executed) rather than serving a cached error.
        assert _executions(counter) == 1


class TestCheckpointResume:
    def _specs(self, counter, n=3):
        return [
            _spec("chaos_count", counter=str(counter), value=v)
            for v in range(n)
        ]

    def test_resume_replays_without_recompute(self, tmp_path):
        counter = tmp_path / "c"
        pop_stats()
        first = _runner(tmp_path, jobs=1, resume=True, label="fig")
        assert first.run(self._specs(counter)) == [
            {"value": 0.0}, {"value": 1.0}, {"value": 2.0},
        ]
        assert _executions(counter) == 3
        second = _runner(tmp_path, jobs=1, resume=True, label="fig")
        assert second.run(self._specs(counter)) == [
            {"value": 0.0}, {"value": 1.0}, {"value": 2.0},
        ]
        assert _executions(counter) == 3  # nothing recomputed
        stats = pop_stats()
        assert stats[-1].resumed == 3
        assert stats[-1].executed == 0

    def test_partial_checkpoint_resumes_the_remainder(self, tmp_path):
        counter = tmp_path / "c"
        first = _runner(tmp_path, jobs=1, resume=True, label="fig")
        first.run(self._specs(counter, n=2))
        second = _runner(tmp_path, jobs=1, resume=True, label="fig")
        second.run(self._specs(counter, n=4))
        # 2 executed by the first sweep + only the 2 new ones after.
        assert _executions(counter) == 4

    def test_torn_checkpoint_line_is_tolerated(self, tmp_path):
        counter = tmp_path / "c"
        first = _runner(tmp_path, jobs=1, resume=True, label="fig")
        first.run(self._specs(counter))
        path = tmp_path / "cache" / "checkpoints" / "fig.jsonl"
        with open(path, "a") as fh:
            fh.write('{"key": "abc", "metr')  # killed mid-write
        second = _runner(tmp_path, jobs=1, resume=True, label="fig")
        second.run(self._specs(counter))
        assert _executions(counter) == 3

    def test_non_resume_sweep_truncates_checkpoint(self, tmp_path):
        counter = tmp_path / "c"
        first = _runner(tmp_path, jobs=1, resume=True, label="fig")
        first.run(self._specs(counter, n=3))
        fresh = _runner(tmp_path, jobs=1, use_cache=True, label="fig")
        fresh.run([_spec("chaos_count", counter=str(counter), value=99)])
        path = tmp_path / "cache" / "checkpoints" / "fig.jsonl"
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == 1  # the old 3 entries are gone

    def test_stale_checkpoint_lines_are_skipped_and_counted(self, tmp_path):
        # A line whose recorded identity no longer hashes back to its
        # key (here: a tampered version, as after an engine upgrade) is
        # skipped with a log, counted in ``resumed_stale``, and its cell
        # recomputed; fresh lines still replay.
        counter = tmp_path / "c"
        first = _runner(tmp_path, jobs=1, resume=True, label="fig")
        first.run(self._specs(counter))
        assert _executions(counter) == 3
        path = tmp_path / "cache" / "checkpoints" / "fig.jsonl"
        entries = [
            json.loads(line) for line in path.read_text().splitlines()
            if line.strip()
        ]
        entries[1]["identity"]["version"] = "0.0.0-stale"
        with open(path, "w") as fh:
            for entry in entries:
                fh.write(json.dumps(entry) + "\n")
        pop_stats()
        second = _runner(tmp_path, jobs=1, resume=True, label="fig")
        rows = second.run(self._specs(counter))
        assert rows == [{"value": 0.0}, {"value": 1.0}, {"value": 2.0}]
        assert _executions(counter) == 4  # exactly the stale cell re-ran
        (stats,) = pop_stats()
        assert stats.resumed_stale == 1
        assert stats.resumed == 2
        assert stats.executed == 1

    def test_errors_never_enter_the_checkpoint(self, tmp_path):
        first = _runner(tmp_path, jobs=1, resume=True, label="fig")
        (row,) = first.run([_spec("chaos_raise", value=1)])
        assert is_error_result(row)
        path = tmp_path / "cache" / "checkpoints" / "fig.jsonl"
        assert not path.exists() or not path.read_text().strip()


class TestManifest:
    def test_manifest_records_attempts_and_errors(self, tmp_path):
        runner = _runner(
            tmp_path, jobs=2, max_attempts=2,
            manifest_dir=tmp_path / "out",
        )
        specs = [
            _spec("chaos_crash_always", value=0),
            _spec("chaos_count", counter=str(tmp_path / "c"), value=1),
        ]
        runner.run(specs)
        with open(tmp_path / "out" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["stats"]["failures"] == 1
        assert manifest["stats"]["retries"] == 1
        by_kind = {e["kind"]: e for e in manifest["runs"]}
        bad = by_kind["chaos_crash_always"]
        assert bad["attempts"] == 2
        assert bad["error"]["kind"] == "crash"
        good = by_kind["chaos_count"]
        assert "error" not in good
        assert good["attempts"] == 1


class TestAdaptiveWithFailures:
    def test_broken_cell_aggregates_to_its_error(self, tmp_path):
        from repro.sweep import AdaptivePolicy

        runner = _runner(tmp_path, jobs=1)
        policy = AdaptivePolicy(ci=0.1, min_seeds=2, max_seeds=4)
        rows = runner.run_adaptive(
            [_spec("chaos_raise", value=1),
             _spec("chaos_count", counter=str(tmp_path / "c"), value=2)],
            policy,
        )
        assert is_error_result(rows[0])
        assert rows[1]["value"] == 2.0


class TestPoolLifecycle:
    """One set of auto-workers per run()/run_adaptive() call.

    The first coordinated round starts the workers, later rounds reuse
    them, and the call stops them on its way out — also when it raises.
    """

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
                    "workload": {
                        "name": "layered",
                        "kernel": "copy",
                        "parallelism": 2,
                        "total": 16,
                    },
                    "machine": "jetson_tx2",
                    "scheduler": scheduler,
                },
                seed=3,
                metrics=("throughput", "tasks_completed"),
            )
            for scheduler in ("rws", "dam-c", "fam-c")
        ]

    def _serial(self, tmp_path):
        return _runner(tmp_path, jobs=1).run_adaptive(
            self._cells(), self.POLICY
        )

    def test_adaptive_sweep_starts_one_pool(self, tmp_path, process_starts):
        serial = self._serial(tmp_path)
        started = process_starts
        pop_stats()
        rows = _runner(tmp_path, jobs=2).run_adaptive(
            self._cells(), self.POLICY
        )
        (stats,) = pop_stats()
        assert rows == serial
        assert stats.executed == 3 * self.POLICY.max_seeds
        assert len(started) == 2
        assert not any(proc.is_alive() for proc in started)

    def test_no_worker_outlives_a_failed_sweep(
        self, tmp_path, monkeypatch, process_starts
    ):
        started = process_starts
        runner = _runner(tmp_path, jobs=2)
        original = runner._record_success
        calls = []

        def record_success(*args, **kwargs):
            calls.append(1)
            if len(calls) == 10:
                raise RuntimeError("commit failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(runner, "_record_success", record_success)
        # Round 1 has 19 jobs, so the 10th commit leaves work queued and
        # the worker that sent that result is already busy again.
        cells = self._cells() + [
            _spec("chaos_hang", sleep=0.01 * i) for i in range(1, 9)
        ]
        with pytest.raises(RuntimeError, match="commit failed"):
            runner.run_adaptive(cells, self.POLICY)
        assert len(started) == 2
        assert not any(proc.is_alive() for proc in started)
        assert -signal.SIGTERM in [proc.exitcode for proc in started]
        # The next call starts a fresh pool and completes.
        assert runner.run_adaptive(self._cells(), self.POLICY) == (
            self._serial(tmp_path)
        )
        assert not any(proc.is_alive() for proc in started)

    def test_worker_killed_while_idle_is_replaced(
        self, tmp_path, monkeypatch, process_starts
    ):
        serial = self._serial(tmp_path)
        started = process_starts
        runner = _runner(tmp_path, jobs=2, max_attempts=1)
        original = runner._execute_unique
        victims = []

        def execute_unique(unique, allow_batching=False):
            if started and not victims:
                # Between rounds 1 and 2: both workers sit idle.
                victim = started[0]
                assert victim.is_alive()
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5.0)
                victims.append(victim)
            return original(unique, allow_batching)

        monkeypatch.setattr(runner, "_execute_unique", execute_unique)
        pop_stats()
        rows = runner.run_adaptive(self._cells(), self.POLICY)
        (stats,) = pop_stats()
        assert victims and victims[0].exitcode == -signal.SIGKILL
        assert rows == serial
        assert stats.exhausted == 0 and stats.failures == 0
        assert stats.retries == 0
        assert len(started) == 3  # the two workers, then one replacement
        assert not any(proc.is_alive() for proc in started)

    @pytest.mark.parametrize("cluster", [None, "inproc"])
    def test_warm_cache_call_starts_nothing(
        self, tmp_path, monkeypatch, process_starts, cluster
    ):
        # Every replicate of the second call is a cache hit, so it has
        # nothing to dispatch: no coordinator, worker thread or process.
        cold = _runner(tmp_path, jobs=2, use_cache=True, cluster=cluster)
        try:
            first = cold.run_adaptive(self._cells(), self.POLICY)
        finally:
            cold.close()
        threads = []
        start = threading.Thread.start

        def record_start(thread):
            threads.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        del process_starts[:]
        pop_stats()
        warm = _runner(tmp_path, jobs=2, use_cache=True, cluster=cluster)
        try:
            rows = warm.run_adaptive(self._cells(), self.POLICY)
        finally:
            warm.close()
        (stats,) = pop_stats()
        assert rows == first
        assert stats.executed == 0
        assert process_starts == []
        assert threads == []

    def test_progress_line_logged_once_per_multiple(
        self, tmp_path, capsys
    ):
        # A slow run keeps the pool busy after 25 of 26 runs resolved,
        # and its heartbeats wake the supervisor loop many times.
        from repro.telemetry import Telemetry

        tele = Telemetry(label="progress", enabled=True,
                         heartbeat_interval=0.01)
        runner = _runner(tmp_path, jobs=2, progress=True, telemetry=tele)
        specs = [_spec("chaos_hang", sleep=0.6)] + [
            _spec("chaos_count", counter=str(tmp_path / "c"), value=v)
            for v in range(25)
        ]
        runner.run(specs)
        snap = tele.registry.snapshot()
        assert snap["sweep_heartbeats_total"]["value"] >= 5
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.endswith("/26 resolved")
        ]
        # One multiple of 25 was crossed, so exactly one line.
        assert len(lines) == 1, lines


class TestValidation:
    def test_runner_rejects_bad_knobs(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=1, timeout=0.0, cache_dir=tmp_path)
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=1, max_attempts=0, cache_dir=tmp_path)
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=1, retry_backoff=-1.0, cache_dir=tmp_path)

    def test_settings_reject_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(run_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentSettings(max_attempts=0)


class TestCliExitCodes:
    def test_user_error_exits_2(self, capsys):
        assert cli.main(["fig4", "--scale", "5"]) == cli.EXIT_USER_ERROR
        assert "error:" in capsys.readouterr().err

    def test_bad_timeout_exits_2(self, capsys):
        assert (
            cli.main(["fig4", "--run-timeout", "-1"]) == cli.EXIT_USER_ERROR
        )
        assert "run_timeout" in capsys.readouterr().err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def boom(settings):
            raise RuntimeError("synthetic harness bug")

        monkeypatch.setitem(cli._HARNESSES, "fig4", boom)
        assert cli.main(["fig4", "--no-cache"]) == cli.EXIT_INTERNAL_ERROR
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "synthetic harness bug" in err

    def test_harness_config_error_exits_2(self, capsys, monkeypatch):
        def reject(settings):
            raise ConfigurationError("flag combination unsupported")

        monkeypatch.setitem(cli._HARNESSES, "fig4", reject)
        assert cli.main(["fig4", "--no-cache"]) == cli.EXIT_USER_ERROR
        assert "flag combination unsupported" in capsys.readouterr().err

    def test_bad_cluster_address_exits_2(self, capsys):
        assert (
            cli.main(["fig4", "--cluster", "bogus"]) == cli.EXIT_USER_ERROR
        )
        assert "cluster" in capsys.readouterr().err

    @pytest.mark.parametrize("address", [
        "udp://127.0.0.1:1", "tcp://127.0.0.1:notaport", "inproc://mine",
    ])
    def test_malformed_cluster_address_exits_2(self, capsys, address):
        assert (
            cli.main(["fig4", "--no-cache", "--cluster", address])
            == cli.EXIT_USER_ERROR
        )
        err = capsys.readouterr().err
        assert "tcp://host:port" in err
        assert "internal error" not in err

    def test_exhausted_retry_budget_exits_4(self, capsys, monkeypatch,
                                            tmp_path):
        class _Result:
            def report(self):
                return "[fake harness]"

        def harness(settings):
            runner = SweepRunner(
                jobs=2, use_cache=False, progress=False,
                max_attempts=1, retry_backoff=0.01,
                cache_dir=tmp_path / "cache",
            )
            # Two specs so the supervised pool engages (a lone spec runs
            # inline, where a crash executor would take the tests down).
            runner.run([
                _spec("chaos_crash_always", value=0),
                _spec("chaos_count", counter=str(tmp_path / "c"), value=1),
            ])
            return _Result()

        monkeypatch.setitem(cli._HARNESSES, "fig4", harness)
        assert cli.main(["fig4", "--no-cache"]) == cli.EXIT_EXHAUSTED == 4
        captured = capsys.readouterr()
        assert "exhausted their retry budget" in captured.err
        assert "results are incomplete" in captured.err
        # The per-harness summary line names the count too.
        assert "1 exhausted their retry budget" in captured.out
