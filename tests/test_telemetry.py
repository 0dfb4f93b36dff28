"""Tests for the live sweep telemetry layer (repro.telemetry).

Covers metered sweeps bit-identical to unmetered ones (the same
contract the tracer honors), histogram bucket edge semantics, the
Prometheus text exposition (pinned by a golden file and its own
validator), the worker heartbeat table's diagnostic-only straggler
detection, the structured progress emitter, both front-ends (dashboard
and HTML report), and the artifact files written next to each sweep
manifest.
"""

from __future__ import annotations

import io
import json
import math
import os

import pytest

from repro.errors import ConfigurationError
from repro.session import quick_run
from repro.sweep import AdaptivePolicy, RunSpec, SweepRunner, pop_stats
from repro.sweep.registry import executor
from repro.telemetry import (
    METRICS_JSONL,
    METRICS_PROM,
    NULL_REGISTRY,
    NULL_TELEMETRY,
    MetricsRegistry,
    ProgressEmitter,
    Telemetry,
    WorkerTable,
    straggler_after,
)
from repro.telemetry.dashboard import Dashboard
from repro.telemetry.heartbeat import (
    DEFAULT_INTERVAL,
    STRAGGLER_FACTOR,
    STRAGGLER_FLOOR,
    STRAGGLER_TIMEOUT_FRACTION,
)
from repro.telemetry.prom import (
    main as prom_main,
    render_prometheus,
    validate_exposition,
    write_prometheus,
)
from repro.telemetry.registry import Histogram, _NULL_METRIC
from repro.telemetry.report import REPORT_HTML, write_report
from repro.telemetry.report import main as report_main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "metrics.prom")


@executor("telem_sim")
def _telem_sim(spec, _builder):
    """A tiny real simulation run — deterministic for a given spec."""
    result = quick_run(
        scheduler=spec.params["scheduler"],
        parallelism=2,
        total_tasks=40,
        seed=spec.params["seed"],
    )
    return {
        "makespan": result.makespan,
        "tasks": float(result.tasks_completed),
    }


def _sim_specs(seeds=(0, 1), schedulers=("rws", "dam-c")):
    return [
        RunSpec(
            kind="telem_sim",
            params={"scheduler": sched, "seed": seed},
            metrics=("makespan", "tasks"),
            tags={"scheduler": sched, "seed": seed},
        )
        for sched in schedulers
        for seed in seeds
    ]


class TestBitIdentity:
    def test_sweep_results_identical_with_telemetry_on(self, tmp_path):
        """End to end through the worker pool: the same spec list yields
        byte-identical metric rows with telemetry on and off."""
        specs = _sim_specs()
        plain = SweepRunner(
            jobs=2, use_cache=False, progress=False,
            cache_dir=tmp_path / "c1",
        ).run(specs)
        tele = Telemetry(
            label="bitident", enabled=True, out_dir=tmp_path / "out"
        )
        metered = SweepRunner(
            jobs=2, use_cache=False, progress=False,
            cache_dir=tmp_path / "c2", telemetry=tele,
        ).run(specs)
        pop_stats()
        assert plain == metered
        # ...and the metered sweep actually recorded something.
        snap = tele.registry.snapshot()
        assert snap["sweep_runs_finished_total"]["value"] == len(specs)
        assert snap["sweep_run_seconds"]["count"] == len(specs)

    def test_metered_adaptive_sweep_through_coordinator(self, tmp_path):
        """Batched replicates leased to two worker processes: the rows
        equal an unmetered sweep's, and the sweep process alone records
        every replicate and every batch its workers ran."""
        cells = [
            RunSpec(
                kind="single",
                params={
                    "workload": {"name": "layered", "kernel": "matmul",
                                 "parallelism": 2, "total": 40},
                    "machine": "jetson_tx2",
                    "scheduler": sched,
                    "scenario": None,
                },
                metrics=("throughput", "makespan"),
            )
            for sched in ("rws", "dam-c")
        ]
        policy = AdaptivePolicy(ci=0.02, min_seeds=3, max_seeds=3)

        def sweep(name, telemetry=None):
            runner = SweepRunner(
                jobs=2, use_cache=False, progress=False, batch_runs="auto",
                cache_dir=tmp_path / name, telemetry=telemetry,
            )
            return runner.run_adaptive(cells, policy), runner.last_stats

        plain, _ = sweep("c1")
        tele = Telemetry(
            label="adaptive", enabled=True, out_dir=tmp_path / "out"
        )
        metered, stats = sweep("c2", tele)
        pop_stats()
        assert plain == metered
        snap = tele.registry.snapshot()
        assert stats.executed == 6  # 3 replicates of each cell
        assert snap["sweep_runs_finished_total"]["value"] == stats.executed
        assert stats.batches >= 1
        assert snap["sweep_batch_width"]["count"] == stats.batches
        # Each batch came back from a worker as one lease result.
        assert snap["cluster_results_total"]["value"] == stats.batches


class TestRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0

    def test_get_or_create_is_idempotent_and_type_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")
        assert reg.names() == ["x"]
        assert "x" in reg and len(reg) == 1

    def test_histogram_bucket_edges(self):
        """Prometheus ``le`` semantics: a value equal to a bound lands in
        that bound's bucket; anything above the last bound overflows."""
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0):   # both <= 1.0
            h.observe(v)
        h.observe(1.5)          # (1, 2]
        h.observe(2.0)          # == bound -> le="2"
        h.observe(4.0001)       # just past the last bound -> +Inf
        assert h.counts == [2, 2, 0, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 4.0001)

    def test_histogram_series_ring_buffer(self):
        h = Histogram("h", buckets=(1.0,), capacity=3)
        for v in range(5):
            h.observe(float(v))
        assert [v for _, v in h.series] == [2.0, 3.0, 4.0]

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_null_registry_records_nothing(self):
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.counter("x") is _NULL_METRIC
        assert NULL_REGISTRY.gauge("x") is _NULL_METRIC
        assert NULL_REGISTRY.histogram("x") is _NULL_METRIC
        _NULL_METRIC.inc()
        _NULL_METRIC.set(5)
        _NULL_METRIC.observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}


def _golden_snapshot():
    reg = MetricsRegistry()
    reg.counter("sweep_runs_finished", "Runs finished.").inc(3)
    reg.counter("sweep_retries_total").inc(1)
    reg.gauge("sweep_queue_depth", "Pending runs.").set(4.5)
    h = reg.histogram(
        "sweep_run_seconds", "Run wall seconds.", buckets=(0.1, 1.0, 10.0)
    )
    for v in (0.05, 0.1, 0.5, 2.0, 20.0):
        h.observe(v)
    return reg.snapshot()


class TestPrometheus:
    def test_golden_file(self):
        """The exposition format is pinned byte for byte."""
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            expected = fh.read()
        assert render_prometheus(_golden_snapshot()) == expected

    def test_rendered_output_validates(self):
        assert validate_exposition(render_prometheus(_golden_snapshot())) == []

    def test_validator_rejects_malformed_expositions(self):
        assert any(
            "no TYPE" in p for p in validate_exposition("repro_x 1\n")
        )
        bad_buckets = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 3\n'
            "repro_h_sum 1\n"
            "repro_h_count 3\n"
        )
        assert any(
            "not cumulative" in p for p in validate_exposition(bad_buckets)
        )
        missing_inf = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 1\n'
            "repro_h_sum 1\nrepro_h_count 2\n"
        )
        assert any(
            "+Inf" in p for p in validate_exposition(missing_inf)
        )
        negative = "# TYPE repro_c counter\nrepro_c_total -1\n"
        assert any("negative" in p for p in validate_exposition(negative))
        assert any(
            "malformed sample" in p
            for p in validate_exposition("this is not prometheus\n")
        )

    def test_infinity_and_integers_format(self):
        snap = {"g": {"type": "gauge", "value": math.inf}}
        assert "repro_g +Inf" in render_prometheus(snap)
        snap = {"c": {"type": "counter", "value": 7.0}}
        assert "repro_c_total 7\n" in render_prometheus(snap)

    def test_cli_validator(self, tmp_path, capsys):
        good = tmp_path / "good.prom"
        write_prometheus(good, _golden_snapshot())
        assert prom_main([str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.prom"
        bad.write_text("repro_x 1\n")
        assert prom_main([str(bad)]) == 1
        assert prom_main([str(tmp_path / "missing.prom")]) == 1


class TestWorkerTable:
    def test_straggler_after_bounds(self):
        assert straggler_after(None, None) is None
        assert straggler_after(2.0, None) == STRAGGLER_FACTOR * 2.0
        assert straggler_after(None, 10.0) == STRAGGLER_TIMEOUT_FRACTION * 10.0
        # Both yardsticks known: the tighter one wins.
        assert straggler_after(1.0, 4.0) == min(3.0, 2.0)

    def test_straggler_limit_never_falls_below_the_floor(self):
        # A run predicted at a few milliseconds is not a straggler at 3x
        # that: the limit is held at the heartbeat-granularity floor.
        assert STRAGGLER_FLOOR >= DEFAULT_INTERVAL
        assert straggler_after(0.002, None) == STRAGGLER_FLOOR
        assert straggler_after(0.002, 600.0) == STRAGGLER_FLOOR
        assert straggler_after(None, 0.1) == STRAGGLER_FLOOR
        # Above the floor the yardsticks apply unchanged.
        assert straggler_after(1.0, None) == STRAGGLER_FACTOR * 1.0

    def test_millisecond_runs_are_not_flagged_within_the_floor(self):
        table = WorkerTable()
        ident = table.spawn(pid=1)
        table.assign(ident, "k", "fig4", attempt=1, width=1, now=0.0,
                     expected=0.004)
        # 3x the prediction has long passed, the floor has not.
        assert table.check_stragglers(now=0.05, timeout=600.0) == []
        assert table.check_stragglers(now=STRAGGLER_FLOOR * 0.99) == []
        assert table.stragglers_flagged == 0
        # A run that really does hang past the floor is still flagged.
        assert len(table.check_stragglers(now=STRAGGLER_FLOOR * 1.01)) == 1
        assert table.stragglers_flagged == 1

    def test_lifecycle_and_straggler_detection(self):
        table = WorkerTable()
        ident = table.spawn(pid=1234)
        table.assign(ident, "abc", "fig4", attempt=1, width=1, now=0.0,
                     expected=1.0)
        assert table.busy() == 1 and table.live() == 1
        # Within the 3x-expected envelope: nothing flagged.
        assert table.check_stragglers(now=2.9) == []
        # Past it: flagged exactly once, and never again for this run.
        fresh = table.check_stragglers(now=3.1)
        assert [v.ident for v in fresh] == [ident]
        assert table.view(ident).straggler is True
        assert table.check_stragglers(now=100.0) == []
        assert table.stragglers_flagged == 1
        # Finishing clears the flag and counts the run.
        table.finish(ident)
        view = table.view(ident)
        assert view.state == "idle" and not view.straggler
        assert view.runs_done == 1
        table.retire(ident)
        assert table.live() == 0
        assert table.snapshot(now=0.0) == []  # retired rows excluded

    def test_straggler_envelope_scales_with_batch_width(self):
        table = WorkerTable()
        ident = table.spawn(pid=1)
        table.assign(ident, "k", "fig4", attempt=1, width=4, now=0.0,
                     expected=1.0)
        assert table.check_stragglers(now=11.0) == []   # 4 * 3s envelope
        assert len(table.check_stragglers(now=12.1)) == 1

    def test_no_yardstick_means_no_flag(self):
        table = WorkerTable()
        ident = table.spawn(pid=1)
        table.assign(ident, "k", "fig4", attempt=1, width=1, now=0.0)
        assert table.check_stragglers(now=1e6) == []

    def test_heartbeats_update_age(self):
        table = WorkerTable()
        ident = table.spawn(pid=1)
        table.assign(ident, "k", "fig4", attempt=1, width=1, now=10.0)
        view = table.view(ident)
        assert view.heartbeat_age(now=11.0) is None  # none received yet
        table.heartbeat(ident, now=11.0)
        assert view.heartbeats == 1
        assert view.heartbeat_age(now=11.5) == pytest.approx(0.5)
        table.heartbeat(999, now=11.0)  # unknown ident: ignored
        table.finish(ident)
        table.heartbeat(ident, now=12.0)  # idle: ignored
        assert view.heartbeats == 1

    def test_inline_pseudo_worker_is_stable(self):
        table = WorkerTable()
        assert table.inline() == 0
        assert table.inline() == 0
        assert table.spawn(pid=1) == 1


class TestProgressEmitter:
    def test_line_format_matches_legacy_prints(self):
        stream = io.StringIO()
        emitter = ProgressEmitter("fig4", enabled=True, stream=stream)
        emitter.emit("3/10 done")
        assert stream.getvalue() == "[sweep:fig4] 3/10 done\n"

    def test_disabled_records_but_does_not_print(self):
        stream = io.StringIO()
        emitter = ProgressEmitter("fig4", enabled=False, stream=stream)
        emitter.emit("quiet")
        assert stream.getvalue() == ""
        assert [line for _, _, line in emitter.tail()] == [
            "[sweep:fig4] quiet"
        ]

    def test_sink_intercepts_lines(self):
        stream = io.StringIO()
        emitter = ProgressEmitter("fig4", enabled=True, stream=stream)
        seen = []
        emitter.sink = lambda line, kind: seen.append((line, kind))
        emitter.emit("slow run", kind="straggler")
        assert stream.getvalue() == ""
        assert seen == [("[sweep:fig4] slow run", "straggler")]

    def test_tail_is_bounded_and_ordered(self):
        emitter = ProgressEmitter("x", enabled=False, keep=3)
        for i in range(5):
            emitter.emit(str(i))
        assert [line for _, _, line in emitter.tail(2)] == [
            "[sweep:x] 3", "[sweep:x] 4"
        ]


class TestTelemetryHub:
    def test_snapshot_shape(self):
        tele = Telemetry(label="fig4", enabled=True)
        tele.progress_emitter = ProgressEmitter("fig4", enabled=False)
        tele.progress_emitter.emit("hello")
        tele.set_progress(total=10, done=4, eta=2.5)
        ident = tele.workers.spawn(pid=1)
        tele.workers.assign(ident, "k", "fig4", attempt=1, width=1,
                            now=tele.now())
        tele.registry.counter("sweep_runs_finished").inc(4)
        snap = tele.snapshot()
        assert snap["label"] == "fig4"
        assert snap["progress"] == {
            "total": 10, "done": 4, "eta": 2.5,
            "elapsed": snap["progress"]["elapsed"],
        }
        assert snap["workers"][0]["state"] == "busy"
        assert snap["stragglers"] == 0
        assert snap["log"][-1]["line"] == "[sweep:fig4] hello"
        assert snap["metrics"]["sweep_runs_finished"]["value"] == 4.0

    def test_disabled_hub_is_inert(self, tmp_path):
        tele = Telemetry(enabled=False, out_dir=tmp_path)
        assert tele.registry is NULL_REGISTRY
        tele.begin()
        assert tele.flush(force=True) is False
        tele.finalize()
        assert list(tmp_path.iterdir()) == []
        assert NULL_TELEMETRY.enabled is False

    def test_artifact_files(self, tmp_path):
        tele = Telemetry(label="t", enabled=True, out_dir=tmp_path,
                         flush_interval=0.0)
        tele.begin()
        tele.registry.counter("sweep_runs_finished").inc()
        tele.registry.histogram("sweep_run_seconds").observe(0.2)
        assert tele.flush() is True
        tele.finalize()
        lines = (tmp_path / METRICS_JSONL).read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            snap = json.loads(line)
            assert snap["metrics"]["sweep_runs_finished"]["value"] == 1.0
        # Periodic lines drop histogram series; the final one keeps them.
        assert "series" not in json.loads(lines[0])["metrics"][
            "sweep_run_seconds"
        ]
        assert json.loads(lines[-1])["metrics"]["sweep_run_seconds"][
            "series"
        ]
        prom = (tmp_path / METRICS_PROM).read_text()
        assert validate_exposition(prom) == []
        assert "repro_sweep_runs_finished_total 1" in prom

    def test_begin_truncates_stale_stream(self, tmp_path):
        (tmp_path / METRICS_JSONL).write_text("stale\n")
        tele = Telemetry(label="t", enabled=True, out_dir=tmp_path)
        tele.begin()
        tele.flush(force=True)
        lines = (tmp_path / METRICS_JSONL).read_text().splitlines()
        assert len(lines) == 1 and lines[0] != "stale"


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


class TestDashboard:
    def _hub(self):
        tele = Telemetry(label="fig4", enabled=True)
        tele.progress_emitter = ProgressEmitter("fig4", enabled=False)
        tele.set_progress(total=8, done=2, eta=1.0)
        ident = tele.workers.spawn(pid=42)
        tele.workers.assign(ident, "abcdef123456", "fig4", attempt=2,
                            width=1, now=tele.now(), expected=0.001)
        tele.workers.check_stragglers(tele.now() + 10.0)
        return tele

    def test_non_tty_plain_summary(self):
        stream = io.StringIO()
        dash = Dashboard(self._hub(), stream=stream)
        assert dash.tty is False
        dash.open()
        dash.close()
        out = stream.getvalue()
        assert "[sweep:fig4] watch: 2/8 done, 1 busy" in out
        assert "\x1b[" not in out  # no ANSI on a non-TTY

    def test_tty_frame_redraw(self):
        stream = _TtyStream()
        tele = self._hub()
        dash = Dashboard(tele, stream=stream)
        assert dash.tty is True
        dash.open()
        tele.progress_emitter.emit("slow run", kind="straggler")
        dash.tick(force=True)
        dash.close()
        out = stream.getvalue()
        assert "\x1b[2K" in out          # clear-line redraws
        assert "sweep:fig4" in out
        assert "STRAGGLER" in out        # flagged worker row
        assert "[sweep:fig4] slow run" in out  # log pane content
        # The dashboard captured the emitter while open, released after.
        assert tele.progress_emitter.sink is None


class TestWatchOnTheCoordinator:
    def test_rows_eta_and_progress_lines_mid_sweep(self, tmp_path, capsys):
        """A metered two-worker sweep shows both worker rows and an ETA
        mid-sweep, and logs its "N/M resolved" progress lines."""
        tele = Telemetry(label="watch", enabled=True, out_dir=tmp_path,
                         flush_interval=0.0)
        runner = SweepRunner(
            jobs=2, cluster="inproc", use_cache=False, progress=True,
            cache_dir=tmp_path / "cache", label="watch", telemetry=tele,
            watch=True,
        )
        pop_stats()
        try:
            runner.run(_sim_specs(seeds=range(16)))
        finally:
            runner.close()
        (stats,) = pop_stats()
        assert stats.executed == 32
        with open(tmp_path / "metrics.jsonl") as fh:
            snaps = [json.loads(line) for line in fh]
        mid = snaps[:-1]
        assert any(
            len(s["workers"]) == 2 and s["progress"]["eta"] is not None
            for s in mid
        )
        idents = {row["ident"] for s in mid for row in s["workers"]}
        assert len(idents) == 2
        assert sum(
            tele.workers.view(ident).runs_done for ident in idents
        ) == stats.executed
        err = capsys.readouterr().err
        assert "25/32 resolved" in err

    def test_rows_show_the_pids_of_their_subprocesses(self, tmp_path):
        """Each auto-worker row shows the pid of the subprocess running
        its leases, not the sweep process's."""
        tele = Telemetry(label="pids", enabled=True)
        runner = SweepRunner(
            jobs=2, use_cache=False, progress=False,
            cache_dir=tmp_path / "cache", label="pids", telemetry=tele,
        )
        try:
            runner.run(_sim_specs())  # four specs over two auto-workers
        finally:
            runner.close()
        pop_stats()
        pids = {tele.workers.view(ident).pid for ident in (0, 1)}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_rows_show_worker_pids_from_registration(self, tmp_path):
        """An auto-worker registers with its own pid, so its row shows it
        before any lease has started."""
        tele = Telemetry(label="pids", enabled=True)
        runner = SweepRunner(
            jobs=2, use_cache=False, progress=False,
            cache_dir=tmp_path / "cache", label="pids", telemetry=tele,
        )
        try:
            runner._ensure_coordinator(2)
            rows = [
                (row["ident"], row["pid"])
                for row in tele.workers.snapshot(tele.now())
            ]
        finally:
            runner.close()
        pids = {pid for _ident, pid in rows}
        assert len(rows) == 2, rows
        assert len(pids) == 2 and os.getpid() not in pids, rows

    def test_inline_round_gets_a_row_of_its_own(self, tmp_path):
        """A serial run after a coordinated one shows on its own row; the
        auto-workers' rows stay retired with their counts."""
        tele = Telemetry(label="rows", enabled=True)
        runner = SweepRunner(
            jobs=2, use_cache=False, progress=False,
            cache_dir=tmp_path / "cache", label="rows", telemetry=tele,
        )
        try:
            runner.run(_sim_specs())  # four specs: coordinated
            slots = [tele.workers.view(ident) for ident in (0, 1)]
            before = [(view.state, view.runs_done) for view in slots]
            runner.run(_sim_specs(seeds=(2,), schedulers=("rws",)))  # inline
        finally:
            runner.close()
        pop_stats()
        assert [state for state, _ in before] == ["retired", "retired"]
        assert sum(done for _, done in before) == 4
        assert [(view.state, view.runs_done) for view in slots] == before
        inline = tele.workers.view(tele.workers.inline())
        assert inline.ident not in (0, 1)
        assert (inline.state, inline.runs_done) == ("idle", 1)


class TestReport:
    @pytest.fixture(scope="class")
    def sweep_dir(self, tmp_path_factory):
        """A real tiny sweep with telemetry + manifest artifacts."""
        out = tmp_path_factory.mktemp("telemetry") / "fig4"
        tele = Telemetry(label="fig4", enabled=True, out_dir=out,
                         flush_interval=0.0)
        runner = SweepRunner(
            jobs=2, use_cache=False, progress=False,
            cache_dir=tmp_path_factory.mktemp("cache"),
            label="fig4", manifest_dir=out, telemetry=tele,
        )
        runner.run(_sim_specs())
        pop_stats()
        return out

    def test_manifest_entries_carry_wall_time_and_history(self, sweep_dir):
        with open(sweep_dir / "manifest.json") as fh:
            manifest = json.load(fh)
        runs = manifest["runs"]
        assert len(runs) == 4
        for entry in runs:
            (attempt,) = entry["history"]
            assert attempt["outcome"] == "ok"
            assert attempt["attempt"] == 1
            assert attempt["wall"] > 0

    def test_report_is_standalone_with_sparklines(self, sweep_dir):
        path = write_report(sweep_dir, title="fig4")
        html = path.read_text()
        assert path.name == REPORT_HTML
        assert html.startswith("<!DOCTYPE html")
        assert "<svg" in html and "<polyline" in html
        assert "fig4" in html
        # Single-file artifact: no external scripts or stylesheets.
        assert "<script src" not in html and "<link" not in html
        # Per-scheduler breakdown reflects the sweep's tags.
        assert "dam-c" in html and "rws" in html

    def test_report_cli(self, sweep_dir, tmp_path, capsys):
        out = tmp_path / "custom.html"
        assert report_main([str(sweep_dir), "-o", str(out)]) == 0
        assert "<svg" in out.read_text()
        assert report_main([str(tmp_path / "nope")]) != 0
