"""The profiling subsystem: phase accounting, reports, CLI smoke."""

import gc
import json

from repro.profile import Profiler
from repro.profile.cli import main as profile_main
from repro.profile.flamegraph import validate_collapsed
from repro.profile.phases import (
    PhaseTimer,
    active_phases,
    phase_accounting,
    phase_scope,
)


class TestPhaseTimer:
    def test_inactive_scope_is_free_noop(self):
        assert active_phases() is None
        with phase_scope("sim-loop"):
            assert active_phases() is None

    def test_nested_phases_attribute_to_innermost(self):
        timer = PhaseTimer()
        with phase_accounting(timer):
            with phase_scope("sim-loop"):
                with phase_scope("policy-search"):
                    pass
        breakdown = timer.breakdown(wall=1.0)
        phases = breakdown["phases"]
        assert phases["policy-search"]["enters"] == 1
        assert phases["sim-loop"]["enters"] == 1
        # Inner time is attributed to the inner phase, not double-counted.
        assert phases["sim-loop"]["seconds"] >= 0.0

    def test_gc_bucket_is_always_listed(self):
        timer = PhaseTimer()
        with phase_accounting(timer):
            with phase_scope("sim-loop"):
                pass
        phases = timer.breakdown(wall=1.0)["phases"]
        assert "gc" in phases
        assert phases["gc"]["seconds"] >= 0.0

    def test_collections_are_timed_as_gc_not_as_the_open_phase(self):
        timer = PhaseTimer()
        callbacks_before = list(gc.callbacks)
        with phase_accounting(timer):
            with phase_scope("sim-loop"):
                for _ in range(3):
                    cycle = []
                    cycle.append(cycle)
                    del cycle
                    gc.collect()
        assert gc.callbacks == callbacks_before
        phases = timer.breakdown(wall=10.0)["phases"]
        assert phases["gc"]["enters"] >= 3
        assert phases["gc"]["seconds"] > 0.0
        # Exclusive accounting: the buckets still sum to no more than the
        # instrumented span.
        total = sum(row["seconds"] for name, row in phases.items()
                    if name != "other")
        assert total <= 10.0

    def test_ad_hoc_phase_gets_own_bucket_after_canonical(self):
        timer = PhaseTimer()
        with phase_accounting(timer):
            with phase_scope("sim-loop"):
                pass
            with phase_scope("my-custom-phase"):
                pass
        names = list(timer.breakdown(wall=1.0)["phases"])
        assert names.index("sim-loop") < names.index("my-custom-phase")


class TestProfiler:
    def test_run_returns_result_and_phase_report(self):
        def body():
            with phase_scope("metrics"):
                return sum(range(1000))

        result, report = Profiler(cprofile=False).run(body, label="unit")
        assert result == sum(range(1000))
        assert report.label == "unit"
        assert report.wall > 0
        assert "metrics" in report.breakdown["phases"]
        assert report.collapsed == []  # no cProfile -> no flamegraph

    def test_cprofile_produces_valid_collapsed_stacks(self):
        def body():
            return [i * i for i in range(2000)]

        _result, report = Profiler(cprofile=True).run(body, label="unit")
        assert report.top, "expected per-function hotspots"
        assert report.collapsed
        validate_collapsed(report.collapsed)

    def test_write_emits_artifacts(self, tmp_path):
        _result, report = Profiler(cprofile=True).run(
            lambda: sum(range(100)), label="unit"
        )
        written = report.write(tmp_path / "out")
        assert set(written) == {"phases", "collapsed", "pstats"}
        payload = json.loads(open(written["phases"]).read())
        assert payload["label"] == "unit"
        assert "phases" in payload["breakdown"]


class TestCli:
    def test_micro_smoke_exits_zero_with_valid_artifacts(self, tmp_path):
        out = tmp_path / "prof"
        code = profile_main(
            ["micro", "--tasks", "40", "--out", str(out), "--top", "3"]
        )
        assert code == 0
        assert (out / "phases.json").exists()
        collapsed = (out / "profile.collapsed").read_text().splitlines()
        validate_collapsed(collapsed)
        payload = json.loads((out / "phases.json").read_text())
        phases = payload["breakdown"]["phases"]
        assert phases["sim-loop"]["seconds"] > 0

    def test_micro_no_cprofile(self, tmp_path):
        out = tmp_path / "prof"
        code = profile_main(
            ["micro", "--tasks", "40", "--no-cprofile", "--out", str(out)]
        )
        assert code == 0
        assert (out / "phases.json").exists()
        assert not (out / "profile.collapsed").exists()
