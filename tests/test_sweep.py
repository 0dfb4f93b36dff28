"""Tier-1 tests of the parallel sweep engine (repro.sweep).

The engine's two contracts: a parallel sweep is bit-identical to a serial
one, and the on-disk cache replays exactly what was computed.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings
from repro.experiments.fig4_corunner import fig4_spec
from repro.sweep import RunSpec, SweepRunner, derive_seed, execute_spec


def _fig4_slice():
    """A small Fig. 4 slice: matmul, P in {2, 3}, three schedulers."""
    settings = ExperimentSettings(scale=0.01)
    return [
        fig4_spec(settings, "matmul", parallelism, sched)
        for parallelism in (2, 3)
        for sched in ("rws", "fa", "dam-c")
    ]


class TestRunSpec:
    def test_key_is_stable_and_tag_independent(self):
        spec = RunSpec(params={"workload": {"name": "layered", "kernel":
                                            "matmul", "parallelism": 2,
                                            "total": 40}})
        same = RunSpec(params={"workload": {"kernel": "matmul", "total": 40,
                                            "parallelism": 2,
                                            "name": "layered"}},
                       tags={"anything": "else"})
        assert spec.key() == same.key()

    def test_key_changes_with_seed_and_params(self):
        base = RunSpec(params={"machine": "jetson_tx2"})
        assert base.key() != RunSpec(params={"machine": "jetson_tx2"},
                                     seed=1).key()
        assert base.key() != RunSpec(params={"machine": "haswell16"}).key()

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSpec(params={"callback": lambda: None})

    def test_derive_seed_deterministic(self):
        assert derive_seed(0, "fig4", 2) == derive_seed(0, "fig4", 2)
        assert derive_seed(0, "fig4", 2) != derive_seed(1, "fig4", 2)


class TestSweepRunner:
    def test_parallel_matches_serial_bit_identical(self, tmp_path):
        specs = _fig4_slice()
        serial = SweepRunner(jobs=1, use_cache=False, progress=False)
        parallel = SweepRunner(jobs=4, use_cache=False, progress=False)
        expected = serial.run(specs)
        actual = parallel.run(specs)
        assert actual == expected  # exact float equality, in input order
        for metrics in expected:
            assert metrics["throughput"] > 0

    def test_cache_round_trip(self, tmp_path):
        specs = _fig4_slice()
        cold = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        first = cold.run(specs)
        assert cold.last_stats.hits == 0
        assert cold.last_stats.executed == len(specs)

        warm = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        second = warm.run(specs)
        assert warm.last_stats.hits == len(specs)
        assert warm.last_stats.executed == 0
        assert second == first

    def test_cache_entries_are_valid_json(self, tmp_path):
        spec = _fig4_slice()[0]
        SweepRunner(jobs=1, cache_dir=tmp_path, progress=False).run([spec])
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        entry = json.loads(entries[0].read_text())
        assert entry["key"] == spec.key()
        assert entry["identity"]["params"] == spec.params

    def test_cache_file_and_checkpoint_line_hold_one_text(self, tmp_path):
        spec = _fig4_slice()[0]
        runner = SweepRunner(
            jobs=1, cache_dir=tmp_path, progress=False, label="one-text"
        )
        (metrics,) = runner.run([spec])
        text = json.dumps(
            {"key": spec.key(), "identity": spec.identity(),
             "metrics": metrics},
            sort_keys=True,
        )
        assert (tmp_path / f"{spec.key()}.json").read_text() == text
        checkpoint = tmp_path / "checkpoints" / "one-text.jsonl"
        assert checkpoint.read_text() == text + "\n"

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        spec = _fig4_slice()[0]
        runner = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        (first,) = runner.run([spec])
        path, = tmp_path.glob("*.json")
        path.write_text("{not json")
        rerun = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        (second,) = rerun.run([spec])
        assert rerun.last_stats.hits == 0
        assert second == first

    @pytest.mark.parametrize(
        "payload",
        ["[]", "42", '"a string"', "null", '{"key": "wrong-hash"}',
         '{"key": null, "metrics": []}'],
        ids=["list", "int", "str", "null", "wrong-key", "non-dict-metrics"],
    )
    def test_wrong_shape_cache_entry_is_recomputed(self, tmp_path, payload):
        """Valid JSON of the wrong shape is corruption, not a crash."""
        spec = _fig4_slice()[0]
        runner = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        (first,) = runner.run([spec])
        path = tmp_path / f"{spec.key()}.json"
        path.write_text(payload)
        rerun = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        (second,) = rerun.run([spec])
        assert rerun.last_stats.hits == 0
        assert second == first
        # The corrupt entry was rewritten with the recomputed result.
        entry = json.loads(path.read_text())
        assert entry["key"] == spec.key()
        assert entry["metrics"] == first

    def test_truncated_cache_entry_is_recomputed(self, tmp_path):
        spec = _fig4_slice()[0]
        runner = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        (first,) = runner.run([spec])
        path = tmp_path / f"{spec.key()}.json"
        path.write_text(path.read_text()[:25])  # torn write
        rerun = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        (second,) = rerun.run([spec])
        assert rerun.last_stats.hits == 0
        assert second == first
        assert json.loads(path.read_text())["metrics"] == first

    def test_duplicate_specs_executed_once(self, tmp_path):
        spec = _fig4_slice()[0]
        runner = SweepRunner(jobs=1, cache_dir=tmp_path, progress=False)
        results = runner.run([spec, spec, spec])
        assert runner.last_stats.unique == 1
        assert results[0] == results[1] == results[2]

    def test_sweep_matches_direct_execution(self):
        spec = _fig4_slice()[0]
        direct = execute_spec(spec)
        (via_runner,) = SweepRunner(
            jobs=1, use_cache=False, progress=False
        ).run([spec])
        assert via_runner == direct

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=0)


class TestCompositeScenarioSpec:
    def test_composite_scenario_runs_declaratively(self):
        """The 'composite' registry entry nests other scenario specs."""
        spec = RunSpec(
            kind="single",
            params={
                "workload": {"name": "layered", "kernel": "matmul",
                             "parallelism": 2, "total": 40},
                "machine": "jetson_tx2",
                "scheduler": "dam-c",
                "scenario": {
                    "name": "composite",
                    "scenarios": [
                        {"name": "corunner", "cores": [0], "cpu_share": 0.5},
                        {"name": "dvfs", "cores": [0, 1],
                         "half_period": 0.02},
                    ],
                },
            },
            metrics=("throughput",),
        )
        (row,) = SweepRunner(jobs=1, use_cache=False, progress=False).run(
            [spec]
        )
        assert row["throughput"] > 0
