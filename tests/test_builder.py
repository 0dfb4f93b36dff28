"""Tests of the per-worker run builder (``repro.sweep.registry.RunBuilder``).

Contracts under test:

* A run built by a builder that has already built other runs — any mix
  of machines, kernels, schedulers, scenarios and metric sets — gives
  metrics equal (``==``) to the same spec built by a fresh builder.
* A run whose metrics are all record-free keeps no per-task records,
  and its metrics equal those of the same run with full records.
* A builder's kernel-profile table stays bounded, also when every run
  brings new kernel objects (kernels that bypass the DAG template
  cache).
* The machine a builder shares between runs cannot be written to.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sweep import RunSpec
from repro.sweep.registry import RECORD_FREE_METRICS, RunBuilder, execute_spec

SCENARIOS = (
    None,
    {"name": "tx2_corunner", "kernel": "matmul"},
    {"name": "dvfs", "cores": [0, 1], "half_period": 0.002},
    {"name": "live_corunner", "core": 0, "kernel": "copy"},
    {"name": "faults", "crashes": [[1, 0.001, 0.002]], "stragglers": []},
)

METRIC_SETS = (
    ("throughput",),
    ("makespan", "tasks_completed"),
    ("throughput", "core_busy"),
    ("priority_place_distribution",),
    ("makespan", "fault_stats", "tasks_retried"),
)


def _spec(machine="jetson_tx2", kernel="matmul", scheduler="dam-c",
          scenario=None, metrics=("throughput",), parallelism=2, total=24,
          seed=0):
    return RunSpec(
        kind="single",
        params={
            "workload": {"name": "layered", "kernel": kernel,
                         "parallelism": parallelism, "total": total},
            "machine": machine,
            "scheduler": scheduler,
            "scenario": scenario,
        },
        seed=seed,
        metrics=metrics,
    )


specs = st.builds(
    _spec,
    machine=st.sampled_from(["jetson_tx2", "haswell16"]),
    kernel=st.sampled_from(["matmul", "copy", "stencil"]),
    scheduler=st.sampled_from(["rws", "fa", "fam-c", "da", "dam-c", "dam-p"]),
    scenario=st.sampled_from(SCENARIOS),
    metrics=st.sampled_from(METRIC_SETS),
    parallelism=st.integers(min_value=1, max_value=4),
    total=st.integers(min_value=8, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)


def _outcome(spec, builder=None):
    """Metrics, or the type and message of what the run raised."""
    try:
        return execute_spec(spec, builder)
    except Exception as exc:  # a deadlock or an exhausted retry budget
        return (type(exc).__name__, str(exc))


class TestRunBuilder:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sequence=st.lists(specs, min_size=2, max_size=6))
    def test_reused_builder_matches_fresh_builds(self, sequence):
        builder = RunBuilder()
        for spec in sequence:
            assert _outcome(spec, builder) == _outcome(spec)

    def test_lean_run_matches_full_records(self):
        spec = _spec(scenario=SCENARIOS[1], total=60)
        assert RECORD_FREE_METRICS.issuperset(spec.metrics)
        builder = RunBuilder()
        lean = builder.runtime(spec)
        assert lean._lean_records
        full_spec = dataclasses.replace(
            spec, metrics=spec.metrics + ("core_busy",)
        )
        full = builder.runtime(full_spec)
        assert not full._lean_records
        lean_result, full_result = lean.run(), full.run()
        assert lean_result.collector.records == []
        assert len(full_result.collector.records) == 60
        for name in sorted(RECORD_FREE_METRICS):
            assert getattr(lean_result, name) == getattr(full_result, name)
        lean_metrics = execute_spec(spec, builder)
        assert lean_metrics == {"throughput": full_result.throughput}
        assert execute_spec(full_spec, builder)["throughput"] == (
            lean_metrics["throughput"]
        )

    def test_profile_table_stays_bounded(self, monkeypatch):
        import repro.runtime.executor as executor_mod

        # No kernel is keyable, so every run builds its DAG afresh, with
        # a kernel object the table has never seen.
        monkeypatch.setattr(
            "repro.graph.generators.kernel_cache_key", lambda kernel: None
        )
        monkeypatch.setattr(executor_mod, "PROFILE_TABLE_MAX", 16)
        builder = RunBuilder()
        machine, table = builder.machine("jetson_tx2")
        for seed in range(12):
            spec = _spec(kernel=("matmul", "copy")[seed % 2], seed=seed)
            assert execute_spec(spec, builder) == execute_spec(spec)
            assert 0 < len(table) <= 16
        assert len(machine.places) * 12 > 16  # the bound was reached

    def test_shared_machine_is_read_only(self):
        builder = RunBuilder()
        machine, _ = builder.machine("jetson_tx2")
        assert builder.machine("jetson_tx2")[0] is machine
        with pytest.raises(ValueError, match="read-only"):
            machine._place_widths[0] = 3.0
        with pytest.raises(ValueError, match="read-only"):
            machine._slots_by_core[0][0] = 0
        with pytest.raises(ValueError, match="read-only"):
            machine._width_one_slots[0] = 0

    def test_fresh_builders_share_nothing(self):
        first, second = RunBuilder(), RunBuilder()
        machine, table = first.machine("jetson_tx2")
        assert second.machine("jetson_tx2")[0] is not machine
        assert second.machine("jetson_tx2")[1] is not table
        assert first.machine("haswell16")[1] is not table
