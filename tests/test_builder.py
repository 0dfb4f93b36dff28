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
* A builder reuses generator objects across runs, and each run still
  draws its own seed's streams: interleaved seeds, and the run after one
  that raised, equal fresh builds; two builders, or two runtimes of one
  builder in flight at once, share no generator.
* A finished untraced run leaves no cyclic garbage: reference counting
  frees all of it, a live co-runner's endless chain, fault injectors
  and aborted tasks included.
"""

import dataclasses
import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeStateError
from repro.machine.speed import SpeedModel
from repro.runtime.executor import SimulatedRuntime
from repro.sim.environment import Environment
from repro.sim.events import Event
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
          seed=0, config=None):
    params = {
        "workload": {"name": "layered", "kernel": kernel,
                     "parallelism": parallelism, "total": total},
        "machine": machine,
        "scheduler": scheduler,
        "scenario": scenario,
    }
    if config is not None:
        params["config"] = config
    return RunSpec(kind="single", params=params, seed=seed, metrics=metrics)


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


class TestStreamReuse:
    def test_interleaved_seeds_match_fresh_builds(self):
        builder = RunBuilder()
        seeds = (0, 1, 0, 2, 1, 1, 0, 3, 2)
        for i, seed in enumerate(seeds):
            spec = _spec(
                machine=("jetson_tx2", "haswell16")[i % 2],
                scheduler=("rws", "dam-c")[i % 2],
                scenario=SCENARIOS[i % 3],
                metrics=METRIC_SETS[i % 4],
                seed=seed,
            )
            assert execute_spec(spec, builder) == execute_spec(spec)

    def test_run_after_one_that_raised_matches_fresh_build(self):
        builder = RunBuilder()
        # Stopped by max_time part-way, after it has drawn from its
        # streams; its generators go back to the pool all the same.
        broken = _spec(seed=5, total=40, config={"max_time": 0.004})
        with pytest.raises(RuntimeStateError, match="max_time"):
            execute_spec(broken, builder)
        for seed in (5, 6, 5):
            spec = _spec(seed=seed, total=40, metrics=METRIC_SETS[2])
            assert execute_spec(spec, builder) == execute_spec(spec)

    def test_builders_share_no_generator(self):
        spec = _spec()
        first, second = RunBuilder(), RunBuilder()
        for builder in (first, second):  # fill both pools
            execute_spec(spec, builder)
        a, b = first.runtime(spec), second.runtime(spec)
        assert not {id(g) for g in a._streams} & {id(g) for g in b._streams}

    def test_runtimes_in_flight_at_once_share_no_generator(self):
        builder = RunBuilder()
        spec = _spec(scenario=SCENARIOS[1], total=40)
        execute_spec(spec, builder)  # the pool now holds idle generators
        a, b = builder.runtime(spec), builder.runtime(spec)
        streams = [id(g) for g in a._streams + b._streams]
        assert len(set(streams)) == len(streams)
        assert a.run().throughput == b.run().throughput


def _simulation_objects():
    """Ids of the live objects a run is made of."""
    kinds = (SimulatedRuntime, SpeedModel, Environment, Event)
    return {id(o) for o in gc.get_objects() if isinstance(o, kinds)}


#: Runs beyond the ``single`` specs over :data:`SCENARIOS`: a Fig. 9
#: K-means window, and crashes that abort in-flight tasks for a retry.
OTHER_RUNS = {
    "kmeans_window": RunSpec(
        kind="kmeans_window",
        params={"machine": "haswell16", "scheduler": "dam-c",
                "iterations": 8, "window": [2, 5]},
    ),
    "faults-retried": _spec(
        scenario={"name": "faults", "stragglers": [],
                  "crashes": [[1, 0.002, 0.001], [2, 0.0025, 0.003],
                              [3, 0.004, None]]},
        metrics=("makespan", "tasks_retried"), total=80,
    ),
}


def _second_run_leaves_no_cyclic_garbage(spec):
    """Run ``spec`` at seed 1 through a warm builder; return its metrics
    once nothing of the run is left for the collector."""
    builder = RunBuilder()
    execute_spec(spec, builder)  # warm the builder and the DAG cache
    gc.collect()
    gc.disable()
    try:
        before = _simulation_objects()
        metrics = execute_spec(dataclasses.replace(spec, seed=1), builder)
        # Nothing of the run is still alive, not even a cycle whose
        # generator finalizer would let the collector free it
        # without counting it...
        assert _simulation_objects() <= before
        # ...and the collector finds nothing unreachable.
        assert gc.collect() == 0
    finally:
        gc.enable()
    return metrics


class TestNoCyclicGarbage:
    @pytest.mark.parametrize(
        "scenario", SCENARIOS,
        ids=["none", "tx2", "dvfs", "live_corunner", "faults"],
    )
    @pytest.mark.parametrize("metrics", [METRIC_SETS[0], METRIC_SETS[3]],
                             ids=["lean", "records"])
    def test_finished_run_leaves_no_cyclic_garbage(self, scenario, metrics):
        spec = _spec(scenario=scenario, metrics=metrics, total=40)
        _second_run_leaves_no_cyclic_garbage(spec)

    @pytest.mark.parametrize("name", sorted(OTHER_RUNS))
    def test_other_runs_leave_no_cyclic_garbage(self, name):
        metrics = _second_run_leaves_no_cyclic_garbage(OTHER_RUNS[name])
        if name == "faults-retried":
            assert metrics["tasks_retried"] > 0
