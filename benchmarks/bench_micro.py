"""Micro-benchmarks of the hot primitives.

These are genuine pytest-benchmark measurements (many rounds) of the
operations a simulation executes millions of times, useful for tracking
performance regressions of the library itself.
"""

import numpy as np

from repro.core.placement import global_search_cost, local_search_cost
from repro.core.ptt import PerformanceTraceTable
from repro.graph.generators import layered_synthetic_dag
from repro.kernels.fixed import FixedWorkKernel
from repro.kernels.matmul import MatMulKernel
from repro.machine.presets import haswell_node, jetson_tx2
from repro.machine.speed import SpeedModel
from repro.machine.topology import ExecutionPlace
from repro.session import run_graph
from repro.sim.environment import Environment


def test_ptt_update(benchmark):
    machine = jetson_tx2()
    ptt = PerformanceTraceTable(machine)
    place = ExecutionPlace(0, 1)
    benchmark(ptt.update, place, 1e-3)


def test_global_search_tx2(benchmark):
    machine = jetson_tx2()
    ptt = PerformanceTraceTable(machine)
    for i, place in enumerate(machine.places):
        ptt.update(place, 1e-3 * (i + 1))
    benchmark(global_search_cost, ptt, machine)


def test_global_search_20core(benchmark):
    """The paper flags global-search cost as a scaling concern (§4.1.1)."""
    machine = haswell_node()
    ptt = PerformanceTraceTable(machine)
    for i, place in enumerate(machine.places):
        ptt.update(place, 1e-3 * (i + 1))
    benchmark(global_search_cost, ptt, machine)


def test_local_search(benchmark):
    machine = jetson_tx2()
    ptt = PerformanceTraceTable(machine)
    for place in machine.places:
        ptt.update(place, 1e-3)
    benchmark(local_search_cost, ptt, machine, 2)


def test_global_search_backlog_tiebreak(benchmark):
    """Vectorized search with every candidate tied: tie-break loop engaged.

    Uniform PTT entries make all places fall inside ``TIE_TOLERANCE``, so
    the search must rank the full candidate set by leader backlog — the
    worst case of the vectorized path.
    """
    machine = haswell_node()
    ptt = PerformanceTraceTable(machine)
    for place in machine.places:
        ptt.update(place, 1e-3)
    depths = [core % 3 for core in range(machine.num_cores)]
    benchmark(global_search_cost, ptt, machine, backlog=depths.__getitem__)


def test_dag_build_direct(benchmark):
    """Cold DAG construction: generator logic with the template cache off."""
    from repro.graph.templates import clear_template_cache

    kernel = MatMulKernel()

    def build():
        clear_template_cache()
        return layered_synthetic_dag(kernel, 4, 1000)

    graph = benchmark(build)
    assert sum(1 for _ in graph.tasks()) == 1000


def test_dag_build_template(benchmark):
    """Warm DAG construction: instantiation from a cached template."""
    from repro.graph.templates import clear_template_cache, template_cache_stats

    kernel = MatMulKernel()
    clear_template_cache()
    layered_synthetic_dag(kernel, 4, 1000)  # prime the cache

    graph = benchmark(layered_synthetic_dag, kernel, 4, 1000)
    assert sum(1 for _ in graph.tasks()) == 1000
    assert template_cache_stats()["hits"] > 0


def test_sim_event_throughput(benchmark):
    """Raw engine speed: timeout-chain of 10k events."""

    def run_chain():
        env = Environment()

        def proc():
            for _ in range(10_000):
                yield env.timeout(1e-6)

        env.process(proc())
        env.run()

    benchmark.pedantic(run_chain, rounds=3, iterations=1)


def test_runtime_task_throughput(benchmark):
    """End-to-end simulated tasks per wall second (1000-task DAG)."""

    def run_dag():
        graph = layered_synthetic_dag(MatMulKernel(), 4, 1000)
        return run_graph(graph, jetson_tx2(), "dam-c")

    result = benchmark.pedantic(run_dag, rounds=3, iterations=1)
    assert result.tasks_completed == 1000


def test_runtime_task_throughput_tracer_off(benchmark):
    """The zero-overhead-when-off contract of repro.trace.

    Same DAG as ``test_runtime_task_throughput`` with an explicit (still
    disabled) NullTracer.  ``compare_baseline.py`` gates this case
    *relatively* — its min must stay within 2% of the plain case measured
    in the same session — so the instrumentation's ``tracer.enabled``
    guards can never grow into a real cost without CI noticing.
    """
    from repro.trace import NullTracer

    def run_dag():
        graph = layered_synthetic_dag(MatMulKernel(), 4, 1000)
        return run_graph(graph, jetson_tx2(), "dam-c", tracer=NullTracer())

    result = benchmark.pedantic(run_dag, rounds=5, iterations=1)
    assert result.tasks_completed == 1000


def test_runtime_task_throughput_traced(benchmark):
    """Cost of full tracing (reported, ungated: tracing is opt-in)."""
    from repro.trace import FullTracer

    def run_dag():
        graph = layered_synthetic_dag(MatMulKernel(), 4, 1000)
        tracer = FullTracer()
        result = run_graph(graph, jetson_tx2(), "dam-c", tracer=tracer)
        assert len(tracer.events()) > 1000
        return result

    result = benchmark.pedantic(run_dag, rounds=3, iterations=1)
    assert result.tasks_completed == 1000


def test_sweep_tiny_fig4(benchmark):
    """End-to-end sweep path: specs -> registry -> runs -> metric dicts.

    A two-cell fig4 slice through the real :class:`SweepRunner` (serial,
    uncached), covering spec hashing, dispatch ordering and result
    assembly on top of the simulator — the path every experiment harness
    takes.  Gated: a regression here is a regression of the product.
    """
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.fig4_corunner import fig4_spec
    from repro.sweep import SweepRunner

    settings = ExperimentSettings(scale=0.01)
    specs = [
        fig4_spec(settings, "matmul", 2, sched) for sched in ("rws", "dam-c")
    ]

    def run_sweep():
        return SweepRunner(jobs=1, use_cache=False, progress=False).run(specs)

    rows = benchmark.pedantic(run_sweep, rounds=3, iterations=1)
    assert len(rows) == 2
    assert all(row["throughput"] > 0 for row in rows)


def test_lockstep_batch(benchmark):
    """Batched replicates: 8 PTT-training replicates in one batch.

    Calls :func:`repro.core.batched.execute_batch` directly on eight
    ``da`` fig4 replicates (seed-derived specs, one shared machine),
    exercising lean-records mode and the shared machine, template and
    kernel-profile setup.  Gated: a regression here is a regression of
    the batched jobs=1 sweep path.  (The name predates the removal of
    lockstep batching; it is kept so the baseline entry still applies.)
    """
    from repro.core.batched import execute_batch
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.fig4_corunner import fig4_spec

    specs = [
        fig4_spec(ExperimentSettings(scale=0.01, seed=seed), "matmul", 2, "da")
        for seed in range(8)
    ]

    results = benchmark.pedantic(execute_batch, args=(specs,), rounds=3,
                                 iterations=1)
    assert len(results) == 8
    assert all("ok" in row and row["ok"]["throughput"] > 0 for row in results)


def test_speed_model_retime(benchmark):
    """Cost of a rate change with many in-flight work items."""
    env = Environment()
    machine = haswell_node()
    speed = SpeedModel(env, machine)
    for core in range(machine.num_cores):
        speed.begin_work([core], work=1e9)

    def toggle():
        speed.set_cpu_share([0, 1, 2], 0.5)
        speed.set_cpu_share([0, 1, 2], 1.0)

    benchmark(toggle)


def test_sweep_batched_adaptive(benchmark):
    """Batched replicate execution through the real adaptive sweep.

    A two-cell fig4 slice at a fixed 3 replicates per cell with
    ``batch_runs="auto"``: each cell's round of replicates must pack
    into one batched run (asserted via ``SweepStats``), exercising the
    batch planning, the stacked PTT/rate state and the per-replicate
    scalar execution path end to end.  Gated: a regression here is a
    regression of the default ``--adaptive`` path.
    """
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.fig4_corunner import fig4_spec
    from repro.sweep import AdaptivePolicy, SweepRunner

    settings = ExperimentSettings(scale=0.01)
    specs = [
        fig4_spec(settings, "matmul", 2, sched) for sched in ("rws", "dam-c")
    ]
    policy = AdaptivePolicy(ci=0.0, min_seeds=3, max_seeds=3)

    def run_sweep():
        runner = SweepRunner(
            jobs=1, use_cache=False, progress=False, batch_runs="auto"
        )
        rows = runner.run_adaptive(specs, policy)
        return rows, runner.last_stats

    rows, stats = benchmark.pedantic(run_sweep, rounds=3, iterations=1)
    assert len(rows) == 2
    assert all(row["adaptive"]["replicates"] == 3 for row in rows)
    assert stats.batches == 2 and stats.batched_runs == 6
