"""Tests for the simulated runtime's execution semantics."""

import pytest

from repro.core.policies.registry import make_scheduler
from repro.errors import RuntimeStateError
from repro.graph.dag import TaskGraph
from repro.graph.generators import chain_dag, diamond_dag, layered_synthetic_dag
from repro.graph.task import Priority
from repro.kernels.fixed import FixedWorkKernel
from repro.machine.presets import jetson_tx2
from repro.machine.speed import SpeedModel
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import SimulatedRuntime
from repro.sim.environment import Environment


def run(graph, scheduler="rws", machine=None, config=None, seed=0, env=None,
        scenario=None):
    machine = machine or jetson_tx2()
    env = env or Environment()
    speed = SpeedModel(env, machine)
    if scenario is not None:
        scenario.install(env, speed, machine)
    runtime = SimulatedRuntime(
        env, machine, graph, make_scheduler(scheduler),
        config=config, speed=speed, seed=seed,
    )
    return runtime.run(), runtime


@pytest.fixture
def kernel():
    return FixedWorkKernel("k", work=1e-3, parallel_fraction=0.8)


class TestBasicExecution:
    def test_single_task(self, kernel):
        g = TaskGraph()
        g.add_task(kernel)
        result, _rt = run(g)
        assert result.tasks_completed == 1
        # 1e-3 work on some core at speed >= 1 plus small overheads.
        assert 1e-4 < result.makespan < 2e-3

    def test_chain_executes_in_order(self, kernel):
        g = chain_dag(kernel, 10)
        result, rt = run(g)
        assert result.tasks_completed == 10
        records = sorted(rt.collector.records, key=lambda r: r.exec_start)
        positions = [r.metadata["position"] for r in records]
        assert positions == list(range(10))

    def test_every_task_executes_exactly_once(self, kernel):
        g = layered_synthetic_dag(kernel, 4, 80)
        result, rt = run(g, "dam-c")
        assert result.tasks_completed == 80
        ids = [r.task_id for r in rt.collector.records]
        assert len(ids) == len(set(ids)) == 80

    def test_all_schedulers_complete_diamond(self, kernel):
        for name in ("rws", "rwsm-c", "fa", "fam-c", "da", "dam-c", "dam-p",
                     "dheft"):
            g = diamond_dag(kernel)
            result, _rt = run(g, name)
            assert result.tasks_completed == 4, name

    def test_makespan_at_least_critical_path_bound(self, kernel):
        g = chain_dag(kernel, 20)
        result, _rt = run(g)
        # 20 tasks of 1e-3 work; fastest core speed 2 -> >= 10 ms.
        assert result.makespan >= 20 * 1e-3 / 2.0

    def test_throughput_definition(self, kernel):
        g = layered_synthetic_dag(kernel, 2, 20)
        result, _rt = run(g)
        assert result.throughput == pytest.approx(
            result.tasks_completed / result.makespan
        )


class TestMoldableExecution:
    def test_wide_assembly_occupies_all_members(self):
        # One strongly-parallel task: DAM-P molds it wide once trained.
        kernel = FixedWorkKernel("wide", work=1e-2, parallel_fraction=0.99,
                                 molding_overhead=0.0)
        g = layered_synthetic_dag(kernel, 2, 60)
        result, rt = run(g, "dam-p")
        widths = {r.place.width for r in rt.collector.records}
        assert widths - {1}, "expected at least some molded executions"
        # Busy time charged to every member core.
        wide_rec = next(r for r in rt.collector.records if r.place.width > 1)
        for core in range(wide_rec.place.leader,
                          wide_rec.place.leader + wide_rec.place.width):
            assert rt.collector.core_busy[core] > 0

    def test_rigid_kernel_stays_width_one_under_cost_search(self):
        kernel = FixedWorkKernel("rigid", work=1e-3, parallel_fraction=0.0)
        g = layered_synthetic_dag(kernel, 2, 40)
        _result, rt = run(g, "dam-c")
        exploration = sum(1 for r in rt.collector.records if r.place.width > 1)
        steady = [r for r in rt.collector.records[20:]]
        assert all(r.place.width == 1 for r in steady)


class TestPrioritySemantics:
    def test_high_priority_never_stolen_under_da(self, kernel):
        g = layered_synthetic_dag(kernel, 3, 60)
        _result, rt = run(g, "da")
        for record in rt.collector.records:
            if record.is_high_priority:
                assert not record.stolen

    def test_rws_steals_high_priority_tasks(self, kernel):
        g = layered_synthetic_dag(kernel, 3, 120)
        _result, rt = run(g, "rws")
        stolen_high = [r for r in rt.collector.records
                       if r.is_high_priority and r.stolen]
        assert stolen_high, "RWS should steal high-priority tasks freely"


class TestLifecycleErrors:
    def test_double_start_rejected(self, kernel):
        g = TaskGraph()
        g.add_task(kernel)
        env = Environment()
        machine = jetson_tx2()
        runtime = SimulatedRuntime(env, machine, g, make_scheduler("rws"))
        runtime.start()
        with pytest.raises(RuntimeStateError):
            runtime.start()

    def test_lean_records_must_be_armed_before_start(self, kernel):
        g = TaskGraph()
        g.add_task(kernel)
        runtime = SimulatedRuntime(
            Environment(), jetson_tx2(), g, make_scheduler("rws")
        )
        runtime.start()
        with pytest.raises(RuntimeStateError, match="before start"):
            runtime.arm_lean_records()

    def test_max_time_exceeded(self, kernel):
        g = chain_dag(kernel, 50)
        config = RuntimeConfig(max_time=1e-3)
        with pytest.raises(RuntimeStateError, match="max_time"):
            run(g, config=config)

    def test_result_reports_scheduler_and_machine(self, kernel):
        g = TaskGraph()
        g.add_task(kernel)
        result, _rt = run(g, "dam-c")
        assert result.scheduler_name == "DAM-C"
        assert result.machine_name == "jetson-tx2"


class TestObservationNoise:
    def test_noise_perturbs_observed_not_duration(self, kernel):
        g = chain_dag(kernel, 30)
        config = RuntimeConfig(measurement_noise=1e-4)
        _result, rt = run(g, "dam-c", config=config)
        diffs = [abs(r.observed - r.duration) for r in rt.collector.records]
        assert any(d > 0 for d in diffs)
        assert all(r.observed > 0 for r in rt.collector.records)

    def test_no_noise_observed_equals_duration(self, kernel):
        g = chain_dag(kernel, 10)
        _result, rt = run(g, "dam-c")
        for r in rt.collector.records:
            assert r.observed == pytest.approx(r.duration)


class TestTaskCommitObservers:
    def test_observer_sees_every_record(self, kernel):
        g = layered_synthetic_dag(kernel, 2, 20)
        env = Environment()
        machine = jetson_tx2()
        runtime = SimulatedRuntime(env, machine, g, make_scheduler("rws"))
        seen = []
        runtime.on_task_commit.append(lambda rec: seen.append(rec.task_id))
        runtime.run()
        assert len(seen) == 20


class TestDynamicGraphExecution:
    def test_spawned_tasks_execute(self, kernel):
        g = TaskGraph()
        count = [0]

        def spawn(graph, task):
            count[0] += 1
            if count[0] < 10:
                graph.add_task(kernel, spawn=spawn)

        g.add_task(kernel, spawn=spawn)
        result, _rt = run(g)
        assert result.tasks_completed == 10
