"""Registries turning declarative :class:`RunSpec` data back into objects.

Every piece of a run that a spec references by name lives in one of the
tables below: DAG factories (``WORKLOADS``), machine presets
(``MACHINES``), interference scenarios (``SCENARIOS``), metric extractors
(``METRICS``) and whole-run executors (``EXECUTORS``).  :func:`execute_spec`
is the single entry point the sweep engine (and its worker processes)
call: it dispatches on ``spec.kind`` and returns a JSON-serializable
metrics dict.

Runs are put together by a :class:`RunBuilder`.  Each worker loop owns
one for its whole life and passes it to every :func:`execute_spec`
call, so a machine preset is built once per worker and its kernel
cost-profile table carries over from run to run; a run whose metrics
are all in :data:`RECORD_FREE_METRICS` keeps no per-task records.  None
of this changes a schedule: every run's metrics equal those of a run
through a fresh builder, which is what ``execute_spec(spec)`` uses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sweep.spec import RunSpec, place_to_data

# ----------------------------------------------------------------------
# kernels & workloads
# ----------------------------------------------------------------------

#: Per-kernel default tile sizes, matching the paper_*_dag defaults.
_KERNEL_TILES = {"matmul": 64, "copy": 1024, "stencil": 1024}


def make_kernel(name: str, tile: Optional[int] = None):
    """Instantiate a synthetic kernel by name, with its paper-default tile."""
    from repro.kernels.copy import CopyKernel
    from repro.kernels.matmul import MatMulKernel
    from repro.kernels.stencil import StencilKernel

    classes = {"matmul": MatMulKernel, "copy": CopyKernel, "stencil": StencilKernel}
    if name not in classes:
        raise ConfigurationError(f"unknown kernel {name!r}")
    return classes[name](tile=tile if tile is not None else _KERNEL_TILES[name])


def _layered_workload(kernel: str, parallelism: int, total: int,
                      tile: Optional[int] = None):
    from repro.graph.generators import layered_synthetic_dag

    return layered_synthetic_dag(make_kernel(kernel, tile), parallelism, total)


WORKLOADS: Dict[str, Callable] = {
    "layered": _layered_workload,
}


def build_workload(data: Mapping[str, Any]):
    """Instantiate the task graph described by a workload mapping."""
    kwargs = dict(data)
    name = kwargs.pop("name", None)
    if name not in WORKLOADS:
        raise ConfigurationError(f"unknown workload {name!r}")
    return WORKLOADS[name](**kwargs)


# ----------------------------------------------------------------------
# machines
# ----------------------------------------------------------------------

def _machines():
    from repro.machine import presets

    return {
        "jetson_tx2": presets.jetson_tx2,
        "haswell16": presets.haswell16,
        "haswell_node": presets.haswell_node,
    }


def build_machine(name: str):
    """Instantiate a machine preset by registry name."""
    machines = _machines()
    if name not in machines:
        raise ConfigurationError(f"unknown machine preset {name!r}")
    return machines[name]()


# ----------------------------------------------------------------------
# interference scenarios
# ----------------------------------------------------------------------

def _tx2_corunner(kernel: str):
    from repro.experiments.common import tx2_corunner

    return tx2_corunner(kernel)


def _corunner(**kwargs):
    from repro.interference.corunner import CorunnerInterference

    return CorunnerInterference(**kwargs)


def _dvfs(cores=None, high_scale: float = 1.0, low_scale: float = 345.0 / 2035.0,
          half_period: float = 5.0, until: Optional[float] = None):
    from repro.interference.dvfs_events import DvfsInterference
    from repro.machine.dvfs import PeriodicSquareWave

    wave = PeriodicSquareWave(
        high_scale=high_scale, low_scale=low_scale, half_period=half_period
    )
    return DvfsInterference(cores=cores, wave=wave, until=until)


def _live_corunner(core: int, kernel: str):
    from repro.interference.live import LiveCorunner

    return LiveCorunner(core=core, kernel=make_kernel(kernel))


def _composite(scenarios):
    from repro.interference.composite import CompositeScenario

    return CompositeScenario([build_scenario(s) for s in scenarios])


def _faults(**kwargs):
    """Declarative fault plan: ``crashes``/``stragglers`` in the
    :meth:`repro.faults.FaultPlan.to_params` shape."""
    from repro.faults import FaultPlan, FaultScenario

    return FaultScenario(FaultPlan.from_params(kwargs))


SCENARIOS: Dict[str, Callable] = {
    "tx2_corunner": _tx2_corunner,
    "corunner": _corunner,
    "dvfs": _dvfs,
    "live_corunner": _live_corunner,
    "composite": _composite,
    "faults": _faults,
}


def build_scenario(data: Optional[Mapping[str, Any]]):
    """Instantiate the interference scenario, or None for no interference."""
    if data is None:
        return None
    kwargs = dict(data)
    name = kwargs.pop("name", None)
    if name not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {name!r}")
    return SCENARIOS[name](**kwargs)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _m_priority_place_distribution(result) -> list:
    from repro.metrics.analysis import place_distribution

    dist = place_distribution(result.collector.records, high_priority_only=True)
    return [[place_to_data(p), frac] for p, frac in sorted(dist.items())]


def _m_core_busy(result) -> Dict[str, float]:
    return {str(core): busy for core, busy in result.collector.core_busy.items()}


def _m_fault_stats(result) -> Dict[str, Any]:
    """The runtime's recovery summary; empty when faults were off."""
    return dict(result.extra.get("fault_stats", {}))


def _fault_scalar(key: str, default: float = 0):
    def extract(result):
        stats = result.extra.get("fault_stats") or {}
        return stats.get(key, default)

    return extract


#: Metrics computed from RunResult scalars alone — no per-task records,
#: no per-core busy time.  A run that demands only these runs in
#: lean-records mode (SimulatedRuntime.arm_lean_records: the runtime
#: skips TaskRecord construction and busy-time accounting).  Extraction
#: output is unaffected either way.
RECORD_FREE_METRICS = frozenset(
    {"makespan", "tasks_completed", "throughput"}
)

METRICS: Dict[str, Callable] = {
    "makespan": lambda result: result.makespan,
    "tasks_completed": lambda result: result.tasks_completed,
    "throughput": lambda result: result.throughput,
    "priority_place_distribution": _m_priority_place_distribution,
    "core_busy": _m_core_busy,
    "fault_stats": _m_fault_stats,
    "workers_lost": _fault_scalar("workers_lost"),
    "tasks_retried": _fault_scalar("tasks_retried"),
    "tasks_recovered": _fault_scalar("tasks_recovered"),
    "recovery_latency": _fault_scalar("recovery_latency_mean", 0.0),
}


def extract_metrics(result, names) -> Dict[str, Any]:
    """Evaluate the named metric extractors against a RunResult."""
    from repro.profile.phases import phase_scope

    with phase_scope("metrics"):
        out: Dict[str, Any] = {}
        for name in names:
            if name not in METRICS:
                raise ConfigurationError(f"unknown metric {name!r}")
            out[name] = METRICS[name](result)
        return out


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

def build_tracer(params: Mapping[str, Any]):
    """Tracer requested by ``params["trace"]``, or None when absent.

    The trace mapping holds ``out_dir`` (export directory), an optional
    ``label`` (file stem, default ``"run"``), and the optional
    :func:`repro.trace.make_tracer` knobs ``buffer`` / ``limit``.  Being
    part of ``params`` it is automatically in the spec's cache key; the
    sweep engine additionally bypasses the cache for traced specs so the
    export files are always regenerated.
    """
    trace = params.get("trace")
    if trace is None:
        return None
    from repro.trace.tracer import make_tracer

    return make_tracer(
        buffer=trace.get("buffer", "full"), limit=int(trace.get("limit", 0))
    )


def export_trace(tracer, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Write a finished run's trace per ``params["trace"]``.

    Emits ``<label>.chrome.json`` (Perfetto / ``chrome://tracing``) and
    ``<label>.jsonl`` (loss-free stream) into ``out_dir``; returns the
    ``trace_events`` / ``trace_files`` metric entries.
    """
    if tracer is None:
        return {}
    from pathlib import Path

    from repro.trace.export import write_chrome_trace, write_jsonl

    trace = params["trace"]
    out_dir = Path(trace["out_dir"])
    label = trace.get("label", "run")
    events = tracer.events()
    chrome = write_chrome_trace(out_dir / f"{label}.chrome.json", events, label)
    jsonl = write_jsonl(out_dir / f"{label}.jsonl", events)
    return {
        "trace_events": len(events),
        "trace_files": [str(chrome), str(jsonl)],
    }


# ----------------------------------------------------------------------
# run construction
# ----------------------------------------------------------------------

class RunBuilder:
    """Builds ``single`` runs, reusing what is pure in their inputs.

    A builder keeps, per machine preset, one instance (built on first
    use; nothing writes to a machine, and its arrays are read-only) and
    that machine's kernel cost-profile table (``KernelModel.profile`` is
    pure in kernel, machine and place; the table holds its kernels, and
    :data:`repro.runtime.executor.PROFILE_TABLE_MAX` bounds it).  It also
    keeps a :class:`~repro.util.rng.StreamPool`: a run's RNG streams are
    its seed's, reset on generator objects that earlier runs have given
    back.  The workload, scheduler, scenario, environment and speed
    model are built fresh for every run.
    """

    def __init__(self) -> None:
        from repro.util.rng import StreamPool

        self._machines: Dict[str, Tuple[Any, Dict[tuple, Any]]] = {}
        self._streams = StreamPool()

    def machine(self, name: str) -> Tuple[Any, Dict[tuple, Any]]:
        """The shared instance of preset ``name`` and its profile table."""
        entry = self._machines.get(name)
        if entry is None:
            entry = self._machines[name] = (build_machine(name), {})
        return entry

    def runtime(self, spec: RunSpec, tracer=None):
        """A ready-to-run :class:`SimulatedRuntime` for a ``single`` spec.

        It keeps no per-task records when ``spec``'s metrics are all in
        :data:`RECORD_FREE_METRICS` and the runtime allows it (no
        tracer, faults or commit observers).
        """
        from repro.core.policies.registry import make_scheduler
        from repro.machine.speed import SpeedModel
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.executor import SimulatedRuntime
        from repro.sim.environment import Environment

        p = spec.params
        graph = build_workload(p["workload"])
        machine, profiles = self.machine(p["machine"])
        policy = make_scheduler(
            p["scheduler"], **(p.get("scheduler_kwargs") or {})
        )
        scenario = build_scenario(p.get("scenario"))
        config = RuntimeConfig(**(p.get("config") or {}))

        env = Environment()
        speed = SpeedModel(env, machine)
        if scenario is not None:
            scenario.install(env, speed, machine)
        runtime = SimulatedRuntime(
            env, machine, graph, policy, config=config, speed=speed,
            seed=spec.seed, tracer=tracer, profiles=profiles,
            streams=self._streams,
        )
        if RECORD_FREE_METRICS.issuperset(spec.metrics):
            runtime.arm_lean_records()
        return runtime

    def run(self, spec: RunSpec, tracer=None):
        """Build and run a ``single`` spec; returns its ``RunResult``.

        The run's environment is closed once it has ended (finished or
        raised), so nothing of the run outlives its result in a
        reference cycle.
        """
        runtime = self.runtime(spec, tracer)
        try:
            return runtime.run()
        finally:
            runtime.env.close()


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------

EXECUTORS: Dict[str, Callable[[RunSpec, RunBuilder], Dict[str, Any]]] = {}


def executor(name: str):
    """Class-of-run registration decorator for :data:`EXECUTORS`.

    An executor is called with its spec and the calling worker's
    :class:`RunBuilder`.
    """
    def register(fn):
        EXECUTORS[name] = fn
        return fn

    return register


@executor("single")
def _execute_single(spec: RunSpec, builder: RunBuilder) -> Dict[str, Any]:
    """The generic run: graph x machine x scheduler x scenario x config."""
    tracer = build_tracer(spec.params)
    result = builder.run(spec, tracer)
    metrics = extract_metrics(result, spec.metrics)
    metrics.update(export_trace(tracer, spec.params))
    return metrics


@executor("kmeans_window")
def _execute_kmeans_window(spec: RunSpec, builder) -> Dict[str, Any]:
    """Fig. 9's dynamic K-means with a windowed co-runner on socket 0."""
    from repro.apps.kmeans import KMeansConfig, build_kmeans_graph
    from repro.core.policies.registry import make_scheduler
    from repro.interference.corunner import CorunnerInterference
    from repro.machine.speed import SpeedModel
    from repro.metrics.analysis import iteration_series, place_distribution_counts
    from repro.runtime.executor import SimulatedRuntime
    from repro.sim.environment import Environment

    p = spec.params
    lo, hi = p["window"]
    machine, _ = builder.machine(p.get("machine", "haswell16"))
    socket0 = list(machine.cluster("socket0").core_ids)
    corunner = CorunnerInterference(
        cores=socket0, cpu_share=0.5, memory_demand=1.5, start=None
    )
    hooks = {lo: lambda _i: corunner.activate(), hi: lambda _i: corunner.deactivate()}
    graph = build_kmeans_graph(
        KMeansConfig(iterations=p["iterations"]), iteration_hooks=hooks
    )

    env = Environment()
    speed = SpeedModel(env, machine)
    corunner.install(env, speed, machine)
    tracer = build_tracer(p)
    runtime = SimulatedRuntime(
        env, machine, graph, make_scheduler(p["scheduler"]),
        speed=speed, seed=spec.seed, tracer=tracer,
    )
    try:
        result = runtime.run()
    finally:
        env.close()
    records = result.collector.records
    in_window = [
        r for r in records if lo <= r.metadata.get("iteration", -1) < hi
    ]
    counts = place_distribution_counts(in_window, high_priority_only=False)
    metrics = {
        "iteration_series": [[it, t] for it, t in iteration_series(records)],
        "window_place_counts": [
            [place_to_data(place), n] for place, n in sorted(counts.items())
        ],
        "throughput": result.throughput,
        "makespan": result.makespan,
    }
    metrics.update(export_trace(tracer, p))
    return metrics


@executor("heat_cluster")
def _execute_heat_cluster(spec: RunSpec, _builder) -> Dict[str, Any]:
    """Fig. 10's distributed 2D heat over a multi-node Haswell cluster."""
    from repro.apps.heat import HeatConfig, build_heat_graph_builder
    from repro.distributed.cluster_runtime import DistributedRuntime
    from repro.interference.corunner import CorunnerInterference

    p = spec.params
    if p.get("trace") is not None:
        # The distributed runtime multiplexes several per-node runtimes
        # over one environment; a single-run trace stream would interleave
        # them misleadingly.  Fail loudly instead of silently ignoring.
        raise ConfigurationError(
            "the heat_cluster executor does not support tracing"
        )
    nodes = p["nodes"]
    config = HeatConfig(nodes=nodes, iterations=p["iterations"])
    scenarios = {}
    corunner = p.get("corunner")
    if corunner is not None:
        scenarios[corunner.get("node", 0)] = CorunnerInterference(
            cores=corunner["cores"],
            cpu_share=corunner.get("cpu_share", 0.5),
            memory_demand=corunner.get("memory_demand", 0.0),
        )
    runtime = DistributedRuntime(
        [build_machine(p.get("machine", "haswell_node")) for _ in range(nodes)],
        p["scheduler"],
        build_heat_graph_builder(config),
        scenarios=scenarios,
        seed=spec.seed,
    )
    try:
        result = runtime.run()
    finally:
        runtime.env.close()
    return {
        "throughput": result.throughput,
        "makespan": result.makespan,
        "tasks_completed": result.tasks_completed,
    }


@executor("replicate_batch")
def _execute_replicate_batch(spec: RunSpec, builder) -> Dict[str, Any]:
    """N same-cell replicates in one job (see :mod:`repro.core.batched`)."""
    from repro.core.batched import run_batch_spec

    return run_batch_spec(spec, builder)


def execute_spec(
    spec: RunSpec, builder: Optional[RunBuilder] = None
) -> Dict[str, Any]:
    """Run one spec to completion and return its metrics dict.

    ``builder`` is the calling worker's :class:`RunBuilder`; without one
    the run is built from scratch.
    """
    if spec.kind not in EXECUTORS:
        raise ConfigurationError(f"unknown spec kind {spec.kind!r}")
    return EXECUTORS[spec.kind](spec, builder or RunBuilder())
