"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.interference.corunner import CorunnerInterference
from repro.interference.dvfs_events import DvfsInterference
from repro.machine.dvfs import PeriodicSquareWave

#: The paper's Table 1 evaluation order on the TX2.
TX2_SCHEDULERS: Tuple[str, ...] = (
    "rws", "rwsm-c", "fa", "fam-c", "da", "dam-c", "dam-p",
)

#: Schedulers evaluated on the symmetric Haswell platforms (§5.4 drops the
#: fixed-asymmetry pair because there is no static asymmetry to exploit).
HASWELL_SCHEDULERS: Tuple[str, ...] = (
    "rws", "rwsm-c", "da", "dam-c", "dam-p",
)

#: DAG parallelism sweep of Figs. 4 and 7.
PARALLELISMS: Tuple[int, ...] = (2, 3, 4, 5, 6)


@dataclass(frozen=True)
class ExperimentSettings:
    """Global scaling knobs shared by the harnesses.

    ``scale`` multiplies the paper's task counts / iteration counts;
    DVFS periods shrink by the same factor so every run still covers
    several full cycles.  ``seed`` feeds all stochastic elements.

    ``jobs``, ``cache_dir`` and ``use_cache`` configure the sweep engine
    every harness executes through (see :mod:`repro.sweep`): worker
    process count, result-cache directory, and whether cached results are
    reused at all.  The defaults — serial and uncached — keep direct
    harness calls (tests, notebooks) hermetic; the CLI turns both on.

    ``trace_out`` turns on structured tracing (see :mod:`repro.trace`):
    every run of every sweep exports Chrome-trace JSON + JSONL into
    ``<trace_out>/<label>/`` alongside a ``manifest.json``.  Traced runs
    bypass the result cache.

    ``adaptive`` switches every sweep to variance-aware replication (see
    :mod:`repro.sweep.adaptive`): each cell is re-run over derived seeds
    until the relative CI of its scalar metrics drops below ``ci``,
    bounded by ``min_seeds``/``max_seeds``.  Off by default — the plain
    path is bit-identical to a non-adaptive build.

    ``run_timeout``/``max_attempts`` bound each simulation run's
    wall-clock time and its retry budget after worker crashes or
    timeouts (see ``docs/robustness.md``); ``resume`` replays completed
    cells from the per-figure checkpoint instead of recomputing them
    after an interrupted sweep.

    ``cluster`` picks where the coordinator that every parallel sweep
    runs through listens (see ``docs/cluster.md``): ``"inproc"`` is the
    self-contained default of ``jobs > 1`` (and also sends single-spec
    rounds through its auto-workers), while a ``tcp://host:port``
    address waits for external workers to join.
    Caching, checkpoints and retry budgets behave identically; results
    are bit-identical to a serial run.

    ``batch_runs`` controls batched replicate execution under
    ``adaptive`` (see ``docs/performance.md``): ``"auto"`` packs each
    adaptive round's same-cell replicates into one batched run with no
    width cap, ``"off"`` forces the scalar path, and an integer string
    caps the batch width.  It only takes effect when ``adaptive`` is on
    — the plain path never replicates, so there is nothing to batch.

    ``watch``/``report``/``telemetry_out`` turn on live sweep telemetry
    (see :mod:`repro.telemetry` and ``docs/observability.md``): metrics
    counters, worker heartbeats, ``metrics.jsonl`` + ``metrics.prom``
    next to each sweep's ``manifest.json`` under
    ``<telemetry_out>/<label>/`` (default ``telemetry/``), plus the
    ``--watch`` terminal dashboard and/or the post-run ``report.html``.
    All off by default — results are bit-identical either way.
    """

    scale: float = 0.05
    seed: int = 0
    jobs: int = 1
    cache_dir: Optional[str] = None
    use_cache: bool = False
    trace_out: Optional[str] = None
    adaptive: bool = False
    ci: float = 0.02
    min_seeds: int = 3
    max_seeds: int = 12
    run_timeout: Optional[float] = None
    max_attempts: int = 2
    resume: bool = False
    cluster: Optional[str] = None
    batch_runs: str = "auto"
    watch: bool = False
    report: bool = False
    telemetry_out: Optional[str] = None

    def __post_init__(self) -> None:
        if not (0 < self.scale <= 1.0):
            raise ConfigurationError(f"scale must be in (0, 1], got {self.scale}")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.batch_runs not in ("auto", "off"):
            try:
                width = int(self.batch_runs)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    "batch_runs must be 'auto', 'off' or a positive "
                    f"integer, got {self.batch_runs!r}"
                ) from None
            if width < 1:
                raise ConfigurationError(
                    f"batch_runs must be >= 1, got {self.batch_runs!r}"
                )
        if self.adaptive and self.trace_out:
            raise ConfigurationError(
                "adaptive replication and tracing are mutually exclusive "
                "(a trace captures one concrete run, not a seed average)"
            )
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ConfigurationError(
                f"run_timeout must be > 0 or None, got {self.run_timeout}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.cluster is not None and self.cluster != "inproc":
            from repro.cluster.comm import ClusterError, parse_address

            try:
                parse_address(self.cluster)
            except ClusterError:
                raise ConfigurationError(
                    "cluster must be 'inproc' or tcp://host:port, got "
                    f"{self.cluster!r}"
                ) from None

    @property
    def telemetry_enabled(self) -> bool:
        """Whether sweeps run with live telemetry recording on."""
        return self.watch or self.report or self.telemetry_out is not None

    def adaptive_policy(self):
        """The :class:`~repro.sweep.adaptive.AdaptivePolicy` in force.

        ``None`` when adaptive replication is off — the sweep funnel
        routes through the plain (bit-identical) path.
        """
        if not self.adaptive:
            return None
        from repro.sweep import AdaptivePolicy

        return AdaptivePolicy(
            ci=self.ci, min_seeds=self.min_seeds, max_seeds=self.max_seeds
        )

    def task_count(self, paper_total: int, parallelism: int) -> int:
        return max(parallelism * 10, int(paper_total * self.scale))

    def dvfs_wave(self) -> PeriodicSquareWave:
        """The §5.2 square wave, period scaled with the workload.

        The half-period never drops below 0.5 s: each phase must stay long
        relative to task durations (milliseconds) and the PTT's adaptation
        horizon (a handful of samples), as in the paper's 5 s phases.
        """
        return PeriodicSquareWave(
            high_scale=1.0,
            low_scale=345.0 / 2035.0,
            half_period=max(0.5, 5.0 * self.scale),
        )

    def dvfs_task_count(self, kernel: str, parallelism: int) -> int:
        """Task count for the DVFS sweep: scaled, but floored so the run
        spans at least ~2 full DVFS periods at typical throughputs."""
        floors = {"matmul": 6000, "copy": 3000, "stencil": 2000}
        from repro.apps.synthetic import PAPER_TASK_COUNTS

        return max(
            floors.get(kernel, 3000),
            self.task_count(PAPER_TASK_COUNTS[kernel], parallelism),
        )

    def iterations(self, paper_iterations: int) -> int:
        return max(10, int(paper_iterations * max(self.scale, 10 / paper_iterations)))


def _spec_trace_label(spec, index: int) -> str:
    """Unique, human-readable file stem for one traced spec."""
    parts = [str(spec.tags[k]) for k in sorted(spec.tags)]
    suffix = "-".join(parts) if parts else spec.kind
    return f"{index:03d}-{suffix}"


def sweep(specs, settings: ExperimentSettings, label: str):
    """Execute a harness's :class:`~repro.sweep.spec.RunSpec` list.

    All figure harnesses funnel through here so one settings object
    controls parallelism and caching everywhere.  Returns one metrics
    dict per spec, in order.  Progress lines are suppressed for plain
    serial, uncached runs (the test/notebook default).

    When ``settings.trace_out`` is set, every spec gains a ``trace``
    params entry routing its event stream to
    ``<trace_out>/<label>/<index>-<tags>.{chrome.json,jsonl}`` and the
    sweep writes a run manifest next to the exports.

    With telemetry on (``settings.watch`` / ``settings.report`` /
    ``settings.telemetry_out``) the sweep additionally records live
    metrics and worker heartbeats, writes ``metrics.jsonl`` +
    ``metrics.prom`` + ``manifest.json`` under
    ``<telemetry_out>/<label>/``, and — for ``report`` — renders
    ``report.html`` there after the run.
    """
    import os.path
    from dataclasses import replace

    from repro.sweep import SweepRunner

    manifest_dir = None
    if settings.trace_out:
        out_dir = os.path.join(settings.trace_out, label)
        manifest_dir = out_dir
        specs = [
            replace(
                spec,
                params={
                    **dict(spec.params),
                    "trace": {
                        "out_dir": out_dir,
                        "label": _spec_trace_label(spec, i),
                    },
                },
            )
            for i, spec in enumerate(specs)
        ]
    telemetry = None
    if settings.telemetry_enabled:
        from repro.telemetry import Telemetry

        if manifest_dir is None:
            manifest_dir = os.path.join(
                settings.telemetry_out or "telemetry", label
            )
        telemetry = Telemetry(label=label, enabled=True, out_dir=manifest_dir)
    runner = SweepRunner(
        jobs=settings.jobs,
        cache_dir=settings.cache_dir,
        use_cache=settings.use_cache,
        label=label,
        progress=settings.jobs > 1 or settings.use_cache
        or settings.telemetry_enabled,
        manifest_dir=manifest_dir,
        timeout=settings.run_timeout,
        max_attempts=settings.max_attempts,
        resume=settings.resume,
        cluster=settings.cluster,
        batch_runs=settings.batch_runs,
        telemetry=telemetry,
        watch=settings.watch,
    )
    try:
        results = runner.run_adaptive(specs, settings.adaptive_policy())
    finally:
        runner.close()
    if settings.report and manifest_dir is not None:
        from repro.telemetry.report import write_report

        path = write_report(manifest_dir, title=label)
        runner._log(f"report written to {path}")
    return results


def tx2_corunner(kernel_name: str) -> CorunnerInterference:
    """The §5.1 co-runner on Denver core 0: CPU-interfering matmul chain
    for matmul/stencil DAGs, memory-interfering copy chain for copy."""
    if kernel_name == "copy":
        return CorunnerInterference.copy_chain([0])
    return CorunnerInterference.matmul_chain([0])


def tx2_dvfs(settings: ExperimentSettings) -> DvfsInterference:
    """The §5.2 DVFS scenario on the Denver cluster."""
    return DvfsInterference(cores=(0, 1), wave=settings.dvfs_wave())


def speedup(numerator: float, denominator: float) -> float:
    """Throughput ratio with a guard against non-positive baselines."""
    if denominator <= 0:
        raise ConfigurationError("cannot compute speedup over non-positive base")
    return numerator / denominator
