"""The parallel sweep engine with a content-addressed result cache.

:class:`SweepRunner` executes a list of :class:`RunSpec`\\ s and returns
their metric dicts in input order.  Identical specs are executed once;
results are looked up in (and written back to) an on-disk JSON cache keyed
by the spec's content hash — which includes the package version, so a
version bump invalidates everything.  Misses run in this process when
one worker suffices; otherwise they fan out through the
:mod:`repro.cluster` coordinator, which leases them to its own
auto-workers (worker processes it forks) or to workers that joined
an explicit address.  Because every run is a pure function of its spec
(each worker builds its own environment and RNGs from the spec's
seed), parallel results are bit-identical to serial ones regardless
of scheduling order.

Two throughput layers sit on top of the plain fan-out:

* **Predictive dispatch** — a persistent :class:`~repro.sweep.cost.CostModel`
  learns per-spec wall times and orders submission longest-first, so
  the slowest run never starts last.  Advisory only: submission order
  cannot change any result (results are keyed by content hash).
* **Adaptive replication** (:meth:`SweepRunner.run_adaptive`) — replicate
  each cell across derived seeds until the confidence interval of its
  scalar metrics is tighter than the policy's target, instead of paying a
  fixed worst-case seed count everywhere.

And one robustness layer underneath (see ``docs/robustness.md``):

* a worker process that **crashes** (segfault, OOM-kill,
  ``os._exit``) or blows a per-run wall-clock **timeout** is reaped and
  replaced, and its spec retried with exponential backoff, up to
  ``max_attempts`` (the coordinator's retry budget);
* a spec whose execution raises is a *deterministic* failure — it is
  captured once (no retry) as an **error result**
  ``{"error": {"type", "message", "attempts", "kind"}}`` in place of its
  metrics, so one broken cell never aborts the sweep;
* error results are never cached or checkpointed, and they are recorded
  per run in ``manifest.json``;
* successful runs append to a per-label **checkpoint** (JSONL under
  ``<cache_dir>/checkpoints/``); ``resume=True`` replays checkpointed
  cells without recomputing them — the recovery path when a sweep
  process itself died mid-flight.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.profile.phases import phase_scope
from repro.telemetry import ProgressEmitter, Telemetry
from repro.sweep.adaptive import (
    ADAPTIVE_KEY,
    AdaptivePolicy,
    aggregate_replicates,
    converged,
    replicate_spec,
    scalar_accumulators,
)
from repro.sweep.cost import COST_MODEL_FILE, CostModel
from repro.sweep.registry import RunBuilder, execute_spec
from repro.sweep.spec import RunSpec, identity_key

#: Default cache location; overridable per-runner or via the environment.
DEFAULT_CACHE_DIR = "~/.cache/repro-sweeps"

_CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"

#: Metrics-dict key that marks a captured per-spec failure.
ERROR_KEY = "error"


def _parse_batch_runs(value) -> Optional[int]:
    """Normalize a ``batch_runs`` knob into an internal width cap.

    ``"off"``/``None``/``1`` disable batching (returns ``None``);
    ``"auto"`` batches with unlimited width (returns ``0``); an integer
    ``N >= 2`` caps each batch at ``N`` replicates.
    """
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "off":
            return None
        if text == "auto":
            return 0
        try:
            value = int(text)
        except ValueError:
            raise ConfigurationError(
                f"batch_runs must be 'auto', 'off' or an integer >= 1, "
                f"got {value!r}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"batch_runs must be 'auto', 'off' or an integer >= 1, "
            f"got {value!r}"
        )
    if value < 1:
        raise ConfigurationError(
            f"batch_runs must be >= 1 when numeric, got {value}"
        )
    return None if value == 1 else value


def default_cache_dir() -> Path:
    """The result-cache directory honouring ``$REPRO_SWEEP_CACHE``."""
    return Path(os.environ.get(_CACHE_ENV_VAR, DEFAULT_CACHE_DIR)).expanduser()


def is_error_result(metrics: Any) -> bool:
    """Whether a sweep result is a captured failure instead of metrics.

    Failed specs resolve to ``{"error": {"type", "message", "attempts",
    "kind"}}`` where ``kind`` is ``"exception"`` (the run raised —
    deterministic, not retried), ``"crash"`` (the worker process died) or
    ``"timeout"`` (the run blew the per-run wall-clock budget).
    """
    return isinstance(metrics, dict) and isinstance(metrics.get(ERROR_KEY), dict)


def _error_result(
    etype: str, message: str, attempts: int, kind: str
) -> Dict[str, Any]:
    return {
        ERROR_KEY: {
            "type": etype,
            "message": message,
            "attempts": attempts,
            "kind": kind,
        }
    }


@dataclass
class SweepStats:
    """Bookkeeping of one :meth:`SweepRunner.run` call."""

    label: str
    specs: int = 0
    unique: int = 0
    hits: int = 0
    executed: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    #: Adaptive replication only: distinct cells, replicates run beyond
    #: the per-cell minimum, and replicates avoided against the per-cell
    #: maximum.  All zero for plain sweeps.
    cells: int = 0
    seeds_added: int = 0
    seeds_saved: int = 0
    #: Robustness counters: specs that ended as error results, retry
    #: re-executions after worker crashes/timeouts, per-run timeouts
    #: observed, and cells replayed from a checkpoint under ``resume``.
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    resumed: int = 0
    #: Checkpoint lines skipped under ``resume`` because their cache key
    #: no longer matches the recorded identity (stale version or
    #: tampering) — see ``docs/robustness.md``.
    resumed_stale: int = 0
    #: Specs (replicates) that exhausted their retry budget on
    #: infrastructure failures; the CLI maps any of these to exit code 4.
    exhausted: int = 0
    #: Batched replication (see :mod:`repro.core.batched`): batch jobs
    #: submitted and replicates executed inside them.  ``seeds_added``
    #: and ``executed`` always count *replicates*, never batches.
    batches: int = 0
    batched_runs: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.unique if self.unique else 0.0

    def summary(self) -> str:
        text = (
            f"{self.specs} runs ({self.unique} unique): "
            f"{self.hits} cached, {self.executed} executed on "
            f"{self.jobs} worker{'s' if self.jobs != 1 else ''} "
            f"in {self.elapsed:.1f}s (hit rate {self.hit_rate:.0%})"
        )
        if self.resumed:
            text += f"; {self.resumed} resumed from checkpoint"
        if self.resumed_stale:
            text += f"; {self.resumed_stale} stale checkpoint lines skipped"
        if self.failures or self.retries or self.timeouts:
            text += (
                f"; robustness: {self.failures} failed, "
                f"{self.retries} retried, {self.timeouts} timed out"
            )
            if self.exhausted:
                text += f", {self.exhausted} exhausted retries"
        if self.cells:
            text += (
                f"; adaptive: {self.cells} cells, "
                f"+{self.seeds_added} seeds grown, "
                f"{self.seeds_saved} seeds saved"
            )
        if self.batches:
            text += (
                f"; batched: {self.batched_runs} replicates in "
                f"{self.batches} batch{'es' if self.batches != 1 else ''}"
            )
        return text

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (feeds the sweep manifest)."""
        return {
            "label": self.label,
            "specs": self.specs,
            "unique": self.unique,
            "hits": self.hits,
            "executed": self.executed,
            "hit_rate": self.hit_rate,
            "jobs": self.jobs,
            "elapsed": self.elapsed,
            "cells": self.cells,
            "seeds_added": self.seeds_added,
            "seeds_saved": self.seeds_saved,
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "resumed": self.resumed,
            "resumed_stale": self.resumed_stale,
            "exhausted": self.exhausted,
            "batches": self.batches,
            "batched_runs": self.batched_runs,
        }


#: Stats of completed sweeps, drained by the CLI for per-figure summaries.
_STATS_LOG: List[SweepStats] = []


def pop_stats() -> List[SweepStats]:
    """Return and clear the stats accumulated since the last call."""
    drained = list(_STATS_LOG)
    _STATS_LOG.clear()
    return drained


def _is_traced(spec: RunSpec) -> bool:
    """Whether the spec requests tracing (always bypasses the cache).

    The trace config already alters the cache key (it lives in
    ``params``), but a traced run's side effects — the exported files —
    must be regenerated even when its metrics were cached, so traced
    specs skip the cache (and the checkpoint) entirely.
    """
    return spec.params.get("trace") is not None


@dataclass
class _Job:
    """One unique spec to execute, with the attempts it has used."""

    key: str
    spec: RunSpec
    attempts: int = 0


@dataclass
class _BatchStats:
    """Outcome counters of one :meth:`SweepRunner._execute_unique` call."""

    hits: int = 0
    resumed: int = 0
    failures: int = 0
    retries: int = 0
    timeouts: int = 0
    exhausted: int = 0
    workers: int = 0
    batches: int = 0
    batched_runs: int = 0


class SweepRunner:
    """Fans :class:`RunSpec` lists out over processes, with caching.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``.  A round
        with one spec to execute, or ``jobs=1``, runs in this process
        unless a ``timeout`` is set, which needs a worker process to
        enforce.  Otherwise the round goes through the cluster
        coordinator with ``min(jobs, pending)`` auto-workers: worker
        processes the coordinator forks and owns, each running one lease
        at a time; the first such round of a run()/run_adaptive() call
        starts them, later rounds reuse them (adding more if a round
        needs them), and the call stops and reaps them before it
        returns.
    cache_dir:
        Result-cache directory; default ``~/.cache/repro-sweeps`` (or
        ``$REPRO_SWEEP_CACHE``).
    use_cache:
        When False, neither reads nor writes the cache (nor persists the
        cost model — predictions still order dispatch in-memory).
    label:
        Name used in progress lines, stats and the checkpoint file name
        (e.g. the figure name).
    progress:
        Emit ``[sweep:<label>] ...`` progress lines on stderr.
    manifest_dir:
        When set, :meth:`run` writes ``manifest.json`` there: one entry
        per spec with its cache key, kind, tags, seed, package version,
        per-run wall time, attempt count, whether it was served from the
        cache/checkpoint and any captured error, plus the sweep's
        :class:`SweepStats`.
    timeout:
        Per-run wall-clock budget in seconds; the coordinator kills the
        worker process of a run past it and retries the run.  ``None``
        (default) never times runs out.
    max_attempts:
        Total attempts per spec for *infrastructure* failures (worker
        crash or timeout); past the budget the spec resolves to an error
        result.  In-run exceptions are deterministic and never retried.
    retry_backoff:
        Base wall-clock delay before re-dispatching a crashed/timed-out
        spec; attempt ``n`` waits ``retry_backoff * 2**(n-1)`` seconds.
    resume:
        Replay this label's checkpoint: previously-completed cells are
        served from ``<cache_dir>/checkpoints/<label>.jsonl`` instead of
        being recomputed.  Without ``resume`` the checkpoint is started
        afresh on each :meth:`run`.
    batch_runs:
        Batched replicate execution inside :meth:`run_adaptive` (see
        :mod:`repro.core.batched`): ``"auto"`` (default) packs each
        adaptive round's pending same-cell replicates into one batched
        run, ``"off"`` keeps every replicate scalar, and an integer
        ``N`` caps the batch width.  Cells that cannot batch (faults,
        unkeyable kernels, non-``single`` executors, traced runs) fall
        back to scalar execution; plain :meth:`run` never batches.
        Per-replicate metrics, cache entries and checkpoints are
        bit-identical either way.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` hub to record into.  When
        omitted, a per-runner *disabled* hub is used — metric updates hit
        shared no-op objects and nothing is written (the zero-overhead
        contract; results are bit-identical either way).  When the hub is
        enabled, the sweep maintains live counters/gauges/histograms, a
        per-worker heartbeat table (see ``docs/observability.md``), and
        writes ``metrics.jsonl`` + ``metrics.prom`` next to the manifest.
    watch:
        Render the live terminal dashboard (ANSI, stderr) while the
        sweep runs.  Implies nothing about ``telemetry`` — harnesses
        enable both together.
    cluster:
        Where the coordinator listens (see ``docs/cluster.md``).
        ``None`` and ``"inproc"`` are the same: an automatic in-process
        address served by the auto-workers described under ``jobs``,
        except that ``"inproc"`` sends even a one-spec round through
        them.  An explicit ``inproc://name`` or ``tcp://host:port``
        address listens there and waits for external workers
        (``python -m repro.cluster.worker --connect ...``) to join.
        Caching, checkpointing, ``resume`` and retry budgets work
        identically; results are bit-identical to a serial run.
    lease_timeout / liveness_timeout:
        Cluster-only overrides for the coordinator's lease-expiry and
        worker-silence budgets (see
        :class:`~repro.cluster.coordinator.ClusterCoordinator`).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        label: str = "sweep",
        progress: bool = True,
        manifest_dir: Optional[os.PathLike] = None,
        timeout: Optional[float] = None,
        max_attempts: int = 2,
        retry_backoff: float = 0.5,
        resume: bool = False,
        batch_runs="auto",
        telemetry: Optional[Telemetry] = None,
        watch: bool = False,
        cluster: Optional[str] = None,
        lease_timeout: Optional[float] = None,
        liveness_timeout: Optional[float] = None,
    ) -> None:
        self.jobs = os.cpu_count() or 1 if jobs is None else int(jobs)
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(
                f"timeout must be > 0 or None, got {timeout}"
            )
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.use_cache = use_cache
        self.label = label
        self.progress = progress
        self.manifest_dir = Path(manifest_dir) if manifest_dir else None
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.resume = resume
        self.cluster = cluster
        self.lease_timeout = lease_timeout
        self.liveness_timeout = liveness_timeout
        self._coordinator = None
        self._resumed_stale = 0
        self.last_stats: Optional[SweepStats] = None
        self.cost_model = CostModel(
            self.cache_dir / COST_MODEL_FILE if use_cache else None
        )
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(label=label, enabled=False)
        )
        if self.telemetry.out_dir is None and self.manifest_dir is not None:
            self.telemetry.out_dir = self.manifest_dir
        self.watch = watch
        self._dashboard = None
        #: Every ``[sweep:<label>]`` line flows through this emitter; the
        #: dashboard installs itself as its sink while watching.
        self._emitter = ProgressEmitter(label, enabled=progress)
        self.telemetry.progress_emitter = self._emitter
        reg = self.telemetry.registry
        self._m_specs = reg.counter(
            "sweep_specs_total", "Specs submitted to the sweep runner"
        )
        self._m_cache_hits = reg.counter(
            "sweep_cache_hits_total",
            "Unique specs served from the result cache",
        )
        self._m_cache_misses = reg.counter(
            "sweep_cache_misses_total",
            "Unique specs that had to execute (no cache/checkpoint entry)",
        )
        self._m_resumed = reg.counter(
            "sweep_resumed_total",
            "Unique specs replayed from the resume checkpoint",
        )
        self._m_runs_started = reg.counter(
            "sweep_runs_started_total",
            "Run assignments dispatched (retries re-count)",
        )
        self._m_runs_finished = reg.counter(
            "sweep_runs_finished_total",
            "Runs (replicates) that completed successfully",
        )
        self._m_failures = reg.counter(
            "sweep_failures_total", "Specs that resolved to error results"
        )
        self._m_retries = reg.counter(
            "sweep_retries_total",
            "Re-dispatches after worker crashes or timeouts",
        )
        self._m_timeouts = reg.counter(
            "sweep_timeouts_total", "Runs killed by the per-run timeout"
        )
        self._m_stragglers = reg.counter(
            "sweep_stragglers_total",
            "Busy runs flagged past their expected envelope (never killed)",
        )
        self._m_heartbeats = reg.counter(
            "sweep_heartbeats_total", "Worker heartbeat messages received"
        )
        self._m_queue_depth = reg.gauge(
            "sweep_queue_depth", "Specs waiting for a worker (incl. backoff)"
        )
        self._m_workers_busy = reg.gauge(
            "sweep_workers_busy", "Workers currently executing a run"
        )
        self._m_workers_live = reg.gauge(
            "sweep_workers_live", "Worker processes currently alive"
        )
        self._m_run_seconds = reg.histogram(
            "sweep_run_seconds",
            "Per-run wall seconds (batched runs at the replicate marginal)",
        )
        self._m_batch_width = reg.histogram(
            "sweep_batch_width",
            "Replicates packed per batched run",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
        )
        self._m_batch_fallback = reg.counter(
            "sweep_batch_fallback_total",
            "Batches whose harness failed and whose members re-ran scalar",
        )
        self._checkpoint_entries: Optional[Dict[str, Dict[str, Any]]] = None
        self._attempts: Dict[str, int] = {}
        self._sources: Dict[str, str] = {}
        #: Per-spec attempt history for the manifest: one
        #: ``{"attempt", "outcome", "wall"}`` entry per dispatch outcome.
        self._history: Dict[str, List[Dict[str, Any]]] = {}
        #: Batch width cap: None = batching off, 0 = unlimited, N = cap.
        self._batch_cap = _parse_batch_runs(batch_runs)
        #: Pseudo-spec key -> [(replicate key, replicate spec), ...] of
        #: every in-flight batch job, and replicate key -> batch width
        #: for replicates that actually executed batched (manifest).
        self._batch_members: Dict[str, List[Tuple[str, RunSpec]]] = {}
        self._batched_width: Dict[str, int] = {}
        #: Replicate key -> why it did *not* run batched (an eligibility
        #: reason from :func:`repro.core.batched.batch_ineligible_reason`,
        #: "solo-replicate", "batch-failed", or "batching-off"); feeds the
        #: manifest's structured ``batched`` entry.
        self._batch_reason: Dict[str, str] = {}

    # -- cache ----------------------------------------------------------
    def _cache_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _cache_load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._cache_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError):
            # Unreadable or corrupt/truncated JSON: treat as a miss — the
            # run is recomputed and the entry rewritten.
            return None
        if not isinstance(entry, dict) or entry.get("key") != key:
            # Parseable JSON of the wrong shape (or a hash mismatch) is
            # corruption too, not an error.
            return None
        metrics = entry.get("metrics")
        return metrics if isinstance(metrics, dict) else None

    def _store(self, spec: RunSpec, key: str, metrics: Dict[str, Any]) -> None:
        """Commit one result to the cache and the checkpoint.

        Both get the same text: the ``{"key", "identity", "metrics"}``
        entry, encoded once.  The cache file is written to a temporary
        name and renamed into place; the checkpoint gets it as one line.
        Their directories are made by :meth:`_begin_sweep`.
        """
        if not self._checkpoint_active:  # neither store is on
            return
        text = json.dumps(
            {"key": key, "identity": spec.identity(), "metrics": metrics},
            sort_keys=True,
        )
        if self.use_cache:
            path = self._cache_path(key)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        with open(self._checkpoint_path(), "a", encoding="utf-8") as fh:
            fh.write(text + "\n")

    # -- checkpoint (crash-of-the-sweep-itself recovery) -----------------
    @property
    def _checkpoint_active(self) -> bool:
        return self.use_cache or self.resume

    def _checkpoint_path(self) -> Path:
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", self.label) or "sweep"
        return self.cache_dir / "checkpoints" / f"{safe}.jsonl"

    def _load_checkpoint(self) -> Dict[str, Dict[str, Any]]:
        """Parse the label's checkpoint, cutting off a torn final line so
        that the lines this sweep appends start on lines of their own.

        Every line is *validated* before it is trusted: the recorded
        identity must hash back to the recorded cache key, and its
        package version must match the running one.  A line that fails —
        a stale checkpoint from an older version, or a tampered/corrupted
        entry — is skipped and logged (counted in
        ``SweepStats.resumed_stale``) so the cell recomputes instead of
        silently reusing a result the current code would not produce.
        """
        from repro._version import __version__

        entries: Dict[str, Dict[str, Any]] = {}
        stale = 0
        path = self._checkpoint_path()
        try:
            data = path.read_bytes()
        except OSError:
            return entries
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            os.truncate(path, complete)  # a killed sweep's torn write
        for line in data[:complete].decode("utf-8", "replace").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # a corrupt line; skip
            if not isinstance(entry, dict):
                continue
            key = entry.get("key")
            metrics = entry.get("metrics")
            if not (isinstance(key, str) and isinstance(metrics, dict)):
                continue
            identity = entry.get("identity")
            if isinstance(identity, dict):
                if (
                    identity_key(identity) != key
                    or identity.get("version") != __version__
                ):
                    stale += 1
                    self._log(
                        f"checkpoint line for {key[:12]} is stale "
                        f"(recorded version "
                        f"{identity.get('version')!r}); recomputing",
                        kind="retry",
                    )
                    continue
            entries[key] = metrics
        if stale:
            self._log(
                f"skipped {stale} stale checkpoint line(s); the affected "
                "cells will recompute",
                kind="retry",
            )
        self._resumed_stale += stale
        return entries

    def _begin_sweep(self) -> None:
        """Reset per-sweep bookkeeping; start or load the checkpoint."""
        self._attempts = {}
        self._sources = {}
        self._history = {}
        self._batch_members = {}
        self._batched_width = {}
        self._batch_reason = {}
        tele = self.telemetry
        tele.set_progress(0, 0, None)
        tele.begin()
        if self.watch and self._dashboard is None:
            from repro.telemetry.dashboard import Dashboard

            self._dashboard = Dashboard(tele)
        if self._dashboard is not None:
            self._dashboard.open()
        if self.resume:
            if self._checkpoint_entries is None:
                self._checkpoint_entries = self._load_checkpoint()
        elif self._checkpoint_active:
            try:
                self._checkpoint_path().unlink()
            except OSError:
                pass
        if self._checkpoint_active:
            self._checkpoint_path().parent.mkdir(parents=True, exist_ok=True)

    # -- execution ------------------------------------------------------
    def _log(self, message: str, kind: str = "info") -> None:
        self._emitter.emit(message, kind)

    def _tick(
        self,
        queue_depth: int,
        busy: int,
        live: int,
        eta: Optional[float] = None,
    ) -> None:
        """One telemetry heartbeat of the dispatch loop: gauges, progress,
        throttled JSONL flush, dashboard frame."""
        tele = self.telemetry
        self._m_queue_depth.set(queue_depth)
        self._m_workers_busy.set(busy)
        self._m_workers_live.set(live)
        tele.set_progress(tele.total, tele.done, eta)
        tele.flush()
        if self._dashboard is not None:
            self._dashboard.tick()

    def _estimate_eta(
        self, unresolved: Dict[str, RunSpec], workers: int
    ) -> Optional[float]:
        """Predicted seconds to drain the sweep, from the cost EWMAs.

        ``unresolved`` holds the specs not yet resolved; those running
        are read off the WorkerTable's busy rows.  Unknown specs are
        priced at the mean of the known predictions; with no known
        prediction at all there is no estimate.
        """
        now = self.telemetry.now()
        running = {v.key: v for v in self.telemetry.workers.running()}
        preds = [
            self.cost_model.predict(spec)
            for key, spec in unresolved.items()
            if key not in running
        ]
        known = [p for p in preds if p is not None]
        fill = (sum(known) / len(known)) if known else None
        if preds and fill is None:
            return None
        ahead = sum((p if p is not None else fill) for p in preds)
        left = 0.0
        for view in running.values():
            expected = view.expected
            if expected is None:
                expected = fill if fill is not None else 0.0
            left += max(0.0, expected - view.elapsed(now))
        return (ahead + left) / max(workers, 1)

    def _execute_unique(
        self, unique: Dict[str, RunSpec], allow_batching: bool = False
    ) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, float], _BatchStats]:
        """Resolve every unique spec: checkpoint, cache, then fan-out.

        Returns ``(results, walls, batch_stats)``.  Submission order is
        chosen by the cost model (unknown first, then longest-first) but
        results are keyed by content hash, so the order — like the
        completion order — cannot influence any returned value.  Nothing
        is started when every spec is already resolved.

        With ``allow_batching`` (the adaptive path), pending replicates
        of one cell are packed into batched pseudo-runs; their results
        still land under the individual replicate keys.
        """
        results: Dict[str, Dict[str, Any]] = {}
        walls: Dict[str, float] = {}
        batch = _BatchStats()
        if self.resume and self._checkpoint_entries:
            for key, spec in unique.items():
                if _is_traced(spec):
                    continue
                checkpointed = self._checkpoint_entries.get(key)
                if checkpointed is not None:
                    results[key] = checkpointed
                    self._sources[key] = "checkpoint"
                    batch.resumed += 1
        if self.use_cache:
            for key, spec in unique.items():
                if _is_traced(spec) or key in results:
                    continue
                cached = self._cache_load(key)
                if cached is not None:
                    results[key] = cached
                    self._sources[key] = "cache"
        batch.hits = len(results)
        tele = self.telemetry
        tele.total += len(unique)
        tele.done += batch.hits
        self._m_cache_hits.inc(batch.hits - batch.resumed)
        self._m_resumed.inc(batch.resumed)
        pending = [
            (key, spec) for key, spec in unique.items() if key not in results
        ]
        self._m_cache_misses.inc(len(pending))
        planned_batches = planned_reps = 0
        with phase_scope("dispatch"):
            if (
                allow_batching
                and self._batch_cap is not None
                and len(pending) > 1
            ):
                pending, planned_batches, planned_reps = self._plan_batches(
                    pending
                )
            pending = self.cost_model.order(pending)

        workers = min(self.jobs, len(pending))
        batch.workers = workers
        self._log(
            f"{len(unique)} unique: {batch.hits} cached"
            + (f" ({batch.resumed} resumed)" if batch.resumed else "")
            + f", {len(pending)} to execute"
            + (
                f" ({planned_reps} replicates in {planned_batches} batches)"
                if planned_batches
                else ""
            )
            + (f" on {workers} workers" if workers > 1 else "")
        )
        if not pending:
            return results, walls, batch
        if self.cluster is not None or workers > 1 or self.timeout is not None:
            self._run_cluster(pending, results, walls, batch, workers)
        else:
            self._run_inline(pending, results, walls, batch)
        self.cost_model.save()
        return results, walls, batch

    def _plan_batches(
        self, pending: Sequence[Tuple[str, RunSpec]]
    ) -> Tuple[List[Tuple[str, RunSpec]], int, int]:
        """Pack pending same-cell replicates into batch pseudo-jobs.

        Replicates group by cell identity (spec minus seed); groups of
        two or more eligible replicates become one batched run each
        (chunked by the width cap), everything else stays scalar.
        Returns ``(new pending, batches, replicates batched)``.
        """
        from repro.core.batched import (
            batch_group_key,
            batch_ineligible_reason,
            make_batch_spec,
        )

        scalar: List[Tuple[str, RunSpec]] = []
        groups: Dict[str, List[Tuple[str, RunSpec]]] = {}
        order: List[str] = []
        for key, spec in pending:
            reason = batch_ineligible_reason(spec)
            if reason is None:
                group = batch_group_key(spec)
                if group not in groups:
                    groups[group] = []
                    order.append(group)
                groups[group].append((key, spec))
            else:
                self._batch_reason[key] = reason
                scalar.append((key, spec))
        out = scalar
        cap = self._batch_cap if self._batch_cap else len(pending)
        n_batches = n_reps = 0
        for group in order:
            members = groups[group]
            for start in range(0, len(members), cap):
                chunk = members[start:start + cap]
                if len(chunk) < 2:
                    for chunk_key, _chunk_spec in chunk:
                        self._batch_reason[chunk_key] = "solo-replicate"
                    out.extend(chunk)
                    continue
                pseudo = make_batch_spec([spec for _, spec in chunk])
                pseudo_key = pseudo.key()
                self._batch_members[pseudo_key] = chunk
                out.append((pseudo_key, pseudo))
                n_batches += 1
                n_reps += len(chunk)
        return out, n_batches, n_reps

    def _job_width(self, job: _Job) -> int:
        """Replicates inside ``job`` (1 for a scalar spec)."""
        members = self._batch_members.get(job.key)
        return len(members) if members else 1

    def _record_success(
        self,
        job: _Job,
        metrics: Dict[str, Any],
        wall: float,
        results: Dict[str, Dict[str, Any]],
        walls: Dict[str, float],
        batch: _BatchStats,
    ) -> None:
        members = self._batch_members.pop(job.key, None)
        if members is not None:
            self._record_batch_success(
                job, members, metrics, wall, results, walls, batch
            )
            return
        results[job.key] = metrics
        walls[job.key] = wall
        self._attempts[job.key] = job.attempts + 1
        self._sources[job.key] = "executed"
        self._history.setdefault(job.key, []).append(
            {"attempt": job.attempts + 1, "outcome": "ok", "wall": wall}
        )
        self._m_runs_finished.inc()
        self._m_run_seconds.observe(wall)
        self.telemetry.done += 1
        self.cost_model.observe(job.spec, wall)
        if not _is_traced(job.spec):
            self._store(job.spec, job.key, metrics)

    def _record_batch_success(
        self,
        job: _Job,
        members: List[Tuple[str, RunSpec]],
        metrics: Dict[str, Any],
        wall: float,
        results: Dict[str, Dict[str, Any]],
        walls: Dict[str, float],
        batch: _BatchStats,
    ) -> None:
        """Unpack one batched run into per-replicate results.

        Each replicate is cached, checkpointed and recorded under its
        own key exactly as a scalar execution of that spec would be; the
        batch's wall time is attributed at the per-replicate marginal
        and folded into the cost model at that marginal too.
        """
        reps = metrics.get("replicates") if isinstance(metrics, dict) else None
        if not isinstance(reps, list) or len(reps) != len(members):
            reps = [
                {
                    "err": {
                        "type": "SweepBatchError",
                        "message": "malformed batch payload",
                    }
                }
            ] * len(members)
        attempts = job.attempts + 1
        width = len(members)
        marginal = wall / width
        self.cost_model.observe(job.spec, wall)
        batch.batches += 1
        self._m_batch_width.observe(width)
        for (rep_key, rep_spec), payload in zip(members, reps):
            self._attempts[rep_key] = attempts
            self.telemetry.done += 1
            rep_metrics = payload.get("ok") if isinstance(payload, dict) else None
            if rep_metrics is None:
                err = (payload.get("err") or {}) if isinstance(payload, dict) else {}
                etype = err.get("type", "SweepBatchError")
                message = err.get("message", "malformed batch payload")
                results[rep_key] = _error_result(
                    etype, message, attempts, "exception"
                )
                self._sources[rep_key] = "failed"
                self._history.setdefault(rep_key, []).append(
                    {"attempt": attempts, "outcome": "exception", "wall": None}
                )
                batch.failures += 1
                self._m_failures.inc()
                self._log(
                    f"run {rep_key[:12]} failed: {etype}: {message}",
                    kind="fail",
                )
                continue
            results[rep_key] = rep_metrics
            walls[rep_key] = marginal
            self._sources[rep_key] = "executed"
            self._batched_width[rep_key] = width
            self._history.setdefault(rep_key, []).append(
                {"attempt": attempts, "outcome": "ok", "wall": marginal}
            )
            batch.batched_runs += 1
            self._m_runs_finished.inc()
            self._m_run_seconds.observe(marginal)
            self._store(rep_spec, rep_key, rep_metrics)

    def _record_exception(
        self,
        job: _Job,
        err: Dict[str, str],
        results: Dict[str, Dict[str, Any]],
        batch: _BatchStats,
        wall: Optional[float] = None,
    ) -> None:
        """A run that raised: deterministic, captured once, never cached."""
        attempts = job.attempts + 1
        results[job.key] = _error_result(
            err["type"], err["message"], attempts, "exception"
        )
        self._attempts[job.key] = attempts
        self._sources[job.key] = "failed"
        self._history.setdefault(job.key, []).append(
            {"attempt": attempts, "outcome": "exception", "wall": wall}
        )
        batch.failures += 1
        self._m_failures.inc()
        self.telemetry.done += 1
        self._log(
            f"run {job.key[:12]} failed: {err['type']}: {err['message']}",
            kind="fail",
        )

    # -- cluster execution ----------------------------------------------
    def _ensure_coordinator(self, workers: int = 0):
        """The cluster coordinator, created unless one is open, with at
        least ``workers`` registered auto-workers when the address is
        automatic.

        An explicit address keeps its coordinator until :meth:`close`.
        The automatic one and its worker processes live for one
        run()/run_adaptive() call: its first coordinated round creates
        them, later rounds reuse them (topping them up to the round's
        ``workers``), and the call ends with
        :meth:`_stop_cluster_workers`.
        """
        auto = self.cluster in (None, "inproc")
        if self._coordinator is None:
            from repro.cluster.coordinator import ClusterCoordinator

            address = self.cluster
            if auto:
                address = f"inproc://sweep-{self.label}-{id(self):x}"
            self._coordinator = ClusterCoordinator(
                address,
                telemetry=self.telemetry,
                max_attempts=self.max_attempts,
                retry_backoff=self.retry_backoff,
                run_timeout=self.timeout,
                lease_timeout=self.lease_timeout,
                liveness_timeout=self.liveness_timeout,
                heartbeat_interval=self.telemetry.heartbeat_interval,
                # Generous drain: lingers only while reclaimed-but-alive
                # leases are outstanding, so their late duplicates are
                # observed (and suppressed) instead of orphaned.
                drain_timeout=2.0,
                cost_model=self.cost_model,
                log=self._log,
            )
            if not auto:
                self._log(
                    f"cluster: coordinating at {self._coordinator.address} "
                    "(waiting for workers to connect)"
                )
        if auto and workers:
            # Worker processes, so the sweep gets ``workers`` CPUs rather
            # than one shared interpreter lock, and a per-run timeout
            # can kill a run.
            self._coordinator.start_local_workers(workers)
            # Registered before the first dispatch pass, which would
            # otherwise find zero workers and report itself parked.
            self._coordinator.await_workers(workers, timeout=5.0)
        return self._coordinator

    def _run_cluster(
        self,
        pending: Sequence[Tuple[str, RunSpec]],
        results: Dict[str, Dict[str, Any]],
        walls: Dict[str, float],
        batch: _BatchStats,
        workers: int,
    ) -> None:
        """Fan pending specs out over the cluster coordinator.

        Each outcome is recorded *as it commits* (streaming, through the
        coordinator's ``on_resolved`` hook), so a sweep killed
        mid-flight resumes past every committed cell.  A batch pseudo-run
        whose harness fails deterministically falls back to scalar runs
        of its members, as inline.  Every 25th resolution logs an
        ``N/M resolved`` line; with telemetry on, each loop pass
        refreshes the gauges and the ETA.
        """
        coord = self._ensure_coordinator(workers)
        tele = self.telemetry
        unresolved: Dict[str, RunSpec] = dict(pending)
        jobs = [
            (key, spec, self._job_width(_Job(key, spec)))
            for key, spec in pending
        ]
        total, done = len(pending), 0

        def on_resolved(key, out):
            nonlocal total, done
            extras = resolve(key, unresolved.pop(key), out)
            if extras:
                total += len(extras)
                unresolved.update((k, s) for k, s, _width in extras)
            done += 1
            if done % 25 == 0:
                self._log(f"{done}/{total} resolved")
            return extras

        def resolve(key, spec, out):
            job = _Job(key, spec, attempts=max(out.attempts - 1, 0))
            tele.registry.merge(out.snap)
            if out.status == "ok":
                self._record_success(
                    job, out.payload, out.wall, results, walls, batch
                )
                return None
            payload = out.payload or {}
            members = self._batch_members.pop(key, None)
            if out.status == "exception" and members is not None:
                # The batch harness itself failed (per-replicate errors
                # come back inside a successful payload): fall back to
                # scalar runs of every member.
                self._log(
                    f"batch {key[:12]} failed ({payload.get('type')}); "
                    f"falling back to {len(members)} scalar runs"
                )
                self._m_batch_fallback.inc()
                extras = []
                for member_key, member_spec in members:
                    self._batch_reason[member_key] = "batch-failed"
                    extras.append((member_key, member_spec, 1))
                return extras
            if out.status == "exception":
                self._record_exception(
                    job, payload, results, batch, wall=out.wall
                )
                return None
            # Exhausted retry budget: every member resolves to an error
            # result.
            width = len(members) if members else 1
            for rep_key, _rep_spec in members or [(key, spec)]:
                results[rep_key] = _error_result(
                    str(payload.get("type") or "SweepWorkerError"),
                    str(payload.get("message") or "cluster failure"),
                    out.attempts,
                    out.kind,
                )
                self._sources[rep_key] = "failed"
                self._attempts[rep_key] = out.attempts
                self._history.setdefault(rep_key, []).append(
                    {"attempt": out.attempts, "outcome": out.kind,
                     "wall": None}
                )
                batch.failures += 1
                batch.exhausted += 1
            self._m_failures.inc(width)
            tele.done += width
            return None

        def tick(queue_depth, busy, live):
            self._tick(
                queue_depth, busy, live,
                eta=self._estimate_eta(unresolved, live),
            )

        report = coord.execute(
            jobs,
            on_resolved=on_resolved,
            tick=tick if (tele.enabled or self._dashboard) else None,
        )
        batch.retries += report.retries
        batch.timeouts += report.timeouts
        batch.workers = max(report.peak_workers, 1)
        self._m_timeouts.inc(report.timeouts)
        self._m_retries.inc(report.retries)
        self._m_runs_started.inc(report.started)
        self._m_heartbeats.inc(report.heartbeats)
        self._m_stragglers.inc(report.stragglers)

    def _stop_cluster_workers(self) -> None:
        """Close the automatic coordinator; run() and run_adaptive() end
        with this.

        Closing sends each auto-worker its shutdown, joins its process
        with a bound and terminates one still running a lease, which
        only happens when the sweep raised (see
        :meth:`~repro.cluster.coordinator.ClusterCoordinator.close`).
        So every process is reaped before the call returns, inside the
        call's trace span and CPU accounting.
        """
        if self._coordinator is not None and self.cluster in (None, "inproc"):
            self._coordinator.close()
            self._coordinator = None

    def close(self) -> None:
        """Release cluster resources (idempotent)."""
        if self._coordinator is not None:
            self._coordinator.close()
            self._coordinator = None

    def _run_inline(
        self,
        pending: Sequence[Tuple[str, RunSpec]],
        results: Dict[str, Dict[str, Any]],
        walls: Dict[str, float],
        batch: _BatchStats,
    ) -> None:
        """Serial in-process execution (no timeout enforcement).

        Inline runs execute in the parent process, so when telemetry is
        on the hub's own registry is installed for their duration —
        runtime fault counters land directly, no snapshot merge needed.
        """
        from repro.telemetry.registry import install

        tele = self.telemetry
        ident = tele.workers.inline()
        builder = RunBuilder()
        previous = install(tele.registry) if tele.enabled else None
        try:
            queue = deque(pending)
            while queue:
                key, spec = queue.popleft()
                job = _Job(key, spec)
                tele.workers.assign(
                    ident,
                    key,
                    self.label,
                    attempt=1,
                    width=self._job_width(job),
                    now=tele.now(),
                    expected=self.cost_model.predict(spec),
                )
                self._m_runs_started.inc()
                start = time.perf_counter()
                try:
                    metrics = execute_spec(spec, builder)
                except Exception as exc:
                    tele.workers.finish(ident)
                    members = self._batch_members.pop(key, None)
                    if members is not None:
                        # The batch harness itself failed (per-replicate
                        # errors come back inside a successful payload):
                        # fall back to scalar runs of every member.
                        self._log(
                            f"batch {key[:12]} failed "
                            f"({type(exc).__name__}); falling back to "
                            f"{len(members)} scalar runs"
                        )
                        self._m_batch_fallback.inc()
                        for member_key, _member_spec in members:
                            self._batch_reason[member_key] = "batch-failed"
                        queue.extend(members)
                        continue
                    self._record_exception(
                        job,
                        {"type": type(exc).__name__, "message": str(exc)},
                        results,
                        batch,
                        wall=time.perf_counter() - start,
                    )
                    self._tick(len(queue), busy=0, live=1)
                    continue
                tele.workers.finish(ident)
                self._record_success(
                    job, metrics, time.perf_counter() - start, results,
                    walls, batch,
                )
                self._tick(len(queue), busy=0, live=1)
        finally:
            if previous is not None:
                install(previous)

    def run(self, specs: Sequence[RunSpec]) -> List[Dict[str, Any]]:
        """Execute ``specs``; returns one metrics dict per spec, in order.

        A spec that fails (raises, crashes its worker past the retry
        budget, or times out) yields an error result — see
        :func:`is_error_result` — instead of aborting the sweep.
        """
        start = time.perf_counter()
        self._begin_sweep()
        self._m_specs.inc(len(specs))
        keys = [spec.key() for spec in specs]
        unique: Dict[str, RunSpec] = {}
        for key, spec in zip(keys, specs):
            unique.setdefault(key, spec)

        self._log(f"{len(specs)} runs ({len(unique)} unique)")
        try:
            results, walls, batch = self._execute_unique(unique)
        finally:
            self._stop_cluster_workers()

        stats = SweepStats(
            label=self.label,
            specs=len(specs),
            unique=len(unique),
            hits=batch.hits,
            executed=len(unique) - batch.hits,
            jobs=max(batch.workers, 1),
            elapsed=time.perf_counter() - start,
            failures=batch.failures,
            retries=batch.retries,
            timeouts=batch.timeouts,
            resumed=batch.resumed,
            resumed_stale=self._resumed_stale,
            exhausted=batch.exhausted,
            batches=batch.batches,
            batched_runs=batch.batched_runs,
        )
        self._finish(stats)
        if self.manifest_dir is not None:
            self._write_manifest(specs, keys, walls, stats, results)
        return [results[key] for key in keys]

    def run_adaptive(
        self, specs: Sequence[RunSpec], policy: Optional[AdaptivePolicy]
    ) -> List[Dict[str, Any]]:
        """Variance-aware replicated execution of ``specs`` (the *cells*).

        Every distinct cell is replicated over derived seeds
        (:func:`~repro.sweep.adaptive.replicate_spec`): ``min_seeds``
        up front, then ``growth`` more per round while any scalar metric's
        relative CI exceeds ``policy.ci``, up to ``max_seeds``.  Returns
        one *aggregated* metrics dict per input spec — scalar metrics are
        means over replicates, and convergence bookkeeping sits under the
        ``"adaptive"`` key.

        Failed replicates (see :func:`is_error_result`) are excluded from
        aggregation and recorded as ``failed_replicates``; a cell whose
        every replicate failed aggregates to its first error result.

        ``policy=None`` falls back to :meth:`run` (no replication, no
        aggregation — bit-identical to a plain sweep).
        """
        if policy is None:
            return self.run(specs)
        start = time.perf_counter()
        self._begin_sweep()
        self._m_specs.inc(len(specs))
        reg = self.telemetry.registry
        m_rounds = reg.counter(
            "adaptive_rounds_total", "Adaptive replication rounds executed"
        )
        m_unconverged = reg.gauge(
            "adaptive_cells_unconverged",
            "Cells still growing seeds after the latest round",
        )
        m_max_ci = reg.gauge(
            "adaptive_max_relative_ci",
            "Widest relative CI over all cells after the latest round",
        )
        m_seeds_added = reg.counter(
            "adaptive_seeds_added_total",
            "Replicates grown beyond the per-cell minimum",
        )
        m_seeds_saved = reg.counter(
            "adaptive_seeds_saved_total",
            "Replicates avoided against the per-cell maximum",
        )
        m_ci_width = reg.histogram(
            "adaptive_ci_width",
            "Per-cell max relative CI at each convergence check",
            buckets=(0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0),
        )
        keys = [spec.key() for spec in specs]
        cells: Dict[str, RunSpec] = {}
        for key, spec in zip(keys, specs):
            cells.setdefault(key, spec)

        rep_results: Dict[str, List[Dict[str, Any]]] = {k: [] for k in cells}
        manifest_specs: List[RunSpec] = []
        manifest_keys: List[str] = []
        all_walls: Dict[str, float] = {}
        all_results: Dict[str, Dict[str, Any]] = {}
        counts: Dict[str, int] = {key: 0 for key in cells}
        total_hits = total_executed = total_unique = 0
        total_failures = total_retries = total_timeouts = total_resumed = 0
        total_exhausted = 0
        total_batches = total_batched_runs = 0
        max_workers = 0

        self._log(
            f"{len(specs)} cells ({len(cells)} unique), adaptive: "
            f"ci<={policy.ci:g} @ {policy.confidence:.0%}, "
            f"seeds {policy.min_seeds}..{policy.max_seeds}"
        )
        active = list(cells.keys())
        round_no = 0
        try:
            while active:
                batch_specs: Dict[str, RunSpec] = {}
                owners: List[Tuple[str, str]] = []  # (cell key, replicate key)
                for cell_key in active:
                    have = counts[cell_key]
                    target = policy.next_target(have)
                    for rep in range(have, target):
                        rep_spec = replicate_spec(cells[cell_key], rep)
                        rep_key = rep_spec.key()
                        batch_specs[rep_key] = rep_spec
                        owners.append((cell_key, rep_key))
                        manifest_specs.append(rep_spec)
                        manifest_keys.append(rep_key)
                    counts[cell_key] = target
                round_no += 1
                m_rounds.inc()
                self._log(
                    f"round {round_no}: {len(active)} cells unconverged, "
                    f"{len(batch_specs)} replicates"
                )
                results, walls, batch = self._execute_unique(
                    batch_specs, allow_batching=True
                )
                all_walls.update(walls)
                all_results.update(results)
                total_hits += batch.hits
                total_executed += len(batch_specs) - batch.hits
                total_unique += len(batch_specs)
                total_failures += batch.failures
                total_retries += batch.retries
                total_timeouts += batch.timeouts
                total_resumed += batch.resumed
                total_exhausted += batch.exhausted
                total_batches += batch.batches
                total_batched_runs += batch.batched_runs
                max_workers = max(max_workers, batch.workers)
                for cell_key, rep_key in owners:
                    rep_results[cell_key].append(results[rep_key])

                tele = self.telemetry
                still_active = []
                round_max_ci = 0.0
                for cell_key in active:
                    good = [
                        r
                        for r in rep_results[cell_key]
                        if not is_error_result(r)
                    ]
                    accs = None
                    if tele.enabled and good:
                        accs = scalar_accumulators(good)
                        rels = [
                            acc.relative_ci(policy.confidence)
                            for acc in accs.values()
                        ]
                        finite = [
                            r for r in rels if r == r and r != float("inf")
                        ]
                        if finite:
                            cell_ci = max(finite)
                            round_max_ci = max(round_max_ci, cell_ci)
                            m_ci_width.observe(cell_ci)
                    if counts[cell_key] >= policy.max_seeds:
                        continue
                    if not good:
                        # Every replicate failed; more seeds won't fix a
                        # broken cell, so stop growing it.
                        continue
                    if accs is None:
                        accs = scalar_accumulators(good)
                    if not converged(accs, policy):
                        still_active.append(cell_key)
                active = still_active
                m_unconverged.set(len(active))
                if round_max_ci:
                    m_max_ci.set(round_max_ci)
                # One forced snapshot per round so the report can plot CI
                # convergence against elapsed time.
                tele.flush(force=True)
        finally:
            self._stop_cluster_workers()

        aggregated: Dict[str, Dict[str, Any]] = {}
        for key, reps in rep_results.items():
            good = [r for r in reps if not is_error_result(r)]
            if not good:
                aggregated[key] = reps[0]
                continue
            agg = aggregate_replicates(good, policy)
            if len(good) < len(reps):
                agg[ADAPTIVE_KEY]["failed_replicates"] = len(reps) - len(good)
            aggregated[key] = agg
        stats = SweepStats(
            label=self.label,
            specs=len(specs),
            unique=total_unique,
            hits=total_hits,
            executed=total_executed,
            jobs=max(max_workers, 1),
            elapsed=time.perf_counter() - start,
            cells=len(cells),
            seeds_added=sum(
                count - policy.min_seeds for count in counts.values()
            ),
            seeds_saved=sum(
                policy.max_seeds - count for count in counts.values()
            ),
            failures=total_failures,
            retries=total_retries,
            timeouts=total_timeouts,
            resumed=total_resumed,
            resumed_stale=self._resumed_stale,
            exhausted=total_exhausted,
            batches=total_batches,
            batched_runs=total_batched_runs,
        )
        m_seeds_added.inc(stats.seeds_added)
        m_seeds_saved.inc(stats.seeds_saved)
        self._finish(stats)
        if self.manifest_dir is not None:
            self._write_manifest(
                manifest_specs, manifest_keys, all_walls, stats, all_results
            )
        return [aggregated[key] for key in keys]

    def _finish(self, stats: SweepStats) -> None:
        self.last_stats = stats
        _STATS_LOG.append(stats)
        tele = self.telemetry
        tele.set_progress(tele.total, tele.done, 0.0 if tele.total else None)
        if self._dashboard is not None:
            # Final frame, then give stderr back before the summary line.
            self._dashboard.close()
        self._log(stats.summary())
        tele.finalize()

    def _write_manifest(
        self,
        specs: Sequence[RunSpec],
        keys: Sequence[str],
        walls: Dict[str, float],
        stats: Optional[SweepStats] = None,
        results: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> Path:
        """Write ``manifest.json`` describing every run of this sweep."""
        from repro._version import __version__

        entries = []
        for key, spec in zip(keys, specs):
            entry: Dict[str, Any] = {
                "key": key,
                "kind": spec.kind,
                "tags": dict(spec.tags),
                "seed": spec.seed,
                "version": __version__,
                "wall_time": walls.get(key),
                "cached": self._sources.get(key) in (None, "cache", "checkpoint")
                and key not in walls,
                "attempts": self._attempts.get(key, 0),
                "history": self._history.get(key, []),
            }
            # ``batched`` is structured: executed batches carry their
            # width; everything else records *why* it ran scalar
            # ("batching-off" = never considered, e.g. a plain
            # non-adaptive sweep or ``--batch-runs off``).
            width = self._batched_width.get(key)
            if width is not None:
                entry["batched"] = {"batched": True, "width": width}
                entry["batch"] = width
            else:
                entry["batched"] = {
                    "batched": False,
                    "reason": self._batch_reason.get(key, "batching-off"),
                }
            result = (results or {}).get(key)
            if is_error_result(result):
                entry["error"] = result[ERROR_KEY]
            entries.append(entry)
        self.manifest_dir.mkdir(parents=True, exist_ok=True)
        path = self.manifest_dir / "manifest.json"
        payload = {
            "label": self.label,
            "version": __version__,
            "runs": entries,
        }
        if stats is not None:
            payload["stats"] = stats.as_dict()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return path
