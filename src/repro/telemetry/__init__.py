"""Live sweep telemetry: metrics, heartbeats, dashboard, reports.

``repro.telemetry`` is the observability layer of the sweep/runtime tier
(PR 2's :mod:`repro.trace` covers the *inside* of one simulated run; this
package covers the machinery that executes many runs).  One
:class:`Telemetry` hub per sweep owns:

* a :class:`~repro.telemetry.registry.MetricsRegistry` (counters,
  gauges, histograms — zero-overhead-when-off, bit-identity preserved);
* a :class:`~repro.telemetry.heartbeat.WorkerTable` — the live model of
  every worker slot, fed by the cluster coordinator from its workers'
  lease starts, results and heartbeats;
* the structured :class:`~repro.telemetry.progress.ProgressEmitter`
  behind every ``[sweep:<label>]`` line;
* one **snapshot API** (:meth:`Telemetry.snapshot`) that both
  front-ends consume: the ``--watch`` terminal dashboard
  (:mod:`repro.telemetry.dashboard`) and the post-run HTML report
  (:mod:`repro.telemetry.report`);
* periodic ``metrics.jsonl`` snapshot lines plus a final
  ``metrics.prom`` Prometheus exposition, written next to
  ``manifest.json`` so CI can trend them.

See ``docs/observability.md`` ("Live sweep telemetry") for the metric
name catalogue and usage.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.telemetry.heartbeat import (
    DEFAULT_INTERVAL,
    WorkerTable,
    WorkerView,
    straggler_after,
)
from repro.telemetry.progress import ProgressEmitter
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
)

#: File names written next to ``manifest.json`` when telemetry is on.
METRICS_JSONL = "metrics.jsonl"
METRICS_PROM = "metrics.prom"


def _strip_series(metrics: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """A snapshot copy without histogram ring buffers (for periodic
    JSONL lines, which would otherwise re-serialize the full series
    every flush — the final snapshot keeps them)."""
    out: Dict[str, Any] = {}
    for name, entry in metrics.items():
        if entry.get("type") == "histogram":
            entry = {k: v for k, v in entry.items() if k != "series"}
        out[name] = entry
    return out


class Telemetry:
    """One sweep's live telemetry: registry + workers + progress + files.

    Parameters
    ----------
    label:
        Sweep label (figure name) stamped into snapshots.
    enabled:
        Master switch.  Off (default): the registry is the shared
        :data:`~repro.telemetry.registry.NULL_REGISTRY`, snapshots are
        skeletal and nothing is written — the zero-overhead contract.
    out_dir:
        When set (and enabled), periodic snapshots append to
        ``<out_dir>/metrics.jsonl`` and :meth:`finalize` writes
        ``<out_dir>/metrics.prom``.
    flush_interval:
        Minimum seconds between periodic JSONL snapshot lines.
    heartbeat_interval:
        Seconds between worker heartbeat messages (the coordinator
        sends it to each worker when it joins).
    """

    def __init__(
        self,
        label: str = "sweep",
        enabled: bool = False,
        out_dir: Optional[os.PathLike] = None,
        flush_interval: float = 1.0,
        heartbeat_interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.label = label
        self.enabled = enabled
        self.registry: MetricsRegistry = (
            MetricsRegistry() if enabled else NULL_REGISTRY
        )
        self.workers = WorkerTable()
        self.out_dir = Path(out_dir) if out_dir else None
        self.flush_interval = flush_interval
        self.heartbeat_interval = heartbeat_interval
        #: Bound by the sweep runner so snapshots can carry recent lines.
        self.progress_emitter: Optional[ProgressEmitter] = None
        self.total = 0
        self.done = 0
        self.eta: Optional[float] = None
        self._t0 = time.monotonic()
        self._last_flush = -float("inf")
        self._flushed_lines = 0

    # -- progress -------------------------------------------------------
    def now(self) -> float:
        return time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    def set_progress(
        self, total: int, done: int, eta: Optional[float] = None
    ) -> None:
        self.total = total
        self.done = done
        self.eta = eta

    # -- snapshot API ---------------------------------------------------
    def snapshot(self, include_series: bool = True) -> Dict[str, Any]:
        """JSON-ready view of the whole sweep at this instant.

        The single source both front-ends read: progress counts and ETA,
        per-worker rows (state, current spec, attempt, wall time,
        heartbeat age, straggler flag), straggler total, recent progress
        lines, and the full metrics registry.
        """
        now = time.monotonic()
        metrics = self.registry.snapshot()
        if not include_series:
            metrics = _strip_series(metrics)
        emitter = self.progress_emitter
        return {
            "t": round(now - self._t0, 6),
            "label": self.label,
            "progress": {
                "total": self.total,
                "done": self.done,
                "eta": self.eta,
                "elapsed": round(now - self._t0, 6),
            },
            "workers": self.workers.snapshot(now),
            "stragglers": self.workers.stragglers_flagged,
            "log": [
                {"t": round(t, 3), "kind": kind, "line": line}
                for t, kind, line in (emitter.tail(5) if emitter else [])
            ],
            "metrics": metrics,
        }

    # -- persistence ----------------------------------------------------
    def flush(self, force: bool = False) -> bool:
        """Append a snapshot line to ``metrics.jsonl`` (throttled)."""
        if not self.enabled or self.out_dir is None:
            return False
        now = time.monotonic()
        if not force and now - self._last_flush < self.flush_interval:
            return False
        self._last_flush = now
        self.out_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            self.snapshot(include_series=force), sort_keys=True
        )
        with open(
            self.out_dir / METRICS_JSONL, "a", encoding="utf-8"
        ) as fh:
            fh.write(line + "\n")
        self._flushed_lines += 1
        return True

    def begin(self) -> None:
        """Start-of-sweep: truncate any stale snapshot stream."""
        if not self.enabled or self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        try:
            (self.out_dir / METRICS_JSONL).unlink()
        except OSError:
            pass
        self._flushed_lines = 0

    def finalize(self) -> None:
        """End-of-sweep: final JSONL snapshot + Prometheus exposition."""
        if not self.enabled or self.out_dir is None:
            return
        from repro.telemetry.prom import write_prometheus

        self.flush(force=True)
        write_prometheus(
            self.out_dir / METRICS_PROM, self.registry.snapshot()
        )


#: Shared disabled hub — the default for runners constructed without
#: telemetry, so call sites never need a None check.
NULL_TELEMETRY = Telemetry(enabled=False)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_INTERVAL",
    "Gauge",
    "Histogram",
    "METRICS_JSONL",
    "METRICS_PROM",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NullRegistry",
    "ProgressEmitter",
    "Telemetry",
    "WorkerTable",
    "WorkerView",
    "straggler_after",
]
