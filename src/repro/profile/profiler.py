"""The deterministic run profiler: phases + cProfile + flamegraph.

:class:`Profiler.run` executes a callable under

* a :class:`~repro.profile.phases.PhaseTimer` (installed process-wide,
  so every runtime / speed model / workload builder constructed inside
  the call attributes its wall time to the dag-build / sim-loop /
  policy-search / speed-retime / metrics buckets, and the cyclic garbage
  collector's pauses to ``gc``), and
* optionally ``cProfile`` (deterministic tracing), from which per-
  function hotspots and a collapsed-stack flamegraph are derived.

cProfile's tracing slows everything roughly uniformly, so the phase
*fractions* of a traced run stay meaningful while the absolute seconds
are inflated; pass ``cprofile=False`` for honest absolute phase timings
(what ``BENCH_profile.json`` records).
"""

from __future__ import annotations

import cProfile
import json
import pstats
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.profile.flamegraph import collapse_stats, validate_collapsed, write_collapsed
from repro.profile.phases import PhaseTimer, phase_accounting


@dataclass
class ProfileReport:
    """Everything one profiled invocation produced."""

    label: str
    wall: float
    breakdown: Dict[str, object]
    #: ``(function label, calls, tottime, cumtime)`` rows, tottime-sorted.
    top: List[tuple] = field(default_factory=list)
    collapsed: List[str] = field(default_factory=list)
    _stats: Optional[pstats.Stats] = None

    def render(self, top_n: int = 15) -> str:
        """Human-readable phase table plus the hottest functions."""
        lines = [f"profile: {self.label} — wall {self.wall:.3f}s"]
        phases = self.breakdown.get("phases", {})
        if phases:
            width = max(len(name) for name in phases)
            lines.append(f"  {'phase'.ljust(width)}  seconds   share  enters")
            for name, row in phases.items():
                lines.append(
                    f"  {name.ljust(width)}  {row['seconds']:7.3f}  "
                    f"{row['fraction']:5.1%}  {row['enters']:6d}"
                )
        notes = self.breakdown.get("notes")
        if notes:
            lines.append(f"  notes: {json.dumps(notes, sort_keys=True)}")
        if self.top:
            lines.append(f"  top {min(top_n, len(self.top))} by own time:")
            for label, calls, tottime, cumtime in self.top[:top_n]:
                lines.append(
                    f"    {tottime:8.4f}s own {cumtime:8.4f}s cum "
                    f"{calls:>8d}x  {label}"
                )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "wall": self.wall,
            "breakdown": self.breakdown,
            "top": [list(row) for row in self.top[:40]],
        }

    def write(self, out_dir) -> Dict[str, str]:
        """Write ``phases.json`` / ``profile.collapsed`` / ``profile.pstats``.

        Returns the paths written, keyed by artifact kind.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written: Dict[str, str] = {}
        phases_path = out / "phases.json"
        with open(phases_path, "w") as handle:
            json.dump(self.to_json(), handle, indent=1, sort_keys=True)
        written["phases"] = str(phases_path)
        if self.collapsed:
            collapsed_path = out / "profile.collapsed"
            write_collapsed(collapsed_path, self.collapsed)
            written["collapsed"] = str(collapsed_path)
        if self._stats is not None:
            pstats_path = out / "profile.pstats"
            self._stats.dump_stats(str(pstats_path))
            written["pstats"] = str(pstats_path)
        return written


class Profiler:
    """Profile one callable; see the module docstring for the layers."""

    def __init__(self, cprofile: bool = True) -> None:
        self.cprofile = bool(cprofile)

    def run(
        self, fn: Callable, *args, label: str = "run", **kwargs
    ) -> tuple:
        """Execute ``fn(*args, **kwargs)`` profiled.

        Returns ``(result, ProfileReport)``.  The phase timer is active
        for exactly the duration of the call; nested profiling is not
        supported (the timer is process-global).
        """
        timer = PhaseTimer()
        profile = cProfile.Profile() if self.cprofile else None
        with phase_accounting(timer):
            start = perf_counter()
            if profile is not None:
                result = profile.runcall(fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            wall = perf_counter() - start
        from repro.graph.templates import template_cache_stats

        stats_now = template_cache_stats()
        if stats_now["hits"] or stats_now["misses"]:
            timer.note("dag_templates", stats_now)
        report = ProfileReport(
            label=label, wall=wall, breakdown=timer.breakdown(wall)
        )
        if profile is not None:
            stats = pstats.Stats(profile)
            report._stats = stats
            report.top = _top_functions(stats.stats)
            report.collapsed = collapse_stats(stats.stats)
            validate_collapsed(report.collapsed)
        return result, report


def _top_functions(stats: Dict) -> List[tuple]:
    """``(label, calls, tottime, cumtime)`` rows sorted by own time."""
    from repro.profile.flamegraph import frame_label

    rows = [
        (frame_label(func), nc, tt, ct)
        for func, (_cc, nc, tt, ct, _callers) in stats.items()
    ]
    rows.sort(key=lambda row: row[2], reverse=True)
    return rows
