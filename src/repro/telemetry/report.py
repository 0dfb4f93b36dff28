"""Post-run standalone HTML report with inline-SVG sparklines.

``python -m repro.telemetry.report <manifest.json | run dir>`` reads the
sweep artifacts written next to ``manifest.json`` — the periodic
``metrics.jsonl`` snapshots and the manifest itself — and renders one
self-contained HTML file (no external assets, scripts or CDN fonts): a
summary strip, sparklines of throughput / worker occupancy / queue depth
/ CI convergence / recent run wall times, the run-duration histogram,
per-scheduler result tables and the full metric catalogue.  Harnesses
expose the same renderer behind ``--report``.

Everything is hand-rolled stdlib: snapshots in, one HTML string out.
"""

from __future__ import annotations

import html
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default output file name, next to the manifest.
REPORT_HTML = "report.html"

_SPARK_W = 280
_SPARK_H = 56
_PAD = 4

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; color: #1a1a2e; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #ccd; padding: 0.25em 0.7em; text-align: right; }
th { background: #eef; } td.l, th.l { text-align: left; }
.cards { display: flex; flex-wrap: wrap; gap: 1.2em; }
.card { border: 1px solid #ccd; border-radius: 6px; padding: 0.6em 0.9em; }
.card .t { font-size: 0.85em; color: #556; margin-bottom: 0.2em; }
.card .v { font-size: 0.95em; color: #223; }
.muted { color: #778; } svg { display: block; }
.err { color: #a22; }
"""


# -- artifact loading ---------------------------------------------------
def resolve_run_dir(path: os.PathLike) -> Path:
    """Accept a manifest path or the directory that contains it."""
    p = Path(path)
    return p.parent if p.is_file() else p


def load_manifest(run_dir: Path) -> Optional[Dict[str, Any]]:
    """The sweep's ``manifest.json`` payload, or None when absent."""
    try:
        with open(run_dir / "manifest.json", "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def load_snapshots(run_dir: Path) -> List[Dict[str, Any]]:
    """The ``metrics.jsonl`` snapshot stream, torn lines tolerated."""
    from repro.telemetry import METRICS_JSONL

    snaps: List[Dict[str, Any]] = []
    try:
        fh = open(run_dir / METRICS_JSONL, "r", encoding="utf-8")
    except OSError:
        return snaps
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                snap = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(snap, dict) and "metrics" in snap:
                snaps.append(snap)
    return snaps


# -- tiny SVG toolkit ---------------------------------------------------
def _finite(points: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    return [
        (float(t), float(v))
        for t, v in points
        if isinstance(t, (int, float)) and isinstance(v, (int, float))
        and math.isfinite(float(t)) and math.isfinite(float(v))
    ]


def sparkline(
    points: Sequence[Tuple[float, float]],
    width: int = _SPARK_W,
    height: int = _SPARK_H,
    color: str = "#3657a6",
) -> str:
    """An inline-SVG sparkline of ``(t, value)`` points (no axes; the
    min/max are annotated instead).  Degrades to a 'no data' box."""
    pts = _finite(points)
    if len(pts) < 2:
        return (
            f'<svg width="{width}" height="{height}" role="img">'
            f'<rect width="{width}" height="{height}" fill="#f4f4fa"/>'
            f'<text x="{width / 2}" y="{height / 2 + 4}" fill="#99a" '
            f'font-size="11" text-anchor="middle">no data</text></svg>'
        )
    pts.sort(key=lambda p: p[0])
    t0, t1 = pts[0][0], pts[-1][0]
    vs = [v for _, v in pts]
    v0, v1 = min(vs), max(vs)
    tspan = (t1 - t0) or 1.0
    vspan = (v1 - v0) or 1.0
    inner_w = width - 2 * _PAD
    inner_h = height - 2 * _PAD - 10  # leave room for the max label
    coords = " ".join(
        f"{_PAD + inner_w * (t - t0) / tspan:.1f},"
        f"{_PAD + 10 + inner_h * (1 - (v - v0) / vspan):.1f}"
        for t, v in pts
    )
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f'<rect width="{width}" height="{height}" fill="#fafaff"/>'
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"/>'
        f'<text x="{_PAD}" y="10" fill="#667" font-size="10">'
        f"max {v1:.4g}</text>"
        f'<text x="{width - _PAD}" y="10" fill="#667" font-size="10" '
        f'text-anchor="end">min {v0:.4g}</text></svg>'
    )


def histogram_svg(
    buckets: Sequence[float],
    counts: Sequence[int],
    width: int = 560,
    height: int = 140,
) -> str:
    """Bar chart of fixed-bucket counts (last slot is the +Inf overflow)."""
    counts = [int(c) for c in counts]
    if not counts or not any(counts):
        return '<p class="muted">no observations</p>'
    labels = [f"&le;{b:g}" for b in buckets] + ["+Inf"]
    n = len(counts)
    top = max(counts)
    bar_w = max(6, (width - 2 * _PAD) // n - 2)
    parts = [
        f'<svg width="{width}" height="{height}" role="img">',
        f'<rect width="{width}" height="{height}" fill="#fafaff"/>',
    ]
    base = height - 18
    for i, count in enumerate(counts):
        bar_h = int((base - 14) * count / top) if top else 0
        x = _PAD + i * (bar_w + 2)
        parts.append(
            f'<rect x="{x}" y="{base - bar_h}" width="{bar_w}" '
            f'height="{bar_h}" fill="#3657a6"><title>'
            f"{labels[i]}: {count}</title></rect>"
        )
        if count:
            parts.append(
                f'<text x="{x + bar_w / 2}" y="{base - bar_h - 3}" '
                f'font-size="9" fill="#445" text-anchor="middle">'
                f"{count}</text>"
            )
        parts.append(
            f'<text x="{x + bar_w / 2}" y="{height - 6}" font-size="8" '
            f'fill="#667" text-anchor="middle">{labels[i]}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


# -- snapshot-derived series --------------------------------------------
def _gauge_series(
    snaps: Sequence[Dict[str, Any]], name: str
) -> List[Tuple[float, float]]:
    out = []
    for snap in snaps:
        entry = (snap.get("metrics") or {}).get(name)
        if isinstance(entry, dict) and "value" in entry:
            out.append((snap.get("t", 0.0), entry["value"]))
    return out


def _counter_value(snap: Dict[str, Any], name: str) -> float:
    entry = (snap.get("metrics") or {}).get(name) or {}
    try:
        return float(entry.get("value", 0.0))
    except (TypeError, ValueError):
        return 0.0


def throughput_series(
    snaps: Sequence[Dict[str, Any]]
) -> List[Tuple[float, float]]:
    """Completed runs per second between successive snapshots."""
    out: List[Tuple[float, float]] = []
    prev_t = prev_n = None
    for snap in snaps:
        t = snap.get("t", 0.0)
        n = _counter_value(snap, "sweep_runs_finished_total")
        if prev_t is not None and t > prev_t:
            out.append((t, (n - prev_n) / (t - prev_t)))
        prev_t, prev_n = t, n
    return out


def run_wall_series(snap: Dict[str, Any]) -> List[Tuple[float, float]]:
    """The run-duration ring buffer from the final (forced) snapshot."""
    entry = (snap.get("metrics") or {}).get("sweep_run_seconds") or {}
    series = entry.get("series") or []
    out = []
    for item in series:
        try:
            out.append((float(item[0]), float(item[1])))
        except (TypeError, ValueError, IndexError):
            continue
    return out


# -- report assembly ----------------------------------------------------
def _card(title: str, svg: str, note: str = "") -> str:
    note_html = f'<div class="t muted">{note}</div>' if note else ""
    return (
        f'<div class="card"><div class="t">{html.escape(title)}</div>'
        f"{svg}{note_html}</div>"
    )


def _summary_cards(manifest: Optional[Dict[str, Any]]) -> str:
    stats = (manifest or {}).get("stats") or {}
    if not stats:
        return '<p class="muted">no sweep stats in the manifest</p>'
    shown = [
        ("specs", "runs"), ("unique", "unique"), ("hits", "cached"),
        ("executed", "executed"), ("failures", "failed"),
        ("retries", "retried"), ("timeouts", "timed out"),
        ("resumed", "resumed"), ("seeds_added", "seeds grown"),
        ("seeds_saved", "seeds saved"), ("batched_runs", "batched runs"),
    ]
    cells = "".join(
        f'<div class="card"><div class="t">{label}</div>'
        f'<div class="v">{stats.get(key, 0)}</div></div>'
        for key, label in shown
        if stats.get(key) or key in ("specs", "unique", "executed")
    )
    elapsed = stats.get("elapsed")
    if isinstance(elapsed, (int, float)):
        cells += (
            '<div class="card"><div class="t">elapsed</div>'
            f'<div class="v">{elapsed:.1f}s</div></div>'
        )
    return f'<div class="cards">{cells}</div>'


def _scheduler_table(manifest: Optional[Dict[str, Any]]) -> str:
    runs = (manifest or {}).get("runs") or []
    if not runs:
        return '<p class="muted">no per-run entries in the manifest</p>'
    groups: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        tags = run.get("tags") or {}
        name = str(tags.get("scheduler", "(untagged)"))
        g = groups.setdefault(
            name,
            {"runs": 0, "cached": 0, "failed": 0, "walls": [],
             "attempts": 0},
        )
        g["runs"] += 1
        if run.get("cached"):
            g["cached"] += 1
        if run.get("error"):
            g["failed"] += 1
        wall = run.get("wall_time")
        if isinstance(wall, (int, float)):
            g["walls"].append(wall)
        g["attempts"] = max(g["attempts"], int(run.get("attempts") or 0))
    rows = []
    for name in sorted(groups):
        g = groups[name]
        mean_wall = (
            f"{sum(g['walls']) / len(g['walls']):.3f}" if g["walls"] else "–"
        )
        failed = (
            f'<span class="err">{g["failed"]}</span>'
            if g["failed"]
            else "0"
        )
        rows.append(
            f'<tr><td class="l">{html.escape(name)}</td>'
            f"<td>{g['runs']}</td><td>{g['cached']}</td>"
            f"<td>{failed}</td><td>{mean_wall}</td>"
            f"<td>{g['attempts']}</td></tr>"
        )
    return (
        '<table><tr><th class="l">scheduler</th><th>runs</th>'
        "<th>cached</th><th>failed</th><th>mean wall (s)</th>"
        "<th>max attempts</th></tr>" + "".join(rows) + "</table>"
    )


def _worker_table(snaps: Sequence[Dict[str, Any]]) -> str:
    rows_by_ident: Dict[int, Dict[str, Any]] = {}
    for snap in snaps:
        for worker in snap.get("workers") or []:
            ident = worker.get("ident")
            if isinstance(ident, int):
                rows_by_ident[ident] = worker
    if not rows_by_ident:
        return '<p class="muted">no worker snapshots recorded</p>'
    rows = []
    for ident in sorted(rows_by_ident):
        w = rows_by_ident[ident]
        rows.append(
            f"<tr><td>{ident}</td><td>{w.get('pid') or '–'}</td>"
            f'<td class="l">{html.escape(str(w.get("state", "")))}</td>'
            f"<td>{w.get('runs_done', 0)}</td>"
            f"<td>{'yes' if w.get('straggler') else ''}</td></tr>"
        )
    return (
        "<table><tr><th>worker</th><th>pid</th>"
        '<th class="l">last state</th><th>runs done</th>'
        "<th>straggled</th></tr>" + "".join(rows) + "</table>"
    )


def _metric_table(final: Dict[str, Any]) -> str:
    metrics = final.get("metrics") or {}
    if not metrics:
        return '<p class="muted">no metrics recorded</p>'
    rows = []
    for name, entry in metrics.items():
        kind = entry.get("type", "?")
        if kind == "histogram":
            value = (
                f"count {int(entry.get('count', 0))}, "
                f"sum {float(entry.get('sum', 0.0)):.4g}"
            )
        else:
            value = f"{float(entry.get('value', 0.0)):.6g}"
        rows.append(
            f'<tr><td class="l"><code>{html.escape(name)}</code></td>'
            f'<td class="l">{kind}</td><td>{value}</td>'
            f'<td class="l muted">{html.escape(str(entry.get("help", "")))}'
            "</td></tr>"
        )
    return (
        '<table><tr><th class="l">metric</th><th class="l">type</th>'
        '<th>value</th><th class="l">help</th></tr>'
        + "".join(rows)
        + "</table>"
    )


def render_report(
    manifest: Optional[Dict[str, Any]],
    snapshots: Sequence[Dict[str, Any]],
    title: Optional[str] = None,
) -> str:
    """One standalone HTML page from the sweep's telemetry artifacts."""
    final = snapshots[-1] if snapshots else {}
    label = title or (manifest or {}).get("label") or final.get(
        "label", "sweep"
    )
    cards = "".join(
        [
            _card(
                "throughput (runs/s)",
                sparkline(throughput_series(snapshots)),
            ),
            _card(
                "workers busy",
                sparkline(
                    _gauge_series(snapshots, "sweep_workers_busy"),
                    color="#2e7d4f",
                ),
            ),
            _card(
                "queue depth",
                sparkline(
                    _gauge_series(snapshots, "sweep_queue_depth"),
                    color="#8a5a2e",
                ),
            ),
            _card(
                "max relative CI (adaptive)",
                sparkline(
                    _gauge_series(snapshots, "adaptive_max_relative_ci"),
                    color="#8a2e6e",
                ),
            ),
            _card(
                "recent run wall times (s)",
                sparkline(run_wall_series(final), color="#2e6e8a"),
            ),
        ]
    )
    hist = (final.get("metrics") or {}).get("sweep_run_seconds") or {}
    hist_svg = histogram_svg(
        hist.get("buckets") or [], hist.get("counts") or []
    )
    version = (manifest or {}).get("version", "")
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>sweep report: {html.escape(str(label))}</title>
<style>{_CSS}</style></head><body>
<h1>Sweep report: <code>{html.escape(str(label))}</code></h1>
<p class="muted">{len(snapshots)} telemetry snapshots,
package version {html.escape(str(version))}</p>
<h2>Summary</h2>
{_summary_cards(manifest)}
<h2>Timelines</h2>
<div class="cards">{cards}</div>
<h2>Run duration distribution</h2>
{hist_svg}
<h2>Per-scheduler results</h2>
{_scheduler_table(manifest)}
<h2>Workers</h2>
{_worker_table(snapshots)}
<h2>Metric catalogue</h2>
{_metric_table(final)}
</body></html>
"""


def write_report(
    run_dir: os.PathLike,
    out: Optional[os.PathLike] = None,
    title: Optional[str] = None,
) -> Path:
    """Render ``report.html`` for a run directory; returns its path."""
    run_dir = resolve_run_dir(run_dir)
    manifest = load_manifest(run_dir)
    snapshots = load_snapshots(run_dir)
    out_path = Path(out) if out else run_dir / REPORT_HTML
    out_path.parent.mkdir(parents=True, exist_ok=True)
    text = render_report(manifest, snapshots, title=title)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return out_path


def main(argv=None) -> int:
    """CLI: render ``report.html`` from a recorded sweep directory."""
    args = list(sys.argv[1:] if argv is None else argv)
    out: Optional[str] = None
    paths: List[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg in ("-h", "--help"):
            print(
                "usage: python -m repro.telemetry.report "
                "<manifest.json | run dir> [-o report.html]",
                file=sys.stderr,
            )
            return 0
        if arg in ("-o", "--out"):
            if i + 1 >= len(args):
                print(f"{arg} needs a value", file=sys.stderr)
                return 2
            out = args[i + 1]
            i += 2
            continue
        paths.append(arg)
        i += 1
    if len(paths) != 1:
        print(
            "usage: python -m repro.telemetry.report "
            "<manifest.json | run dir> [-o report.html]",
            file=sys.stderr,
        )
        return 2
    run_dir = resolve_run_dir(paths[0])
    if not run_dir.is_dir():
        print(f"{run_dir}: not a directory", file=sys.stderr)
        return 1
    path = write_report(run_dir, out)
    print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = [
    "REPORT_HTML",
    "histogram_svg",
    "load_manifest",
    "load_snapshots",
    "main",
    "render_report",
    "resolve_run_dir",
    "run_wall_series",
    "sparkline",
    "throughput_series",
    "write_report",
]
