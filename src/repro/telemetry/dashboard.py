"""The ``--watch`` terminal dashboard (pure stdlib, ANSI on stderr).

One :class:`Dashboard` consumes the sweep's
:meth:`~repro.telemetry.Telemetry.snapshot` and redraws a fixed-height
frame in place: a progress bar with ETA (from the cost-model EWMAs), a
counter strip, the per-worker table (state, current run, attempt,
elapsed, heartbeat age, straggler flag) and the newest progress lines.
While open it installs itself as the
:class:`~repro.telemetry.progress.ProgressEmitter` sink so ordinary
``[sweep:<label>]`` lines land in the frame's log pane instead of
tearing it.

On a non-TTY stderr (CI logs, redirects) there is no cursor addressing:
the dashboard degrades to a plain one-line progress summary every few
seconds, and progress lines keep printing normally.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

#: Seconds between frames (TTY) and summary lines (non-TTY).
FRAME_INTERVAL = 0.25
PLAIN_INTERVAL = 5.0

#: Progress-bar width in characters.
BAR_WIDTH = 30

#: Log-pane height (newest emitter lines shown).
LOG_LINES = 5

_CSI = "\x1b["


def _fmt_secs(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _bar(done: int, total: int, width: int = BAR_WIDTH) -> str:
    if total <= 0:
        return "-" * width
    filled = int(width * min(done, total) / total)
    return "#" * filled + "-" * (width - filled)


def _counter(metrics: Dict[str, Any], name: str) -> int:
    entry = metrics.get(name) or {}
    try:
        return int(entry.get("value", 0))
    except (TypeError, ValueError):
        return 0


class Dashboard:
    """Live terminal view over one telemetry hub."""

    def __init__(self, telemetry, stream=None) -> None:
        self.telemetry = telemetry
        self.stream = stream if stream is not None else sys.stderr
        self.tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.interval = FRAME_INTERVAL if self.tty else PLAIN_INTERVAL
        self._open = False
        self._last_frame = -float("inf")
        self._height = 0  # lines of the previous frame to overwrite

    # -- lifecycle ------------------------------------------------------
    def open(self) -> None:
        if self._open:
            return
        self._open = True
        self._height = 0
        self._last_frame = -float("inf")
        if self.tty and self.telemetry.progress_emitter is not None:
            # Capture progress lines into the frame's log pane; the
            # emitter already records them, so the sink just redraws.
            self.telemetry.progress_emitter.sink = self._on_line
        self.tick(force=True)

    def close(self) -> None:
        if not self._open:
            return
        self.tick(force=True)
        self._open = False
        emitter = self.telemetry.progress_emitter
        if emitter is not None and emitter.sink == self._on_line:
            emitter.sink = None
        if self.tty and self._height:
            # Leave the final frame on screen; subsequent output starts
            # below it.
            self.stream.write("\n")
            self.stream.flush()
        self._height = 0

    def _on_line(self, line: str, kind: str) -> None:
        # The emitter has already recorded the line; refresh the frame so
        # it appears in the log pane promptly.
        self.tick()

    # -- rendering ------------------------------------------------------
    def tick(self, force: bool = False) -> None:
        if not self._open:
            return
        now = time.monotonic()
        if not force and now - self._last_frame < self.interval:
            return
        self._last_frame = now
        snap = self.telemetry.snapshot(include_series=False)
        if self.tty:
            self._render_frame(snap)
        else:
            self._render_plain(snap)

    def _render_plain(self, snap: Dict[str, Any]) -> None:
        progress = snap["progress"]
        busy = sum(1 for w in snap["workers"] if w["state"] == "busy")
        self.stream.write(
            f"[sweep:{snap['label']}] watch: "
            f"{progress['done']}/{progress['total']} done, "
            f"{busy} busy, elapsed {_fmt_secs(progress['elapsed'])}, "
            f"eta {_fmt_secs(progress['eta'])}\n"
        )
        self.stream.flush()

    def _frame_lines(self, snap: Dict[str, Any]) -> List[str]:
        progress = snap["progress"]
        metrics = snap["metrics"]
        total = progress["total"]
        done = progress["done"]
        pct = f"{100.0 * done / total:5.1f}%" if total else "   --"
        lines = [
            f"sweep:{snap['label']}  "
            f"[{_bar(done, total)}] {done}/{total} {pct}  "
            f"elapsed {_fmt_secs(progress['elapsed'])}  "
            f"eta {_fmt_secs(progress['eta'])}",
            "ok {ok}  failed {failed}  retries {retries}  "
            "timeouts {timeouts}  cached {cached}  stragglers {strag}".format(
                ok=_counter(metrics, "sweep_runs_finished_total"),
                failed=_counter(metrics, "sweep_failures_total"),
                retries=_counter(metrics, "sweep_retries_total"),
                timeouts=_counter(metrics, "sweep_timeouts_total"),
                cached=_counter(metrics, "sweep_cache_hits_total")
                + _counter(metrics, "sweep_resumed_total"),
                strag=snap["stragglers"],
            ),
            f"{'id':>3} {'pid':>7} {'state':<6} {'run':<12} "
            f"{'att':>3} {'w':>3} {'elapsed':>8} {'hb age':>7}  flag",
        ]
        for worker in snap["workers"]:
            key = (worker["key"] or "")[:12]
            age = worker["heartbeat_age"]
            flag = "STRAGGLER" if worker["straggler"] else ""
            lines.append(
                f"{worker['ident']:>3} {worker['pid'] or '-':>7} "
                f"{worker['state']:<6} {key:<12} "
                f"{worker['attempt']:>3} {worker['width']:>3} "
                f"{_fmt_secs(worker['elapsed']):>8} "
                f"{_fmt_secs(age) if age is not None else '--':>7}  {flag}"
            )
        if not snap["workers"]:
            lines.append("  (no workers yet)")
        lines.append("-" * 72)
        log = snap["log"][-LOG_LINES:]
        for entry in log:
            lines.append(entry["line"][:110])
        lines.extend([""] * (LOG_LINES - len(log)))
        return lines

    def _render_frame(self, snap: Dict[str, Any]) -> None:
        lines = self._frame_lines(snap)
        out = []
        if self._height:
            out.append(f"{_CSI}{self._height}F")  # up to the frame top
        for line in lines:
            out.append(f"{_CSI}2K{line}\n")  # clear the old line, redraw
        if self._height > len(lines):
            # Previous frame was taller: blank the leftovers, come back.
            extra = self._height - len(lines)
            out.append(f"{_CSI}2K\n" * extra)
            out.append(f"{_CSI}{extra}F")
        self._height = len(lines)
        self.stream.write("".join(out))
        self.stream.flush()


__all__ = ["Dashboard", "FRAME_INTERVAL", "PLAIN_INTERVAL"]
