"""The sweep's live model of its workers, fed by their heartbeats.

Every cluster worker (see :mod:`repro.cluster.worker`) — the sweep
engine's own auto-workers included — sends the coordinator a heartbeat
every ``heartbeat_interval`` seconds, naming the leases it is running.
The coordinator folds those messages, and each lease's start and end,
into a :class:`WorkerTable`: one :class:`WorkerView` per executor slot
holding the pid the worker registered with (each auto-worker is a
process of its own), its state, current spec, attempt number, wall time
and heartbeat age — the live model behind the ``--watch`` dashboard.

**Heartbeats are diagnostic, never disciplinary.**  A worker whose run
is slow — or whose heartbeats stop arriving because the run is stuck in
a C extension holding the GIL — is flagged as a *straggler* and surfaced
on the dashboard/progress stream, but it is only ever killed by the
per-run wall-clock ``timeout``; heartbeat age neither shortens nor
extends that deadline (regression-tested in
``tests/test_sweep_robustness.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Default seconds between worker heartbeats.
DEFAULT_INTERVAL = 0.25

#: A busy run is a straggler once its elapsed wall time exceeds this
#: multiple of the cost model's prediction for its spec...
STRAGGLER_FACTOR = 3.0

#: ...or this fraction of the per-run timeout, whichever bound is known
#: and smaller.  With neither a prediction nor a timeout there is no
#: yardstick, and nothing is flagged.
STRAGGLER_TIMEOUT_FRACTION = 0.5

#: ...but never before this many seconds.  A run's progress is seen at
#: heartbeat granularity, so a run that has not outlasted two heartbeat
#: intervals cannot be told from one delayed by scheduling noise; a few
#: millisecond prediction times three is well inside that noise.
STRAGGLER_FLOOR = 2 * DEFAULT_INTERVAL

#: A worker whose last heartbeat is older than this many intervals is
#: shown as ``stalled`` (still alive as far as the OS knows — possibly
#: GIL-bound — and still subject only to the run timeout).
STALL_INTERVALS = 4.0


def straggler_after(
    expected: Optional[float], timeout: Optional[float]
) -> Optional[float]:
    """Elapsed seconds after which a busy run counts as a straggler."""
    bounds = []
    if expected is not None and expected > 0:
        bounds.append(STRAGGLER_FACTOR * expected)
    if timeout is not None and timeout > 0:
        bounds.append(STRAGGLER_TIMEOUT_FRACTION * timeout)
    return max(min(bounds), STRAGGLER_FLOOR) if bounds else None


@dataclass
class WorkerView:
    """Live state of one worker executor slot."""

    ident: int
    pid: Optional[int] = None
    state: str = "idle"  # idle | busy | retired
    key: Optional[str] = None
    label: str = ""
    attempt: int = 0
    width: int = 1
    started: float = 0.0
    last_heartbeat: float = 0.0
    expected: Optional[float] = None
    straggler: bool = False
    runs_done: int = 0
    heartbeats: int = 0

    def elapsed(self, now: float) -> float:
        return (now - self.started) if self.state == "busy" else 0.0

    def heartbeat_age(self, now: float) -> Optional[float]:
        if self.state != "busy" or not self.heartbeats:
            return None
        return now - self.last_heartbeat

    def as_dict(self, now: float) -> Dict[str, Any]:
        return {
            "ident": self.ident,
            "pid": self.pid,
            "state": self.state,
            "key": self.key,
            "label": self.label,
            "attempt": self.attempt,
            "width": self.width,
            "elapsed": self.elapsed(now),
            "heartbeat_age": self.heartbeat_age(now),
            "expected": self.expected,
            "straggler": self.straggler,
            "runs_done": self.runs_done,
        }


class WorkerTable:
    """Every worker slot the sweep has seen, keyed by a stable ident."""

    def __init__(self) -> None:
        self._views: Dict[int, WorkerView] = {}
        self._next_ident = 0
        self._inline: Optional[int] = None
        self.stragglers_flagged = 0

    def spawn(self, pid: Optional[int]) -> int:
        """Register a new worker slot; returns its ident."""
        ident = self._next_ident
        self._next_ident += 1
        self._views[ident] = WorkerView(ident=ident, pid=pid)
        return ident

    def inline(self) -> int:
        """The row of runs executed in the sweep's own process, made on
        first use; it never shares an ident with a spawned slot."""
        if self._inline is None:
            self._inline = self.spawn(os.getpid())
        return self._inline

    def view(self, ident: int) -> WorkerView:
        return self._views[ident]

    def assign(
        self,
        ident: int,
        key: str,
        label: str,
        attempt: int,
        width: int,
        now: float,
        expected: Optional[float] = None,
    ) -> None:
        """Show a started run on row ``ident``."""
        view = self._views[ident]
        view.state = "busy"
        view.key = key
        view.label = label
        view.attempt = attempt
        view.width = width
        view.started = now
        view.last_heartbeat = now
        view.expected = expected
        view.straggler = False
        view.heartbeats = 0

    def heartbeat(self, ident: int, now: float) -> None:
        view = self._views.get(ident)
        if view is not None and view.state == "busy":
            view.last_heartbeat = now
            view.heartbeats += 1

    def finish(self, ident: int) -> None:
        view = self._views.get(ident)
        if view is None:
            return
        view.state = "idle"
        view.key = None
        view.label = ""
        view.straggler = False
        view.runs_done += 1

    def retire(self, ident: int) -> None:
        view = self._views.get(ident)
        if view is not None:
            view.state = "retired"
            view.key = None
            view.straggler = False

    def check_stragglers(
        self, now: float, timeout: Optional[float] = None
    ) -> List[WorkerView]:
        """Newly-detected stragglers: busy past their expected envelope.

        Purely observational — callers report these (progress line,
        counter, dashboard flag); nothing here ever kills a worker.
        """
        fresh: List[WorkerView] = []
        for view in self._views.values():
            if view.state != "busy" or view.straggler:
                continue
            limit = straggler_after(view.expected, timeout)
            if limit is not None and view.elapsed(now) > limit * view.width:
                view.straggler = True
                self.stragglers_flagged += 1
                fresh.append(view)
        return fresh

    def busy(self) -> int:
        return len(self.running())

    def running(self) -> List[WorkerView]:
        """The busy rows."""
        return [v for v in self._views.values() if v.state == "busy"]

    def live(self) -> int:
        return sum(1 for v in self._views.values() if v.state != "retired")

    def snapshot(self, now: float) -> List[Dict[str, Any]]:
        """JSON-ready per-worker rows (retired workers excluded)."""
        return [
            view.as_dict(now)
            for view in self._views.values()
            if view.state != "retired"
        ]


__all__ = [
    "DEFAULT_INTERVAL",
    "STALL_INTERVALS",
    "STRAGGLER_FACTOR",
    "STRAGGLER_FLOOR",
    "STRAGGLER_TIMEOUT_FRACTION",
    "WorkerTable",
    "WorkerView",
    "straggler_after",
]
