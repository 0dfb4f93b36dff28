"""Per-phase wall-clock accounting for single simulation runs.

The simulator's wall time splits into a handful of conceptually distinct
buckets — building the DAG, stepping the event loop, searching the PTT
for placements, re-timing in-flight work, extracting metrics.  A
:class:`PhaseTimer` attributes *exclusive* wall-clock time to a stack of
named phases: entering a nested phase pauses the enclosing one, so the
buckets always sum to the instrumented span (plus ``other`` for anything
outside every phase).  The cyclic garbage collector's pauses get a
bucket of their own, ``gc``, taken from :data:`gc.callbacks` while a
timer is installed and charged to no other phase.

Instrumented code reads the module-level active timer exactly once at
construction time (``self._phases = active_phases()``) and guards each
hook with ``if phases is not None`` — with profiling off the hot path
pays one predicate per decision and allocates nothing, preserving the
engine's zero-overhead-when-off contract (the same pattern as
``tracer.enabled``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

#: Canonical bucket names, in reporting order.
PHASES = (
    "dag-build",
    "sim-loop",
    "policy-search",
    "speed-retime",
    "metrics",
    "dispatch",
    "gc",
)


class PhaseTimer:
    """Stack-based exclusive wall-clock accounting.

    ``push``/``pop`` cost two ``perf_counter`` reads and a couple of dict
    operations (~0.5 µs); they are only reachable while a timer is
    active, so profiling overhead never leaks into unprofiled runs.
    """

    __slots__ = ("totals", "counts", "notes", "_stack", "_last", "_gc_start")

    def __init__(self) -> None:
        #: Seconds per phase; ``gc`` is always present.
        self.totals: Dict[str, float] = {"gc": 0.0}
        self.counts: Dict[str, int] = {"gc": 0}
        #: Free-form annotations attached by instrumented subsystems
        #: (e.g. DAG-template cache hit counts).
        self.notes: Dict[str, object] = {}
        self._stack: List[str] = []
        self._last = 0.0
        self._gc_start = 0.0

    def push(self, name: str) -> None:
        """Enter ``name``, pausing the enclosing phase (if any)."""
        now = perf_counter()
        stack = self._stack
        if stack:
            current = stack[-1]
            self.totals[current] = (
                self.totals.get(current, 0.0) + now - self._last
            )
        stack.append(name)
        self.counts[name] = self.counts.get(name, 0) + 1
        self._last = now

    def pop(self) -> None:
        """Leave the current phase, resuming the enclosing one."""
        now = perf_counter()
        current = self._stack.pop()
        self.totals[current] = self.totals.get(current, 0.0) + now - self._last
        self._last = now

    def on_gc(self, phase: str, _info: dict) -> None:
        """A :data:`gc.callbacks` hook: time each collection as ``gc``.

        The pause is moved out of whatever phase was open, so the
        buckets still sum to the instrumented span.
        """
        now = perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        spent = now - self._gc_start
        self.totals["gc"] += spent
        self.counts["gc"] += 1
        self._last += spent

    @contextmanager
    def phase(self, name: str):
        """``with timer.phase("dag-build"):`` convenience wrapper."""
        self.push(name)
        try:
            yield self
        finally:
            self.pop()

    def note(self, key: str, value) -> None:
        """Attach a free-form annotation to the breakdown."""
        self.notes[key] = value

    def breakdown(self, wall: Optional[float] = None) -> Dict[str, object]:
        """JSON-safe summary: per-phase seconds, counts and fractions.

        ``wall`` is the total instrumented wall time; when given, the
        difference between it and the accounted phases is reported as
        ``other``.
        """
        totals = dict(self.totals)
        accounted = sum(totals.values())
        if wall is not None:
            totals["other"] = max(0.0, wall - accounted)
        total = wall if wall is not None else accounted
        phases = {}
        order = [p for p in PHASES if p in totals]
        order += sorted(k for k in totals if k not in PHASES)
        for name in order:
            seconds = totals[name]
            phases[name] = {
                "seconds": seconds,
                "fraction": (seconds / total) if total > 0 else 0.0,
                "enters": self.counts.get(name, 0),
            }
        out: Dict[str, object] = {"wall": total, "phases": phases}
        if self.notes:
            out["notes"] = dict(self.notes)
        return out


#: The process-wide active timer.  Instrumented constructors capture it
#: once; ``None`` (the default) keeps every hook on its no-op branch.
_ACTIVE: Optional[PhaseTimer] = None


def active_phases() -> Optional[PhaseTimer]:
    """The currently installed :class:`PhaseTimer`, or ``None``."""
    return _ACTIVE


@contextmanager
def phase_accounting(timer: Optional[PhaseTimer] = None):
    """Install ``timer`` (or a fresh one) for the duration of the block.

    Objects constructed inside the block (runtimes, speed models) bind to
    it, and the collector's pauses are timed into its ``gc`` bucket;
    yields the timer.  Not reentrant by design — a profiled run owns the
    process.
    """
    global _ACTIVE
    previous = _ACTIVE
    timer = timer if timer is not None else PhaseTimer()
    on_gc = timer.on_gc
    _ACTIVE = timer
    gc.callbacks.append(on_gc)
    try:
        yield timer
    finally:
        gc.callbacks.remove(on_gc)
        _ACTIVE = previous


def phase_scope(name: str):
    """Context manager timing ``name`` on the active timer (no-op when off).

    For coarse, cold call-sites (workload build, metric extraction) where
    reading the active timer per call is negligible.
    """
    timer = _ACTIVE
    if timer is None:
        return _NULL_SCOPE
    return timer.phase(name)


class _NullScope:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SCOPE = _NullScope()
