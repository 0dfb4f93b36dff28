"""The metrics registry — counters, gauges and histograms for sweeps.

Mirrors the :mod:`repro.trace` contract (see ``docs/observability.md``):

* **Zero overhead when off.**  The default registry is the shared
  :data:`NULL_REGISTRY` whose ``enabled`` flag is ``False``; instrumented
  sites guard metric updates behind that flag (or hold the shared no-op
  metric objects, whose methods discard), so an un-metered sweep pays
  one call per site.
* **Bit-identity.**  Metrics are write-only observation of the sweep:
  nothing a run computes reads them, so results are byte-identical with
  telemetry on or off (tested end to end in ``tests/test_telemetry.py``).

Process model: the registry lives in the sweep process, which is where
metrics are rendered.  The sweep engine and the cluster coordinator
record every ``sweep_*``, ``cluster_*`` and ``adaptive_*`` metric there
from the results and heartbeats their workers send; a worker process
records nothing and ships no metrics.  Simulated runs report their own
numbers (fault recovery included) as run metrics instead.

Metric types:

:class:`Counter`
    Monotone float; ``inc(amount)``.
:class:`Gauge`
    Last-written float; ``set``/``inc``/``dec``.  Time series of gauges
    come from the periodic ``metrics.jsonl`` snapshots, not the gauge
    itself.
:class:`Histogram`
    Fixed upper-bound buckets (Prometheus ``le`` semantics: a value lands
    in the first bucket whose bound is >= it) plus a bounded ring-buffer
    time series of the newest raw observations — the data behind the
    dashboard/report sparklines.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds, in seconds (sweep runs span
#: milliseconds for cached tiny cells to minutes for paper-scale ones).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
    120.0, 300.0,
)

#: Ring-buffer capacity of each histogram's raw-observation time series.
DEFAULT_SERIES_CAPACITY = 512


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """A value that can go up and down; last write wins."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def as_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """Fixed-bucket distribution plus a ring buffer of raw observations.

    ``counts[i]`` is the number of observations ``v`` with
    ``buckets[i-1] < v <= buckets[i]`` (non-cumulative storage; the
    Prometheus exporter cumulates on render), with one implicit ``+Inf``
    overflow bucket at the end.  ``series`` keeps the newest
    ``capacity`` ``(t, value)`` pairs for sparklines, where ``t`` is the
    registry clock at observation time.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count",
                 "series", "_clock")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        capacity: int = DEFAULT_SERIES_CAPACITY,
        clock: Callable[[], float] = lambda: 0.0,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name} buckets must be a strictly increasing "
                f"non-empty sequence, got {buckets!r}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0
        self.series: deque = deque(maxlen=int(capacity))
        self._clock = clock

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1
        self.series.append((self._clock(), float(value)))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "series": [[t, v] for t, v in self.series],
        }


class _NullMetric:
    """Shared do-nothing metric handed out by the null registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """A process-local, insertion-ordered collection of named metrics.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent,
    type-checked); :meth:`snapshot` returns JSON-ready plain data.  The
    registry clock stamps histogram series relative to the registry's
    creation, so sparklines line up with the sweep's own elapsed time.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._t0 = time.monotonic()

    # -- clock ----------------------------------------------------------
    def clock(self) -> float:
        """Seconds since this registry was created."""
        return time.monotonic() - self._t0

    # -- metric construction --------------------------------------------
    def _get(self, name: str, kind: str, factory: Callable[[], Any]):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if metric.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, "counter", lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        capacity: int = DEFAULT_SERIES_CAPACITY,
    ) -> Histogram:
        return self._get(
            name,
            "histogram",
            lambda: Histogram(name, help, buckets, capacity, self.clock),
        )

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return list(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready view of every metric, in registration order."""
        return {name: m.as_dict() for name, m in self._metrics.items()}

    def reset(self) -> None:
        self._metrics.clear()
        self._t0 = time.monotonic()


class NullRegistry(MetricsRegistry):
    """The default registry: records nothing, costs (almost) nothing."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullMetric:  # type: ignore[override]
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:  # type: ignore[override]
        return _NULL_METRIC

    def histogram(self, name, help="", buckets=DEFAULT_BUCKETS,  # type: ignore[override]
                  capacity=DEFAULT_SERIES_CAPACITY) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}


#: Shared disabled registry; components default to this instance.
NULL_REGISTRY = NullRegistry()


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_SERIES_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
]
