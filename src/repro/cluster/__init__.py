"""Cross-host sweep scale-out: coordinator/worker cluster over a
pluggable comm layer (see ``docs/cluster.md``).

Every parallel sweep of the sweep engine runs through this package: a
coordinator leases cells to workers over a connection, the engine's own
auto-workers on this host or workers that joined from elsewhere, with
lease expiry, reclaim, retry budgets and exactly-once commit:

* :mod:`repro.cluster.comm` — one connector API, two backends
  (``inproc://`` queues for deterministic tests, ``tcp://`` asyncio
  streams with length-prefixed JSON frames);
* :mod:`repro.cluster.coordinator` — leases sweep cells with expiry
  deadlines, detects worker death (closed connection or heartbeat
  silence), reclaims and retries with backoff + jitter, steals tail
  cells from backlogged workers, parks on zero workers;
* :mod:`repro.cluster.worker` — ``python -m repro.cluster.worker
  --connect ADDR`` joins a coordinator, executes leases (inline or in
  persistent subprocesses), streams results + heartbeats + telemetry
  snapshots, survives coordinator restart by re-registering;
* :mod:`repro.cluster.chaos` — deterministic failure injection and the
  bit-identical-under-chaos acceptance proof.

``SweepRunner(jobs=N)`` uses it with ``N`` auto-workers;
``SweepRunner(cluster="tcp://host:port")`` (or ``--cluster`` on the CLI)
waits for external workers instead.
"""

from repro.cluster.comm import (
    AddressInUse,
    ClusterError,
    ClusterUnavailable,
    Connection,
    ConnectionClosed,
    connect,
    listen,
)
from repro.cluster.coordinator import (
    ClusterCoordinator,
    ExecuteReport,
    LeaseOutcome,
)

# The worker module resolves on first use: importing it here would make
# ``python -m repro.cluster.worker`` find it already in ``sys.modules``
# when runpy executes it (a RuntimeWarning on every worker start).
_LAZY = {"ClusterWorker", "start_worker_thread"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.cluster import worker

        return getattr(worker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AddressInUse",
    "ClusterCoordinator",
    "ClusterError",
    "ClusterUnavailable",
    "ClusterWorker",
    "Connection",
    "ConnectionClosed",
    "ExecuteReport",
    "LeaseOutcome",
    "connect",
    "listen",
    "start_worker_thread",
]
