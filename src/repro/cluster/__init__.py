"""Cross-host sweep scale-out: coordinator/worker cluster over framed
socket connections (see ``docs/cluster.md``).

Every parallel sweep of the sweep engine runs through this package: a
coordinator leases cells to workers over a connection, the engine's own
auto-workers on this host or workers that joined from elsewhere, with
lease expiry, reclaim, retry budgets and exactly-once commit:

* :mod:`repro.cluster.comm` — length-prefixed JSON frames over a
  connected stream socket (``tcp://host:port``, or a socketpair shared
  with a forked worker), read only by the thread that waits on it;
* :mod:`repro.cluster.coordinator` — leases sweep cells with expiry
  deadlines, detects worker death (closed connection or heartbeat
  silence), reclaims and retries with backoff + jitter, steals tail
  cells from backlogged workers, parks on zero workers;
* :mod:`repro.cluster.worker` — ``python -m repro.cluster.worker
  --connect ADDR --jobs N`` joins a coordinator with ``N`` worker
  processes, which execute leases, stream results + heartbeats, and
  survive coordinator restart by
  re-registering; the coordinator forks the same worker for its own
  auto-workers;
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
