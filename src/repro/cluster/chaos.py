"""Deterministic chaos harness for the cluster backend.

The harness injects worker failures on a **seeded schedule** and proves
the recovery machinery end to end: a fig5-style sweep executed by a
coordinator on loopback TCP and worker threads of this process — while
workers stall, get killed, go silent, and partition — must produce
**bit-identical per-cell metrics** to a plain local run, with the
failures actually observed (≥1 lease expiry, ≥1 reclaim, ≥1 suppressed
duplicate commit) in the ``cluster_*`` telemetry counters, and zero
duplicate checkpoint commits.  Determinism lives in the results, never the schedule: chaos
perturbs *when and where* cells execute, and the exactly-once commit
layer guarantees *what* they produce.

Event kinds (see ``docs/cluster.md`` for the failure matrix):

``stall``
    An executor thread sleeps mid-lease past the lease deadline while
    the worker keeps heartbeating — exercises expiry, reclaim, and the
    late-duplicate suppression path (the zombie finishes after all).
``pause``
    The worker's *main loop* sleeps through its heartbeats while
    executor threads keep running — exercises silence-based death,
    reclaim-with-zombies, and revival when the worker wakes.
``kill``
    Abrupt death: the connection drops, buffered results are lost —
    exercises crash reclaim and the retry budget.
``partition``
    The connection drops but the worker survives, reconnects after a
    delay, re-registers, and flushes its buffered results — exercises
    re-registration and key-based duplicate arbitration.

Run the proof directly (exits non-zero on any violation)::

    PYTHONPATH=src python -m repro.cluster.chaos --seed 0
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Baseline chaos timing (seconds).  Scaled by ``--stretch`` on slow CI.
STALL_SECONDS = 1.0
PAUSE_SECONDS = 1.6
PARTITION_SECONDS = 0.3
LEASE_TIMEOUT = 0.35
LIVENESS_TIMEOUT = 1.0
HEARTBEAT_INTERVAL = 0.1


@dataclass
class ChaosEvent:
    """One scheduled failure, fired at most once.

    ``after_results`` gates the event on the worker's completed-result
    count — a deterministic, wall-clock-free trigger.
    """

    kind: str  # "kill" | "pause" | "partition"
    after_results: int
    duration: float = 0.0
    fired: bool = False


@dataclass
class WorkerChaos:
    """The failure schedule injected into one :class:`ClusterWorker`."""

    events: List[ChaosEvent] = field(default_factory=list)
    #: worker-local run index -> seconds to sleep mid-lease (after
    #: ``started`` is sent, before execution).
    stalls: Dict[int, float] = field(default_factory=dict)

    def stall_before(self, run_index: int) -> float:
        return self.stalls.pop(run_index, 0.0)

    def next_event(self, results_completed: int) -> Optional[ChaosEvent]:
        for event in self.events:
            if not event.fired and results_completed >= event.after_results:
                event.fired = True
                return event
        return None


def make_plan(
    seed: int = 0, workers: int = 3, stretch: float = 1.0
) -> Dict[str, WorkerChaos]:
    """Build the seeded per-worker failure schedule.

    The plan always includes the three guarantees the acceptance proof
    asserts on — a stall (→ lease expiry → reclaim → suppressed
    duplicate), a pause (→ silence death → reclaim → revival), and a
    kill (→ crash reclaim → retry) — and salts the remaining knobs
    (trigger counts, a partition) from ``seed``.
    """
    import random

    rng = random.Random(seed)
    plan: Dict[str, WorkerChaos] = {
        f"chaos-{i}": WorkerChaos() for i in range(max(workers, 1))
    }
    names = sorted(plan)
    # One stall on the first worker's first run: the lease expires while
    # the worker heartbeats, and the zombie's late result is suppressed.
    plan[names[0]].stalls[0] = STALL_SECONDS * stretch
    if len(names) > 1:
        plan[names[1]].events.append(
            ChaosEvent(
                kind="pause",
                after_results=1 + rng.randrange(2),
                duration=PAUSE_SECONDS * stretch,
            )
        )
    if len(names) > 2:
        plan[names[2]].events.append(
            ChaosEvent(kind="kill", after_results=2 + rng.randrange(3))
        )
    if len(names) > 1 and rng.random() < 0.5:
        # A partition somewhere else in the fleet, when the seed says so.
        target = names[1 + rng.randrange(len(names) - 1)]
        plan[target].events.append(
            ChaosEvent(
                kind="partition",
                after_results=3 + rng.randrange(3),
                duration=PARTITION_SECONDS * stretch,
            )
        )
    return plan


def _fig5_specs(seeds: int = 3):
    """A small fig5-style grid: schedulers x parallelism x seeds on the
    TX2 preset (cheap simulated runs, a couple dozen cells)."""
    from repro.sweep.spec import RunSpec

    specs = []
    for scheduler in ("rws", "da", "dam-c"):
        for parallelism in (2, 3):
            for seed in range(seeds):
                specs.append(
                    RunSpec(
                        kind="single",
                        params={
                            "workload": {
                                "name": "layered",
                                "kernel": "matmul",
                                "parallelism": parallelism,
                                "total": parallelism * 10,
                            },
                            "machine": "jetson_tx2",
                            "scheduler": scheduler,
                        },
                        seed=seed,
                        metrics=("makespan", "tasks_completed"),
                    )
                )
    return specs


def _metrics_fingerprint(specs, metrics_list) -> Dict[str, str]:
    """Canonical per-cell fingerprint: key -> sorted-JSON of metrics."""
    return {
        spec.key(): json.dumps(metrics, sort_keys=True)
        for spec, metrics in zip(specs, metrics_list)
    }


def run_chaos_proof(
    seed: int = 0,
    workers: int = 3,
    stretch: float = 1.0,
    log=print,
) -> Dict[str, float]:
    """Execute the acceptance proof; returns the observed counters.

    Raises :class:`AssertionError` on any violation: a metrics mismatch
    vs. the serial run, a duplicate checkpoint commit, or chaos
    that failed to exercise expiry/reclaim/suppression.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.cluster.worker import start_worker_thread
    from repro.sweep.engine import SweepRunner
    from repro.telemetry import Telemetry

    specs = _fig5_specs()

    # 1. The yardstick: a plain local run of the same grid, uncached.
    local = SweepRunner(
        jobs=1, use_cache=False, progress=False, label="chaos-baseline"
    )
    baseline = _metrics_fingerprint(specs, local.run(specs))

    # 2. The same grid through a loopback TCP coordinator with chaos.
    #    A fresh cache directory so every cell misses and the checkpoint
    #    records exactly the commits this run made.
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    tele = Telemetry(enabled=True, heartbeat_interval=HEARTBEAT_INTERVAL)
    plan = make_plan(seed=seed, workers=workers, stretch=stretch)
    runner = SweepRunner(
        jobs=1,
        cache_dir=cache_dir,
        use_cache=True,
        label="chaos-cluster",
        progress=False,
        cluster="tcp://127.0.0.1:0",
        max_attempts=4,  # headroom: a cell may be hit by several faults
        retry_backoff=0.2 * stretch,
        lease_timeout=LEASE_TIMEOUT * stretch,
        liveness_timeout=LIVENESS_TIMEOUT * stretch,
        telemetry=tele,
    )
    # Listen before the chaos workers start, so each one registers on
    # its first connect and is leased work from the first grant.  A
    # worker that found no listener would retry after its reconnect
    # delay, join ~0.1 s late with little left to lease, and could see
    # the sweep end before its kill or pause fired.
    address = runner._ensure_coordinator().address
    spawned = [
        start_worker_thread(
            address,
            name=name,
            capacity=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            reconnect_timeout=10.0 * stretch,
            chaos=worker_chaos,
        )
        for name, worker_chaos in sorted(plan.items())
    ]
    try:
        chaotic = _metrics_fingerprint(specs, runner.run(specs))
        checkpoint = (
            Path(cache_dir) / "checkpoints" / "chaos-cluster.jsonl"
        )
        committed = [
            json.loads(line)["key"]
            for line in checkpoint.read_text().splitlines()
            if line.strip()
        ]
    finally:
        runner.close()
        for worker in spawned:
            worker.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)

    # 3. Bit-identical per-cell metrics, exactly-once commits.
    mismatched = sorted(
        k for k in baseline if chaotic.get(k) != baseline[k]
    )
    assert not mismatched, (
        f"{len(mismatched)} cell(s) differ from the local run: "
        f"{mismatched[:3]}"
    )
    assert len(committed) == len(set(committed)), (
        "duplicate checkpoint commits: "
        f"{len(committed)} lines, {len(set(committed))} unique"
    )
    assert set(committed) == set(baseline), (
        "checkpoint does not cover the grid exactly once"
    )

    # 4. Chaos actually happened, and recovery observed it.
    counters = {
        name: tele.registry.get(name).value
        for name in (
            "cluster_leases_expired_total",
            "cluster_leases_reclaimed_total",
            "cluster_reexec_suppressed_total",
            "cluster_workers_lost_total",
            "cluster_retries_total",
        )
    }
    assert counters["cluster_leases_expired_total"] >= 1, counters
    assert counters["cluster_leases_reclaimed_total"] >= 1, counters
    assert counters["cluster_reexec_suppressed_total"] >= 1, counters
    log(
        "chaos proof ok: "
        f"{len(baseline)} cells bit-identical under chaos "
        f"(expired={counters['cluster_leases_expired_total']:g}, "
        f"reclaimed={counters['cluster_leases_reclaimed_total']:g}, "
        f"suppressed={counters['cluster_reexec_suppressed_total']:g}, "
        f"lost={counters['cluster_workers_lost_total']:g}, "
        f"retries={counters['cluster_retries_total']:g})"
    )
    return counters


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.cluster.chaos``; exit 1 on failure."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.chaos",
        description="Run the cluster chaos acceptance proof.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=3, help="chaos workers to spawn"
    )
    parser.add_argument(
        "--stretch",
        type=float,
        default=1.0,
        help="scale every chaos delay/timeout (slow CI: 2.0)",
    )
    args = parser.parse_args(argv)
    try:
        run_chaos_proof(
            seed=args.seed, workers=args.workers, stretch=args.stretch
        )
    except AssertionError as exc:
        print(f"chaos proof FAILED: {exc}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
