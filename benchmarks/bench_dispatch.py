"""Per-cell dispatch overhead of each sweep dispatch path.

Runs one overhead-dominated sweep — many tiny ``single`` cells differing
only in their seed — serially and through each dispatch mode (``pool``:
``jobs=2``; ``inproc``: ``jobs=2`` with ``cluster="inproc"``; ``tcp``: a
TCP coordinator with two in-thread workers), ``REPEATS`` times each,
and reports per mode the median and quartiles of wall clock and
per-cell overhead.  ``pool`` and ``inproc`` time one path: both run
through the coordinator with two auto-workers, each a worker process
the coordinator forks (the supervised pool the ``pool`` mode once timed
is deleted), so their difference is host noise.  The modes take turns
within each repetition, in alternating order, so a slow spell of a
shared host lands on all of them rather than on whichever ran last.
Every sweep builds a fresh runner, so the ``pool`` and ``inproc``
figures include starting and stopping their two worker processes.

Each sweep's metrics are asserted **bit-identical** to the serial
reference run before any timing is reported: dispatch is transport and
scheduling only, it must never change a result.

Usage::

    PYTHONPATH=src python benchmarks/bench_dispatch.py \
        --cells 40 --out BENCH_dispatch.json

``--modes pool,tcp`` restricts the paths (CI smoke uses a tiny
``--cells`` and all three).  The JSON lands at ``--out`` and is uploaded
as the ``dispatch-bench-smoke`` workflow artifact; the committed
``BENCH_dispatch.json`` is the evidence snapshot.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sweep.engine import SweepRunner
from repro.sweep.spec import RunSpec

#: Workers per path — the acceptance scenario is a 2-worker TCP cluster.
JOBS = 2

#: Timed sweeps per path.  One sweep per path cannot resolve the
#: differences between paths: on a shared host it varies by a factor of
#: two from run to run.
REPEATS = 7


def tiny_spec(seed: int, total: int) -> RunSpec:
    """One tiny cell: a short copy-kernel layered DAG, seed-varied.

    Replicates of one cell differ only in ``seed``, so the run is short
    and per-cell dispatch overhead dominates its wall clock.
    """
    return RunSpec(
        kind="single",
        params={
            "workload": {
                "name": "layered",
                "kernel": "copy",
                "parallelism": 2,
                "total": total,
            },
            "machine": "jetson_tx2",
            "scheduler": "rws",
        },
        seed=seed,
        metrics=("throughput", "tasks_completed"),
    )


def _make_runner(mode: str, label: str) -> Tuple[SweepRunner, List[Any]]:
    """Build a runner (and, for TCP, its external workers) for ``mode``."""
    workers: List[Any] = []
    if mode == "serial":
        runner = SweepRunner(
            jobs=1, use_cache=False, progress=False, label=label
        )
    elif mode == "pool":
        runner = SweepRunner(
            jobs=JOBS, use_cache=False, progress=False, label=label
        )
    elif mode == "inproc":
        runner = SweepRunner(
            jobs=JOBS, use_cache=False, progress=False, label=label,
            cluster="inproc",
        )
    elif mode == "tcp":
        from repro.cluster.worker import start_worker_thread

        runner = SweepRunner(
            jobs=JOBS, use_cache=False, progress=False, label=label,
            cluster="tcp://127.0.0.1:0",
        )
        coord = runner._ensure_coordinator()
        workers = [
            start_worker_thread(
                coord.address,
                name=f"bench-{i}",
                capacity=1,
                reconnect_timeout=10.0,
            )
            for i in range(JOBS)
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return runner, workers


def timed_sweep(
    mode: str, specs: List[RunSpec], reference: List[Dict[str, Any]]
) -> float:
    """One sweep through ``mode``; its wall seconds, once the metrics
    are shown equal to the serial reference."""
    runner, workers = _make_runner(mode, label=f"dispatch-{mode}")
    try:
        start = time.perf_counter()
        rows = runner.run(specs)
        wall = time.perf_counter() - start
    finally:
        runner.close()
        for worker in workers:
            worker.stop()
    if rows != reference:
        raise SystemExit(
            f"FAIL: {mode}: metrics differ from the serial reference"
        )
    return wall


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of ``values``."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=40,
                        help="tiny cells per sweep (default 40)")
    parser.add_argument("--total", type=int, default=16,
                        help="tasks per tiny cell's DAG (default 16)")
    parser.add_argument("--modes", default="pool,inproc,tcp",
                        help="comma-separated dispatch paths to measure")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the comparison JSON here")
    args = parser.parse_args(argv)

    specs = [tiny_spec(seed, args.total) for seed in range((args.cells))]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    n = len(specs)

    # Serial reference: the ground truth for bit-identity.  Serial runs
    # also take their turn below; their median is the pure execution
    # time that the overhead estimate subtracts out.
    reference = _make_runner("serial", label="dispatch-serial")[0].run(specs)

    walls: Dict[str, List[float]] = {mode: [] for mode in ["serial"] + modes}
    for rep in range(REPEATS):
        order = list(walls) if rep % 2 == 0 else list(reversed(walls))
        for mode in order:
            walls[mode].append(timed_sweep(mode, specs, reference))
    exec_per_cell = statistics.median(walls["serial"]) / n

    results = []
    for mode in modes:
        wall = quartiles(walls[mode])
        overhead = quartiles([
            1e3 * max(0.0, w / n - exec_per_cell / JOBS) for w in walls[mode]
        ])
        results.append({
            "mode": mode,
            "cells": n,
            "workers": JOBS,
            "bit_identical": True,
            "wall_s": wall,
            "throughput_cells_per_s": n / wall["median"],
            "per_cell_overhead_ms": overhead,
        })
        print(
            f"{mode:7s} {n} cells x {JOBS} workers, {REPEATS} sweeps: "
            f"wall {wall['median']:.3f}s [{wall['q1']:.3f}-"
            f"{wall['q3']:.3f}], per-cell overhead "
            f"{overhead['median']:.2f}ms [{overhead['q1']:.2f}-"
            f"{overhead['q3']:.2f}], bit-identical"
        )

    out = {
        "benchmark": "dispatch",
        "cells": args.cells,
        "tasks_per_cell": args.total,
        "workers": JOBS,
        "repeats": REPEATS,
        "exec_seconds_per_cell_serial": exec_per_cell,
        "serial_wall_s": quartiles(walls["serial"]),
        "bit_identical": all(r["bit_identical"] for r in results),
        "modes": results,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
