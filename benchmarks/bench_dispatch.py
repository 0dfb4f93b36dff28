"""Per-cell dispatch overhead of each sweep dispatch path.

Runs one overhead-dominated sweep — many tiny ``single`` cells differing
only in their seed — serially and through each dispatch path (local
process pool, inproc cluster, 2-worker TCP cluster), and reports wall
clock, throughput and per-cell overhead per path.

Each path's metrics are asserted **bit-identical** to the serial run
before its timing is reported: dispatch is transport and scheduling
only, it must never change a result.

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
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.sweep.engine import SweepRunner
from repro.sweep.spec import RunSpec

#: Workers per path — the acceptance scenario is a 2-worker TCP cluster.
JOBS = 2


def tiny_spec(seed: int, total: int) -> RunSpec:
    """One tiny cell: a short copy-kernel layered DAG, seed-varied.

    Replicates of one cell differ only in ``seed``, so every cell after
    the first delta-encodes to a few dozen bytes.
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
    if mode == "pool":
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
                isolate=False,
                reconnect_timeout=10.0,
            )
            for i in range(JOBS)
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return runner, workers


def bench_mode(
    mode: str,
    specs: List[RunSpec],
    reference: List[Dict[str, Any]],
    exec_seconds_per_cell: float,
) -> Dict[str, Any]:
    """One sweep through ``mode``: identity against serial, then timing."""
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
    n = len(specs)
    overhead = max(0.0, wall / n - exec_seconds_per_cell / JOBS)
    return {
        "mode": mode,
        "cells": n,
        "workers": JOBS,
        "bit_identical": True,
        "wall_s": wall,
        "throughput_cells_per_s": n / wall,
        "per_cell_overhead_ms": 1e3 * overhead,
    }


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

    # Serial reference: the ground truth for bit-identity, and the pure
    # execution time that the overhead estimate subtracts out.
    serial = SweepRunner(
        jobs=1, use_cache=False, progress=False, label="dispatch-serial"
    )
    start = time.perf_counter()
    reference = serial.run(specs)
    exec_per_cell = (time.perf_counter() - start) / len(specs)

    results = []
    for mode in modes:
        result = bench_mode(mode, specs, reference, exec_per_cell)
        results.append(result)
        print(
            f"{mode:7s} {result['cells']} cells x {JOBS} workers: "
            f"{result['wall_s']:.2f}s, per-cell overhead "
            f"{result['per_cell_overhead_ms']:.1f}ms, bit-identical"
        )

    out = {
        "benchmark": "dispatch",
        "cells": args.cells,
        "tasks_per_cell": args.total,
        "workers": JOBS,
        "exec_seconds_per_cell_serial": exec_per_cell,
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
