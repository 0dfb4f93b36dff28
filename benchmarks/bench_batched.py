"""Wall-clock evidence for batched replicate execution (BENCH_batched.json).

``--mode cell`` sweeps one adaptive cell at jobs=1 with
``batch_runs="off"`` and ``"auto"`` in paired fresh subprocesses and
asserts the aggregated metrics bit-identical (``==``) before any timing
is reported.  The default ``--mode sweep`` is the whole-adaptive-sweep
comparison below.

One measurement, two comparisons:

``batched_sweep``
    The fig5-style replicated sweep (matmul P=2 under the modelled TX2
    co-runner, five scheduler cells, adaptive at a 2%/95% CI target)
    executed twice in this tree — ``batch_runs="off"`` (scalar
    replicates) versus ``batch_runs="auto"`` (each adaptive round's
    same-cell replicates packed into one batched run).  The aggregated
    results are asserted **bit-identical** (``==``, not approx) before
    any timing is reported, so the speedup compares equal work at equal
    confidence.

``pre_pr`` (merged by hand)
    The same ``batch_runs="off"``-equivalent sweep timed on the commit
    before this change, alternating before/after processes to cancel
    host drift.  Reproduction recipe in docs/performance.md.

Usage::

    PYTHONPATH=src python benchmarks/bench_batched.py [--out out.json]
    # on a pre-change tree (no --batch-runs support):
    PYTHONPATH=src python benchmarks/bench_batched.py --scalar-only
"""

from __future__ import annotations

import argparse
import json
import time


def _fig5_style_cells(scale: float) -> list:
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.fig4_corunner import fig4_spec

    settings = ExperimentSettings(scale=scale)
    return [
        fig4_spec(settings, "matmul", 2, sched)
        for sched in ("rws", "fa", "fam-c", "da", "dam-c")
    ]


def _run_adaptive(cells, batch_runs, ci, min_seeds, max_seeds):
    from repro.sweep import AdaptivePolicy, SweepRunner

    kwargs = {}
    if batch_runs is not None:
        kwargs["batch_runs"] = batch_runs
    runner = SweepRunner(jobs=1, use_cache=False, progress=False, **kwargs)
    policy = AdaptivePolicy(ci=ci, min_seeds=min_seeds, max_seeds=max_seeds)
    start = time.perf_counter()
    results = runner.run_adaptive(cells, policy)
    return results, time.perf_counter() - start, runner.last_stats


def time_batched_sweep(
    scale: float = 0.02,
    ci: float = 0.02,
    min_seeds: int = 3,
    max_seeds: int = 12,
    repeats: int = 3,
    scalar_only: bool = False,
) -> dict:
    """Best-of-N scalar vs batched adaptive sweep, interleaved.

    The two modes alternate within each repeat so host-load drift hits
    both equally; per-replicate aggregated metrics must compare equal
    before the timing counts.
    """
    cells = _fig5_style_cells(scale)
    best_off = best_auto = float("inf")
    stats = None
    for _ in range(repeats):
        ref, off_elapsed, _ = _run_adaptive(
            cells, "off" if not scalar_only else None, ci, min_seeds,
            max_seeds,
        )
        best_off = min(best_off, off_elapsed)
        if scalar_only:
            continue
        got, auto_elapsed, stats = _run_adaptive(
            cells, "auto", ci, min_seeds, max_seeds
        )
        if got != ref:
            raise AssertionError(
                "batched adaptive sweep diverged from the scalar path"
            )
        best_auto = min(best_auto, auto_elapsed)
    payload = {
        "cells": len(cells),
        "scale": scale,
        "ci": ci,
        "min_seeds": min_seeds,
        "max_seeds": max_seeds,
        "scalar_seconds": best_off,
    }
    if not scalar_only:
        payload.update(
            batched_seconds=best_auto,
            batched_speedup=best_off / best_auto,
            bit_identical=True,
            batches=stats.batches,
            batched_runs=stats.batched_runs,
            executed=stats.executed,
        )
    return payload


_CELL_CHILD = """\
import json, sys, time
sys.path.insert(0, {src!r})
import dataclasses
from repro.experiments.common import ExperimentSettings
from repro.experiments.fig4_corunner import fig4_spec
from repro.sweep import AdaptivePolicy, SweepRunner

cell = fig4_spec(
    ExperimentSettings(scale={scale}), "matmul", {parallelism}, {scheduler!r}
)
if {machine!r} != "jetson_tx2":
    params = dict(cell.params)
    params["machine"] = {machine!r}
    params.pop("scenario", None)
    cell = dataclasses.replace(cell, params=params)
runner = SweepRunner(
    jobs=1, use_cache=False, progress=False, batch_runs={batch_runs!r}
)
policy = AdaptivePolicy(ci=0.001, min_seeds={seeds}, max_seeds={seeds})
start = time.perf_counter()
results = runner.run_adaptive([cell], policy)
elapsed = time.perf_counter() - start
stats = runner.last_stats
print(json.dumps({{
    "elapsed": elapsed,
    "results": results,
    "batched_runs": stats.batched_runs,
    "batches": stats.batches,
}}))
"""


def time_batched_cell(
    scale: float = 0.005,
    seeds: int = 12,
    repeats: int = 7,
    scheduler: str = "fa",
    parallelism: int = 8,
    machine: str = "haswell16",
) -> dict:
    """Adaptive-cell batched-vs-scalar, paired fresh subprocesses.

    One eligible replicated cell swept at jobs=1 with
    ``batch_runs="off"`` (scalar replicates) versus ``batch_runs="auto"``
    (one batch), each measurement in a fresh subprocess,
    modes alternating within every repeat so host-load drift cancels.
    Aggregated per-cell metrics are asserted ``==`` across modes before
    any timing is reported; best-of-N per side.
    """
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

    def _child(batch_runs: str) -> dict:
        code = _CELL_CHILD.format(
            src=src, scale=scale, parallelism=parallelism,
            scheduler=scheduler, machine=machine, batch_runs=batch_runs,
            seeds=seeds,
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True,
            capture_output=True, text=True,
        )
        return json.loads(out.stdout)

    best_off = best_auto = float("inf")
    ref = batches = batched_runs = None
    for _ in range(repeats):
        off = _child("off")
        auto = _child("auto")
        if ref is None:
            ref = off["results"]
        if off["results"] != ref or auto["results"] != ref:
            raise AssertionError(
                "batched adaptive cell diverged from the scalar path"
            )
        best_off = min(best_off, off["elapsed"])
        best_auto = min(best_auto, auto["elapsed"])
        batches = auto["batches"]
        batched_runs = auto["batched_runs"]
    return {
        "scheduler": scheduler,
        "parallelism": parallelism,
        "machine": machine,
        "scale": scale,
        "seeds": seeds,
        "repeats": repeats,
        "bit_identical": True,
        "batched_runs": batched_runs,
        "batches": batches,
        "scalar_seconds": best_off,
        "batched_seconds": best_auto,
        "batched_speedup": best_off / best_auto,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="write JSON here")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--mode", choices=("sweep", "cell"), default="sweep",
        help="sweep: adaptive batch_runs on/off comparison; cell: "
        "subprocess-paired adaptive-cell batched-vs-scalar comparison",
    )
    parser.add_argument(
        "--scheduler", default="da", help="cell scheduler (--mode cell)"
    )
    parser.add_argument(
        "--machine", default="haswell16",
        help="registry machine for the cell (--mode cell)",
    )
    parser.add_argument(
        "--scalar-only", action="store_true",
        help="time only the scalar sweep (for pre-change trees that have "
        "no batch_runs knob)",
    )
    args = parser.parse_args(argv)

    payload = {}
    if args.mode == "sweep":
        payload["batched_sweep"] = time_batched_sweep(
            scale=args.scale, repeats=args.repeats,
            scalar_only=args.scalar_only,
        )
    else:
        payload["batched_cell"] = time_batched_cell(
            scale=args.scale, repeats=args.repeats,
            scheduler=args.scheduler, machine=args.machine,
        )
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
