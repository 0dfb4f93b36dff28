"""Wall-clock evidence for the adaptive sweep executor (BENCH_adaptive.json).

Two measurements:

``interference_run``
    One interference-heavy simulation (fig4 cell with a *live* co-runner
    chain time-slicing core 0, plus the DVFS square wave) — the workload
    dominated by :class:`~repro.machine.speed.SpeedModel` re-timing.

``replicated_sweep``
    A replicated fig5-style sweep (matmul P=2 under the modelled
    co-runner, throughput metric, many seeds per scheduler cell) executed
    two ways at the same target CI width: fixed replication at
    ``max_seeds`` per cell versus variance-aware adaptive replication
    that stops each cell once its 95% CI half-width is below the target.

Usage::

    PYTHONPATH=src python benchmarks/bench_adaptive.py [--out out.json]

Run it on the commit before and after the change and merge the two JSON
payloads into ``BENCH_adaptive.json`` (see docs/performance.md).
"""

from __future__ import annotations

import argparse
import json
import time


def time_interference_run(repeats: int = 3) -> dict:
    """Best-of-N wall time of one interference-heavy fig4/fig7-style run.

    A live co-runner chain time-slices core 0 (shared-core re-timing on
    every chain task), a windowed modelled co-runner toggles the A57
    cluster (batched cpu-share + bandwidth transitions), and the §5.2
    DVFS square wave toggles the Denver cluster — every re-timing path
    of the speed model is exercised at once.
    """
    from repro.graph.generators import layered_synthetic_dag
    from repro.interference.composite import CompositeScenario
    from repro.interference.corunner import CorunnerInterference
    from repro.interference.dvfs_events import DvfsInterference
    from repro.kernels.matmul import MatMulKernel
    from repro.machine.dvfs import PeriodicSquareWave
    from repro.machine.presets import jetson_tx2
    from repro.interference.live import LiveCorunner
    from repro.session import run_graph

    def scenario():
        return CompositeScenario([
            LiveCorunner(core=0, kernel=MatMulKernel()),
            CorunnerInterference(
                cores=(2, 3, 4, 5), cpu_share=0.5, memory_demand=2.0,
                start=0.05, end=0.25,
            ),
            DvfsInterference(
                cores=(0, 1),
                wave=PeriodicSquareWave(half_period=0.02),
            ),
        ])

    best = float("inf")
    result = None
    for _ in range(repeats):
        graph = layered_synthetic_dag(MatMulKernel(), 4, 1500)
        start = time.perf_counter()
        result = run_graph(graph, jetson_tx2(), "dam-c", scenario=scenario())
        best = min(best, time.perf_counter() - start)
    return {"seconds": best, "throughput": result.throughput}


def _fig5_style_specs(seeds: int) -> list:
    """Matmul P=2 under the tx2 co-runner, replicated over ``seeds``."""
    from repro.experiments.common import ExperimentSettings
    from repro.experiments.fig4_corunner import fig4_spec

    settings = ExperimentSettings(scale=0.02)
    out = []
    for sched in ("rws", "fa", "fam-c", "da", "dam-c"):
        base = fig4_spec(settings, "matmul", 2, sched)
        out.append(base)
    return out


def time_replicated_sweep(ci: float = 0.02, min_seeds: int = 3,
                          max_seeds: int = 12, jobs: int = 1) -> dict:
    """Fixed ``max_seeds`` replication vs adaptive at target ``ci``."""
    from repro.sweep import AdaptivePolicy, SweepRunner
    from repro.sweep.adaptive import replicate_spec

    cells = _fig5_style_specs(max_seeds)

    fixed_specs = [
        replicate_spec(spec, rep) for spec in cells for rep in range(max_seeds)
    ]
    runner = SweepRunner(jobs=jobs, use_cache=False, progress=False)
    start = time.perf_counter()
    runner.run(fixed_specs)
    fixed_elapsed = time.perf_counter() - start

    policy = AdaptivePolicy(ci=ci, min_seeds=min_seeds, max_seeds=max_seeds)
    runner = SweepRunner(jobs=jobs, use_cache=False, progress=False)
    start = time.perf_counter()
    runner.run_adaptive(cells, policy)
    adaptive_elapsed = time.perf_counter() - start
    stats = runner.last_stats
    return {
        "cells": len(cells),
        "ci": ci,
        "min_seeds": min_seeds,
        "max_seeds": max_seeds,
        "fixed_runs": len(fixed_specs),
        "fixed_seconds": fixed_elapsed,
        "adaptive_runs": stats.executed,
        "adaptive_seconds": adaptive_elapsed,
        "speedup": fixed_elapsed / adaptive_elapsed,
        "seeds_saved": stats.seeds_saved,
    }


def main(argv=None) -> int:
    """Run both measurements and print (or write) the JSON payload."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="write JSON here")
    parser.add_argument("--skip-adaptive", action="store_true",
                        help="only the interference run (for 'before' "
                        "commits that predate the adaptive executor)")
    args = parser.parse_args(argv)

    payload = {"interference_run": time_interference_run()}
    if not args.skip_adaptive:
        payload["replicated_sweep"] = time_replicated_sweep()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
