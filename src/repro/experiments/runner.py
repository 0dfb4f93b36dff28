"""Command-line entry point for the experiment harnesses.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig4 --scale 0.05 --seed 1
    python -m repro.experiments all --scale 0.02 --jobs 8
    python -m repro.experiments all --scale 0.02 --no-cache
    python -m repro.experiments trace fig4 --trace-out traces/
    python -m repro.experiments fig7 --trace

``trace <fig>`` re-runs one harness with structured tracing on: every
simulation exports a Chrome-trace JSON (open in Perfetto or
``chrome://tracing``) and a JSONL event stream, plus a per-sweep
``manifest.json``.  ``--trace`` does the same for a normal subcommand.
Traced runs bypass the result cache.  See ``docs/observability.md``.

Exit codes distinguish who is at fault: ``0`` success (including runs
that completed after retries), ``2`` user error (bad arguments or
configuration), ``3`` an internal crash worth a bug report, ``4`` one
or more cells exhausted their retry budget on infrastructure failures
(worker crashes/timeouts/lease expiries) — the results are incomplete
and a re-run (or ``--resume``) is warranted.  See ``docs/robustness.md``
for ``--resume``, ``--run-timeout`` and ``--max-attempts``, and
``docs/cluster.md`` for ``--cluster``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from typing import Callable, Dict

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings
from repro.sweep import default_cache_dir, pop_stats
from repro.experiments.fig4_corunner import run_fig4
from repro.experiments.fig5_distribution import run_fig5
from repro.experiments.fig6_worktime import run_fig6
from repro.experiments.fig7_dvfs import run_fig7
from repro.experiments.fig8_sensitivity import run_fig8
from repro.experiments.fig9_kmeans import run_fig9
from repro.experiments.fig10_heat import run_fig10
from repro.experiments.fig_faults import run_chaos, run_faults
from repro.experiments.seeds import run_seeds
from repro.experiments.table1_features import run_table1
from repro.experiments.verify import run_verify

#: Exit codes: argparse itself uses 2 for bad flags; we fold every user
#: configuration mistake into the same code and reserve 3 for our bugs.
EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_INTERNAL_ERROR = 3
#: One or more sweep cells exhausted their retry budget (crash/timeout/
#: lease-expiry): the run finished but its results are incomplete.
EXIT_EXHAUSTED = 4

_HARNESSES: Dict[str, Callable] = {
    "table1": lambda settings: run_table1(),
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig_faults": run_faults,
    "chaos": run_chaos,
    "seeds": run_seeds,
    "verify": run_verify,
}


def main(argv=None) -> int:
    """CLI entry point: parse arguments, run harnesses, print reports."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_HARNESSES) + ["all", "trace"],
        help="which artifact to regenerate ('trace <fig>' re-runs one "
        "harness with structured tracing on)",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="the harness to trace (only with the 'trace' subcommand)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="fraction of the paper's task/iteration counts (default 0.05; "
        "1.0 = paper scale)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the simulation sweeps "
        "(default: os.cpu_count())",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"result-cache directory (default: {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="variance-aware replication: re-run each sweep cell over "
        "derived seeds until its scalar metrics' relative CI is below "
        "--ci (see docs/performance.md)",
    )
    parser.add_argument(
        "--ci",
        type=float,
        default=0.02,
        metavar="FRAC",
        help="adaptive target: relative 95%% CI half-width per cell "
        "(default 0.02 = ±2%%)",
    )
    parser.add_argument(
        "--min-seeds",
        type=int,
        default=3,
        help="adaptive: replicates every cell gets before the CI rule "
        "applies (default 3)",
    )
    parser.add_argument(
        "--max-seeds",
        type=int,
        default=12,
        help="adaptive: hard per-cell replicate budget (default 12)",
    )
    parser.add_argument(
        "--batch-runs",
        default="auto",
        metavar="{auto,off,N}",
        help="batched replicate execution under --adaptive: 'auto' packs "
        "each round's same-cell replicates into one batched run, 'off' "
        "forces scalar runs, N caps batch width (default auto; no effect "
        "without --adaptive — see docs/performance.md)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record structured traces for every run (implies --trace-out "
        "traces/ unless given; traced runs bypass the result cache)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="trace export directory (Chrome JSON + JSONL + manifest per "
        "sweep; implies --trace)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="live terminal dashboard on stderr while sweeps run (implies "
        "telemetry recording; see docs/observability.md)",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="write a standalone HTML telemetry report (report.html, with "
        "sparklines) next to each sweep's manifest after the run",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="DIR",
        help="telemetry artifact directory (metrics.jsonl, metrics.prom, "
        "manifest.json, report.html under DIR/<sweep>/; default "
        "telemetry/; implies --report)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run wall-clock budget; a run past it is killed and "
        "retried (default: unlimited)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="attempts per run for worker crashes/timeouts before the "
        "cell is recorded as failed (default 2)",
    )
    parser.add_argument(
        "--cluster",
        default=None,
        metavar="ADDR",
        help="where the sweep coordinator listens: 'inproc' (the "
        "self-contained --jobs path, also for single-spec rounds), or a "
        "'tcp://host:port' address where remote workers "
        "(python -m repro.cluster.worker --connect ADDR) join (see "
        "docs/cluster.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay cells completed by a previously interrupted sweep "
        "from its checkpoint instead of recomputing them",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile each harness (cProfile + per-phase wall-clock "
        "accounting; forces --jobs 1 and bypasses the result cache; "
        "writes phases.json / profile.collapsed / profile.pstats under "
        "--profile-out)",
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="DIR",
        help="profile artifact directory (default profiles/<experiment>/; "
        "implies --profile)",
    )
    args = parser.parse_args(argv)
    if args.profile_out:
        args.profile = True
    if args.report_out:
        args.report = True

    if args.experiment == "trace":
        if args.target not in _HARNESSES:
            parser.error(
                "trace needs a harness to re-run, e.g. 'trace fig4' "
                f"(choose from {', '.join(sorted(_HARNESSES))})"
            )
        args.trace = True
        names = [args.target]
    elif args.target is not None:
        parser.error("a target is only valid with the 'trace' subcommand")
    elif args.experiment == "all":
        # "verify" re-runs every harness and "chaos" is the CI smoke
        # (a strict subset of fig_faults); keep both separate commands.
        names = sorted(n for n in _HARNESSES if n not in ("verify", "chaos"))
    else:
        names = [args.experiment]
    trace_out = args.trace_out if args.trace_out else (
        "traces" if args.trace else None
    )

    if args.profile:
        # Phase accounting lives in the parent process, so profiled runs
        # are single-process; cached results would hide the work we want
        # to measure.
        jobs = 1
        use_cache = False
    else:
        jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
        use_cache = not args.no_cache
    try:
        settings = ExperimentSettings(
            scale=args.scale,
            seed=args.seed,
            jobs=jobs,
            cache_dir=args.cache_dir,
            use_cache=use_cache,
            trace_out=trace_out,
            adaptive=args.adaptive,
            ci=args.ci,
            min_seeds=args.min_seeds,
            max_seeds=args.max_seeds,
            run_timeout=args.run_timeout,
            max_attempts=args.max_attempts,
            resume=args.resume,
            cluster=args.cluster,
            batch_runs=args.batch_runs,
            watch=args.watch,
            report=args.report,
            telemetry_out=args.report_out,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    pop_stats()  # drop anything accumulated before this invocation
    total_exhausted = 0
    for name in names:
        start = time.perf_counter()
        try:
            if args.profile:
                from repro.profile import Profiler

                result, report = Profiler().run(
                    _HARNESSES[name], settings, label=name
                )
                print(report.render())
                out_dir = args.profile_out or os.path.join("profiles", name)
                paths = report.write(out_dir)
                print(f"[profile artifacts under {out_dir}/: "
                      f"{', '.join(sorted(os.path.basename(p) for p in paths.values()))}]")
            else:
                result = _HARNESSES[name](settings)
        except ConfigurationError as exc:
            # A bad knob combination the settings check couldn't see
            # (e.g. a harness rejecting a flag): the user's to fix.
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USER_ERROR
        except KeyboardInterrupt:
            print(
                f"\ninterrupted during {name}; re-run with --resume to "
                "pick up completed cells",
                file=sys.stderr,
            )
            raise
        except Exception:
            # Anything else is our bug, not the user's: say so loudly
            # and exit with a distinct code for scripts/CI.
            traceback.print_exc()
            print(
                f"internal error while regenerating {name} — this is a "
                "bug in the harness, please report it",
                file=sys.stderr,
            )
            return EXIT_INTERNAL_ERROR
        elapsed = time.perf_counter() - start
        print(result.report())
        stats = pop_stats()
        hits = sum(s.hits for s in stats)
        unique = sum(s.unique for s in stats)
        cache_note = (
            f", cache {hits}/{unique} hits" if unique and not args.no_cache
            else ""
        )
        failures = sum(s.failures for s in stats)
        failure_note = f", {failures} runs FAILED" if failures else ""
        exhausted = sum(s.exhausted for s in stats)
        total_exhausted += exhausted
        exhausted_note = (
            f" ({exhausted} exhausted their retry budget)" if exhausted
            else ""
        )
        print(
            f"[{name} regenerated in {elapsed:.1f}s wall"
            f"{cache_note}{failure_note}{exhausted_note}]"
        )
        if trace_out:
            print(
                f"[traces + manifests under {trace_out}/<sweep>/ — open the "
                ".chrome.json files in Perfetto]"
            )
        if settings.telemetry_enabled:
            tele_root = settings.telemetry_out or trace_out or "telemetry"
            artifacts = "metrics.jsonl, metrics.prom, manifest.json"
            if settings.report:
                artifacts += ", report.html"
            print(f"[telemetry under {tele_root}/<sweep>/: {artifacts}]")
        print()
    if total_exhausted:
        print(
            f"error: {total_exhausted} run(s) exhausted their retry "
            "budget — results are incomplete (re-run, or --resume to "
            "keep completed cells)",
            file=sys.stderr,
        )
        return EXIT_EXHAUSTED
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
