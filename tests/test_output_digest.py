"""Pinned outputs: the metrics of a small fixed spec grid, across commits.

Every other identity test compares two paths of the *same* tree.  This
one compares the tree with its history: each group of specs below is
run serially and uncached, through one :class:`RunBuilder` as a sweep
worker does, and the SHA-256 of its metrics is checked against the
digest committed here.

A change that alters any output on purpose must update the affected
digest and say why in CHANGES.md; a change meant to keep outputs (a
speed-up, a refactor) must leave every digest as it is.  Run this file
directly to print the current digests::

    PYTHONPATH=src python tests/test_output_digest.py
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import pytest

from repro.sweep import RunSpec
from repro.sweep.registry import RunBuilder, execute_spec

_RECORD_METRICS = (
    "makespan", "tasks_completed", "throughput", "core_busy",
    "priority_place_distribution",
)


def _single(scenario, scheduler, seed, kernel="matmul", parallelism=2,
            total=48, machine="jetson_tx2", metrics=_RECORD_METRICS):
    return RunSpec(
        kind="single",
        params={
            "workload": {"name": "layered", "kernel": kernel,
                         "parallelism": parallelism, "total": total},
            "machine": machine,
            "scheduler": scheduler,
            "scenario": scenario,
        },
        seed=seed,
        metrics=metrics,
    )


def _grid() -> Dict[str, List[RunSpec]]:
    schedulers = ("rws", "fa", "dam-c", "dam-p")
    return {
        "single-tx2_corunner": [
            _single({"name": "tx2_corunner", "kernel": kernel}, sched, seed,
                    kernel=kernel, metrics=metrics)
            for kernel in ("matmul", "copy")
            for sched in schedulers
            for seed in (0, 1)
            for metrics in (("throughput",), _RECORD_METRICS)
        ],
        "single-dvfs": [
            _single({"name": "dvfs", "cores": [0, 1, 2],
                     "half_period": 0.003}, sched, seed, kernel="copy",
                    total=96)
            for sched in schedulers
            for seed in (0, 1)
        ],
        "single-faults": [
            _single({"name": "faults", "crashes": [[1, 0.002, None]],
                     "stragglers": [[[2, 3], 0.001, 0.004, 0.25]]},
                    sched, seed,
                    metrics=("makespan", "throughput", "fault_stats",
                             "tasks_retried", "core_busy"))
            for sched in schedulers
            for seed in (0, 1)
        ],
        "single-live_corunner": [
            _single({"name": "live_corunner", "core": 0, "kernel": kernel},
                    sched, 0, kernel=kernel)
            for kernel in ("matmul", "copy")
            for sched in ("rws", "dam-c")
        ],
        "single-haswell16": [
            _single(None, sched, 3, parallelism=4, total=64,
                    machine="haswell16")
            for sched in ("rws", "dam-c")
        ],
        "kmeans_window": [
            RunSpec(
                kind="kmeans_window",
                params={"machine": "haswell16", "scheduler": sched,
                        "iterations": 8, "window": [2, 5]},
                seed=0,
            )
            for sched in ("rws", "dam-c")
        ],
        "heat_cluster": [
            RunSpec(
                kind="heat_cluster",
                params={"machine": "haswell_node", "scheduler": sched,
                        "nodes": 2, "iterations": 4,
                        "corunner": {"node": 0, "cores": [0, 1, 2, 3, 4],
                                     "cpu_share": 0.5,
                                     "memory_demand": 2.0}},
                seed=0,
            )
            for sched in ("rws", "dam-c")
        ],
    }


#: SHA-256 of each group's metrics (see :func:`_digest`).
PINNED = {
    "single-tx2_corunner": "c42c190389929ae494de661797bcc7b4b02b2a268b6baaff30cc29a00d7376ca",
    "single-dvfs": "c16f3ec0cfdc55b470931aa5d11ef9a83a62e87d4dfd10c83e115dbad363548c",
    "single-faults": "f32efa95dddc058511f10bd8219a39bd85a54517b990abc4440d93b322d357ac",
    "single-live_corunner": "f4859e89e780d4e0e9d3835fffeae77ec7b230abc82f44548eb1198a647e114d",
    "single-haswell16": "b92582de1de6743c13baa62c4e8f27a486d954706f11c2ae72c2cd8226ab8e2e",
    "kmeans_window": "b3e63738192616226a2cddc67758ae4ceafb2bcdda92df3ddec57afb07933ae9",
    "heat_cluster": "fc02ead6f06d830a8957f432336db6e20a351c7560bf8ab1c35edb9c3717d052",
}


def _digest(specs: List[RunSpec], builder: RunBuilder) -> str:
    """Hash of the canonical JSON of every spec's metrics, in order."""
    rows = [execute_spec(spec, builder) for spec in specs]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests() -> Dict[str, str]:
    builder = RunBuilder()
    return {name: _digest(specs, builder) for name, specs in _grid().items()}


@pytest.fixture(scope="module")
def digests() -> Dict[str, str]:
    return current_digests()


@pytest.mark.parametrize("group", sorted(_grid()))
def test_outputs_match_pinned_digest(digests, group):
    assert digests[group] == PINNED[group], (
        f"the metrics of {group!r} changed; if on purpose, update PINNED "
        "and say why in CHANGES.md"
    )


if __name__ == "__main__":  # pragma: no cover
    for name, digest in current_digests().items():
        print(f"    {name!r}: {digest!r},")
