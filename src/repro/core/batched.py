"""Batched replicate execution: N same-cell runs in one worker job.

Adaptive replication (:mod:`repro.sweep.adaptive`) re-runs one *cell* —
one parameter point — across derived seeds until its confidence interval
converges.  :func:`execute_batch` runs such replicates one after another
in a single job, which buys two things:

* one dispatch (one lease, one result) for N replicates;
* per-replicate error isolation: a replicate that raises resolves to its
  own error payload and never aborts its batchmates.

Each replicate is built by the worker's
:class:`~repro.sweep.registry.RunBuilder`, the same one that builds its
scalar runs, so batched and scalar replicates share the worker's machine
and kernel-profile table alike and their metrics are bit-identical
(property-tested).

Cells that cannot batch — fault injection enabled, kernels the template
cache cannot key (e.g. carrying live RNG state), non-``single``
executors such as the distributed runtime, traced runs — fall back to
scalar execution with the reason recorded in the sweep manifest; see
:func:`batch_ineligible_reason`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sweep.spec import BATCH_KIND, RunSpec


# ----------------------------------------------------------------------
# batch specs and eligibility
# ----------------------------------------------------------------------

def _scenario_has_faults(scenario: Optional[Mapping[str, Any]]) -> bool:
    """Whether a declarative scenario mapping injects faults anywhere."""
    if scenario is None:
        return False
    name = scenario.get("name")
    if name == "faults":
        return True
    if name == "composite":
        return any(
            _scenario_has_faults(sub) for sub in scenario.get("scenarios", ())
        )
    return False


def batch_ineligible_reason(spec: RunSpec) -> Optional[str]:
    """Why ``spec`` cannot batch, or ``None`` when it is eligible.

    The reason string is what the sweep manifest surfaces as
    ``{"batched": false, "reason": ...}``:

    * ``"executor:<kind>"`` — non-``single`` executors: the distributed
      and application runtimes wire their own environments;
    * ``"traced"`` — a traced run must skip the result cache so its
      trace files are always written, and the engine caches every
      batched replicate;
    * ``"faults"``, ``"workload"`` / ``"kernel-unkeyable"`` — fault
      injection, and workloads whose DAG or kernels the template cache
      cannot key (e.g. kernels carrying live RNG state).  A batch builds
      each replicate exactly as a scalar run, so these no longer guard
      its results; they keep batching to the plain cells it was
      measured on.
    """
    if spec.kind != "single":
        return f"executor:{spec.kind}"
    params = spec.params
    if params.get("trace") is not None:
        return "traced"
    if _scenario_has_faults(params.get("scenario")):
        return "faults"
    workload = params.get("workload") or {}
    if workload.get("name") != "layered":
        return "workload"
    try:
        from repro.graph.templates import kernel_cache_key
        from repro.sweep.registry import make_kernel

        kernel = make_kernel(
            workload.get("kernel"), workload.get("tile")
        )
    except Exception:
        return "kernel-unkeyable"
    if kernel_cache_key(kernel) is None:
        return "kernel-unkeyable"
    return None


def can_batch(spec: RunSpec) -> bool:
    """Whether ``spec`` is eligible for batched replicate execution.

    ``can_batch(spec)`` is ``batch_ineligible_reason(spec) is None`` —
    see that function for the fallback taxonomy (and for why traced
    runs are excluded while metered ones are not).
    """
    return batch_ineligible_reason(spec) is None


def batch_group_key(spec: RunSpec) -> str:
    """Identity of a spec's *cell*: everything but the seed.

    Replicates of one cell share this key, so pending replicates that
    hash alike can execute as one batch.
    """
    import hashlib
    import json

    payload = json.dumps(
        {
            "kind": spec.kind,
            "params": spec.params,
            "metrics": sorted(spec.metrics),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_batch_spec(members: Sequence[RunSpec]) -> RunSpec:
    """The pseudo-spec that executes ``members`` as one batched run.

    The members ride along as plain data under ``params["runs"]``, so
    the batch job moves through the sweep engine's existing machinery
    (worker pipes, crash retry, predictive dispatch) like any other
    spec.  Batch pseudo-specs are never cached or checkpointed as such —
    the engine records their per-replicate results under the members'
    own keys.
    """
    if len(members) < 2:
        raise ConfigurationError(
            f"a batch needs >= 2 replicates, got {len(members)}"
        )
    base_key = batch_group_key(members[0])
    for member in members[1:]:
        if batch_group_key(member) != base_key:
            raise ConfigurationError(
                "batch members must be replicates of one cell"
            )
    return RunSpec(
        kind=BATCH_KIND,
        params={
            "runs": [
                {
                    "kind": m.kind,
                    "params": dict(m.params),
                    "seed": m.seed,
                    "metrics": list(m.metrics),
                }
                for m in members
            ]
        },
        seed=members[0].seed,
        metrics=(),
        tags={"batch": len(members)},
    )


def parse_batch_spec(spec: RunSpec) -> List[RunSpec]:
    """Reconstruct the member :class:`RunSpec`\\ s of a batch pseudo-spec."""
    if spec.kind != BATCH_KIND:
        raise ConfigurationError(f"not a batch spec: kind={spec.kind!r}")
    runs = spec.params.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ConfigurationError("batch spec carries no member runs")
    return [
        RunSpec(
            kind=entry["kind"],
            params=entry["params"],
            seed=entry["seed"],
            metrics=tuple(entry["metrics"]),
        )
        for entry in runs
    ]


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def execute_batch(
    specs: Sequence[RunSpec], builder=None
) -> List[Dict[str, Any]]:
    """Run N same-cell replicates one after another in one job.

    Returns one payload per replicate, in order: ``{"ok": metrics}`` on
    success or ``{"err": {"type", "message"}}`` when that replicate's
    construction or execution raised (mirroring the scalar engine's
    deterministic-failure capture; one broken replicate never aborts its
    batchmates).  Each replicate is built by ``builder`` (the worker's
    :class:`~repro.sweep.registry.RunBuilder`, else a fresh one) exactly
    as a scalar run of its spec would be.
    """
    from repro.sweep.registry import RunBuilder, _execute_single

    if not specs:
        return []
    base_key = batch_group_key(specs[0])
    for spec in specs[1:]:
        if batch_group_key(spec) != base_key:
            raise ConfigurationError(
                "batch members must be replicates of one cell"
            )
    if not can_batch(specs[0]):
        raise ConfigurationError(
            "cell is not batchable; use the scalar path"
        )

    builder = builder or RunBuilder()
    payloads: List[Dict[str, Any]] = []
    for spec in specs:
        try:
            metrics = _execute_single(spec, builder)
        except Exception as exc:
            payloads.append(
                {"err": {"type": type(exc).__name__, "message": str(exc)}}
            )
        else:
            payloads.append({"ok": metrics})
    return payloads


def run_batch_spec(spec: RunSpec, builder=None) -> Dict[str, Any]:
    """Executor body of the :data:`~repro.sweep.spec.BATCH_KIND` kind."""
    return {"replicates": execute_batch(parse_batch_spec(spec), builder)}


__all__ = [
    "BATCH_KIND",
    "batch_group_key",
    "batch_ineligible_reason",
    "can_batch",
    "execute_batch",
    "make_batch_spec",
    "parse_batch_spec",
    "run_batch_spec",
]
