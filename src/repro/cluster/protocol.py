"""Message vocabulary of the coordinator/worker conversation.

Every frame on a cluster connection is a JSON object with a ``"type"``
key.  The full protocol (see ``docs/cluster.md`` for the lifecycle):

Worker → coordinator
    ``register``   name, capacity and the pid of the worker's process.
    ``started``    a leased run began executing (arms the lease deadline).
    ``result``     lease outcome: ``ok`` + metrics payload (or a captured
                   exception) and wall seconds.  Workers record no
                   telemetry: the coordinator meters what they send.
    ``heartbeat``  periodic liveness ping with per-lease elapsed times.
    ``revoked``    acknowledges a revoke; the lease never started here.
    ``goodbye``    orderly departure (remaining leases reclaim instantly).

Coordinator → worker
    ``welcome``    registration accepted: the worker's name and the
                   coordinator's heartbeat interval.
    ``lease``      one cell to execute: lease id, cache key and the
                   spec's wire form (``"spec"``, see
                   :func:`spec_to_wire`).  One frame per lease.
    ``revoke``     return an *unstarted* lease (work stealing).
    ``shutdown``   sweep over; the worker loop exits.

Specs cross the wire as their constructor data — a spec is already
plain data (that is the whole point of :class:`~repro.sweep.spec.RunSpec`),
so serialization is lossless.  The worker rebuilds each lease's spec and
runs it only if ``spec.key()`` equals the lease's ``key``: a payload
that does not rebuild, or rebuilds another cell (say, under a different
package version, which changes every key), is answered with a
``kind="decode"`` result before anything executes.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.errors import ReproError
from repro.sweep.spec import RunSpec

MSG_REGISTER = "register"
MSG_WELCOME = "welcome"
MSG_LEASE = "lease"
MSG_REVOKE = "revoke"
MSG_REVOKED = "revoked"
MSG_STARTED = "started"
MSG_RESULT = "result"
MSG_HEARTBEAT = "heartbeat"
MSG_SHUTDOWN = "shutdown"
MSG_GOODBYE = "goodbye"


class SpecWireError(ReproError):
    """A lease's spec payload does not rebuild the cell it is keyed as.

    Raised eagerly, before the run starts: the worker reports it as a
    retryable ``kind="decode"`` result, never executes a malformed or
    mismatched spec.
    """


def spec_to_wire(spec: RunSpec) -> Dict[str, Any]:
    """The wire form of a spec (plain JSON data)."""
    return {
        "kind": spec.kind,
        "params": dict(spec.params),
        "seed": spec.seed,
        "metrics": list(spec.metrics),
        "tags": dict(spec.tags),
    }


def spec_from_wire(data: Any) -> RunSpec:
    """Rebuild a spec from its wire form; :class:`SpecWireError` if the
    payload is not one."""
    if not isinstance(data, Mapping):
        raise SpecWireError(
            f"spec wire data must be a mapping, got {type(data).__name__}"
        )
    kind = data.get("kind")
    params = data.get("params")
    seed = data.get("seed")
    metrics = data.get("metrics")
    tags = data.get("tags", {})
    if not isinstance(kind, str):
        raise SpecWireError(f"spec kind must be a string, got {kind!r}")
    if not isinstance(params, Mapping) or not isinstance(tags, Mapping):
        raise SpecWireError("spec params and tags must be mappings")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SpecWireError(f"spec seed must be an int, got {seed!r}")
    if not isinstance(metrics, (list, tuple)) or not all(
        isinstance(m, str) for m in metrics
    ):
        raise SpecWireError(
            f"spec metrics must be a list of strings, got {metrics!r}"
        )
    try:
        return RunSpec(
            kind=kind, params=params, seed=seed, metrics=tuple(metrics),
            tags=tags,
        )
    except ReproError as exc:
        raise SpecWireError(f"spec wire data rebuilds no spec: {exc}") from exc


__all__ = [
    "MSG_GOODBYE",
    "MSG_HEARTBEAT",
    "MSG_LEASE",
    "MSG_REGISTER",
    "MSG_RESULT",
    "MSG_REVOKE",
    "MSG_REVOKED",
    "MSG_SHUTDOWN",
    "MSG_STARTED",
    "MSG_WELCOME",
    "SpecWireError",
    "spec_from_wire",
    "spec_to_wire",
]
