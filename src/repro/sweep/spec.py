"""Declarative run specifications.

A :class:`RunSpec` describes one simulation run as plain data: which
executor wires it up (``kind``), its JSON-serializable parameters, the
seed, and the metric names to extract from the finished run.  Because a
spec is data, it can be hashed (for the on-disk result cache), pickled
(for the multiprocessing fan-out) and compared — a run becomes a pure
function ``spec -> metrics``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro._version import __version__
from repro.errors import ConfigurationError

#: Default metrics extracted by the generic ``single`` executor.
DEFAULT_METRICS: Tuple[str, ...] = ("makespan", "tasks_completed", "throughput")

#: Spec kind of a batched-replicate pseudo-run (see
#: :mod:`repro.core.batched`): its params embed N same-cell member specs
#: and its result is one payload per member.  Batch specs flow through
#: the sweep engine's dispatch machinery but are never cached as such.
BATCH_KIND = "replicate_batch"


def canonical(obj: Any) -> Any:
    """Normalize ``obj`` into canonical JSON-compatible data.

    Mappings become sorted dicts, sequences become lists; anything that is
    not JSON-representable raises :class:`ConfigurationError` so a
    non-declarative spec (e.g. one smuggling a callable) fails loudly at
    construction time instead of producing an unstable hash.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Mapping):
        out = {}
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"spec mapping keys must be strings, got {key!r}"
                )
            out[key] = canonical(obj[key])
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    raise ConfigurationError(
        f"spec values must be JSON-serializable data, got {type(obj).__name__}"
    )


def derive_seed(root_seed: int, *components: Any) -> int:
    """Derive a deterministic per-run seed from a root seed and labels.

    Stable across processes and Python versions (unlike ``hash``), so a
    parallel sweep seeds each run exactly as a serial one would.
    """
    payload = json.dumps([root_seed, canonical(list(components))])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def identity_key(identity: Mapping[str, Any]) -> str:
    """The cache key of a run identity (see :meth:`RunSpec.identity`).

    The one definition of the key format: :meth:`RunSpec.key` hashes a
    live spec's identity with it, and checkpoint replay re-hashes the
    identity recorded on each line to validate it.
    """
    payload = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, described entirely by data.

    Attributes
    ----------
    kind:
        Name of the registered executor that wires up and runs the spec
        (see :mod:`repro.sweep.registry`); ``"single"`` is the generic
        graph+machine+scheduler+scenario run.
    params:
        Executor parameters; must be JSON-serializable.
    seed:
        Root seed of the run's stochastic elements.
    metrics:
        Metric names the executor extracts from the finished run.
    tags:
        Free-form bookkeeping for the harness that emitted the spec
        (kernel name, parallelism, ...).  Tags are *excluded* from the
        cache key: they never influence the run itself.
    """

    kind: str = "single"
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    metrics: Tuple[str, ...] = DEFAULT_METRICS
    tags: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", canonical(self.params))
        object.__setattr__(self, "metrics", tuple(self.metrics))

    def identity(self) -> Dict[str, Any]:
        """The data that defines the run's outcome (tags excluded)."""
        return {
            "version": __version__,
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "metrics": sorted(self.metrics),
        }

    def key(self) -> str:
        """Content hash of the spec — the result-cache key.

        Includes the package version, so upgrading the package invalidates
        every cached result.  Memoized per spec object: the dispatch path
        touches the key once per lease, cache probe, checkpoint line and
        commit, and a frozen spec can never hash differently twice.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        digest = identity_key(self.identity())
        object.__setattr__(self, "_key", digest)
        return digest

    def features(self) -> Dict[str, Any]:
        """Structural features determining the run's *cost* (not outcome).

        Excludes the seed (replicates of one cell cost the same) and the
        trace config (orthogonal bookkeeping), so the predictive
        dispatcher can transfer observed wall times across seeds.
        """
        params = {k: v for k, v in self.params.items() if k != "trace"}
        return {"kind": self.kind, "params": params}

    def cost_key(self) -> str:
        """Content hash of :meth:`features` — the cost-model key.

        Memoized like :meth:`key`: straggler checks and ETA estimation
        call this every dispatch-loop tick.
        """
        cached = self.__dict__.get("_cost_key")
        if cached is not None:
            return cached
        payload = json.dumps(
            canonical(self.features()), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_cost_key", digest)
        return digest


def place_to_data(place) -> Tuple[int, int]:
    """Serialize an ExecutionPlace for a JSON metric payload."""
    return (place.leader, place.width)


def data_to_place(data):
    """Inverse of :func:`place_to_data`."""
    from repro.machine.topology import ExecutionPlace

    leader, width = data
    return ExecutionPlace(int(leader), int(width))
