"""Whole-machine topology and execution-place enumeration."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.machine.cluster import ClusterSpec
from repro.machine.core import CoreSpec


class ExecutionPlace(NamedTuple):
    """The paper's execution place: ``(leader core, resource width)``.

    A place of width ``w`` spans cores ``leader .. leader + w - 1``, all
    within one cluster and aligned to a multiple of ``w`` from the cluster
    start (XiTAO elastic places).
    """

    leader: int
    width: int

    def __str__(self) -> str:
        return f"(C{self.leader},{self.width})"


class Machine:
    """A machine built from clusters of cores.

    The machine knows nothing about time: it is the static topology against
    which a :class:`~repro.machine.speed.SpeedModel` tracks dynamic state.
    Nothing writes to it after construction (its numpy arrays are
    read-only), so one instance can serve many runs.

    Parameters
    ----------
    clusters:
        Cluster specs with contiguous, non-overlapping core ranges starting
        at 0.
    cores:
        One :class:`CoreSpec` per global core id, consistent with the
        cluster ranges.
    memory_bandwidth:
        Capacity of each memory domain, in demand units (see
        :class:`~repro.machine.speed.SpeedModel`); missing domains get
        ``DEFAULT_BANDWIDTH``.
    name:
        Human-readable machine name for reports.
    """

    DEFAULT_BANDWIDTH = 4.0

    def __init__(
        self,
        clusters: Sequence[ClusterSpec],
        cores: Sequence[CoreSpec],
        memory_bandwidth: Dict[str, float] | None = None,
        name: str = "machine",
    ) -> None:
        if not clusters:
            raise TopologyError("machine needs at least one cluster")
        self.name = name
        self.clusters: Tuple[ClusterSpec, ...] = tuple(clusters)
        self.cores: Tuple[CoreSpec, ...] = tuple(cores)

        # -- validate cluster coverage ---------------------------------
        expected_next = 0
        seen_names = set()
        for cluster in self.clusters:
            if cluster.name in seen_names:
                raise TopologyError(f"duplicate cluster name {cluster.name!r}")
            seen_names.add(cluster.name)
            if cluster.first_core != expected_next:
                raise TopologyError(
                    f"cluster {cluster.name!r} starts at core {cluster.first_core}, "
                    f"expected {expected_next} (clusters must be contiguous)"
                )
            expected_next = cluster.first_core + cluster.num_cores
        if expected_next != len(self.cores):
            raise TopologyError(
                f"clusters cover {expected_next} cores but {len(self.cores)} "
                "core specs were given"
            )
        for i, core in enumerate(self.cores):
            if core.core_id != i:
                raise TopologyError(
                    f"core spec at position {i} has core_id {core.core_id}"
                )

        self._cluster_by_name: Dict[str, ClusterSpec] = {
            c.name: c for c in self.clusters
        }
        self._cluster_of_core: Dict[int, ClusterSpec] = {}
        for cluster in self.clusters:
            for cid in cluster.core_ids:
                if self.cores[cid].cluster != cluster.name:
                    raise TopologyError(
                        f"core {cid} declares cluster {self.cores[cid].cluster!r} "
                        f"but lies in range of {cluster.name!r}"
                    )
                self._cluster_of_core[cid] = cluster

        self.memory_bandwidth: Dict[str, float] = {}
        domains = {c.memory_domain for c in self.clusters}
        provided = dict(memory_bandwidth or {})
        for domain in sorted(domains):
            self.memory_bandwidth[domain] = provided.pop(domain, self.DEFAULT_BANDWIDTH)
        if provided:
            raise TopologyError(
                f"bandwidth given for unknown domains: {sorted(provided)}"
            )

        # Precompute all legal execution places, sorted by (leader, width):
        places: List[ExecutionPlace] = []
        for cluster in self.clusters:
            for width in cluster.widths:
                for leader in cluster.leaders_for_width(width):
                    places.append(ExecutionPlace(leader, width))
        places.sort()
        self._places: Tuple[ExecutionPlace, ...] = tuple(places)
        self._valid_places = frozenset(places)
        self._places_by_leader: Dict[int, Tuple[ExecutionPlace, ...]] = {}
        for cid in range(len(self.cores)):
            self._places_by_leader[cid] = tuple(
                p for p in places if p.leader == cid
            )

        # Precomputed search-support structures.  The placement searches
        # (core/placement.py) and the PTT run many thousands of times per
        # simulated second; everything derivable from the static topology
        # is built once here so the hot paths are pure array lookups.
        self._place_index: Dict[ExecutionPlace, int] = {
            place: i for i, place in enumerate(self._places)
        }
        self._place_widths = np.array(
            [p.width for p in self._places], dtype=np.float64
        )
        self._place_members: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(range(p.leader, p.leader + p.width)) for p in self._places
        )
        self._slots_by_core: Tuple[np.ndarray, ...] = tuple(
            np.array(
                [
                    i for i, p in enumerate(self._places)
                    if p.leader <= cid < p.leader + p.width
                ],
                dtype=np.intp,
            )
            for cid in range(len(self.cores))
        )
        self._width_one_places: Tuple[ExecutionPlace, ...] = tuple(
            p for p in self._places if p.width == 1
        )
        self._width_one_slots = np.array(
            [self._place_index[p] for p in self._width_one_places],
            dtype=np.intp,
        )
        for array in (self._place_widths, self._width_one_slots,
                      *self._slots_by_core):
            array.setflags(write=False)
        # Python-scalar mirrors of the numpy search arrays: the placement
        # argmins iterate a dozen-odd places per call, where list indexing
        # and float arithmetic beat ndarray scalar access several-fold.
        self._place_widths_list: Tuple[float, ...] = tuple(
            float(w) for w in self._place_widths
        )
        self._width_one_slots_list: Tuple[int, ...] = tuple(
            int(s) for s in self._width_one_slots
        )
        # Per core: ((slot, width, place), ...) for the local-search
        # candidates local_place_for(core, w) over widths_at(core).
        local_entries: List[Tuple[Tuple[int, int, ExecutionPlace], ...]] = []
        for cid in range(len(self.cores)):
            entries = []
            for width in self._cluster_of_core[cid].widths:
                place = self.local_place_for(cid, width)
                entries.append((self._place_index[place], width, place))
            local_entries.append(tuple(entries))
        self._local_search_entries: Tuple[
            Tuple[Tuple[int, int, ExecutionPlace], ...], ...
        ] = tuple(local_entries)

    # -- basic queries ----------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def cluster(self, name: str) -> ClusterSpec:
        """Look up a cluster by name."""
        try:
            return self._cluster_by_name[name]
        except KeyError:
            raise TopologyError(f"no cluster named {name!r}") from None

    def cluster_of(self, core_id: int) -> ClusterSpec:
        """The cluster containing ``core_id``."""
        self._check_core(core_id)
        return self._cluster_of_core[core_id]

    def domain_of(self, core_id: int) -> str:
        """Memory domain of ``core_id``."""
        return self.cluster_of(core_id).memory_domain

    def _check_core(self, core_id: int) -> None:
        if not (0 <= core_id < len(self.cores)):
            raise TopologyError(
                f"core {core_id} out of range [0, {len(self.cores)})"
            )

    # -- execution places ---------------------------------------------------
    @property
    def places(self) -> Tuple[ExecutionPlace, ...]:
        """All legal execution places on this machine."""
        return self._places

    def is_valid_place(self, place: ExecutionPlace) -> bool:
        """Whether ``place`` is aligned, in-range, and within one cluster."""
        return place in self._valid_places

    def validate_place(self, place: ExecutionPlace) -> ExecutionPlace:
        """Return ``place`` or raise :class:`TopologyError`."""
        if not self.is_valid_place(place):
            raise TopologyError(f"invalid execution place {place} on {self.name}")
        return place

    def place_cores(self, place: ExecutionPlace) -> Tuple[int, ...]:
        """Member core ids of ``place`` (leader first)."""
        slot = self._place_index.get(place)
        if slot is None:
            self.validate_place(place)
        return self._place_members[slot]

    def places_led_by(self, core_id: int) -> Tuple[ExecutionPlace, ...]:
        """Places whose leader is ``core_id`` (the *local search* domain)."""
        self._check_core(core_id)
        return self._places_by_leader[core_id]

    def local_place_for(self, core_id: int, width: int) -> ExecutionPlace:
        """The aligned place of ``width`` that *contains* ``core_id``.

        Used when a worker wants to mold a task around its own core: the
        leader is snapped to the alignment grid so the place stays legal.
        """
        cluster = self.cluster_of(core_id)
        if width not in cluster.widths:
            raise TopologyError(
                f"width {width} illegal in cluster {cluster.name!r}"
            )
        offset = (core_id - cluster.first_core) // width * width
        return ExecutionPlace(cluster.first_core + offset, width)

    def widths_at(self, core_id: int) -> Tuple[int, ...]:
        """Legal widths in the cluster of ``core_id``."""
        return self.cluster_of(core_id).widths

    def max_base_speed(self) -> float:
        """Fastest static core speed (used for normalization)."""
        return max(c.base_speed for c in self.cores)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{c.name}x{c.num_cores}" for c in self.clusters)
        return f"<Machine {self.name}: {parts}>"
