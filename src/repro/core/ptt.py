"""Performance Trace Table (paper §4.1.1).

One PTT exists per *task type*.  It holds one entry per execution place
``(leader core, resource width)``, each tracking the execution time of that
task type at that place as observed by the leader core.  Entries start at
zero, which guarantees every place is evaluated at least once (a zero
predicted cost always wins the minimization).  Updates fold new samples with
a weighted average — by default ``updated = (4*old + new) / 5`` — so at
least three consistent measurements are needed before the table accepts a
new performance regime, making the model resilient to short isolated
events.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.machine.topology import ExecutionPlace, Machine
from repro.trace.events import PttUpdateEvent
from repro.trace.tracer import NULL_TRACER, Tracer


class PerformanceTraceTable:
    """The per-task-type trace table.

    Parameters
    ----------
    machine:
        Supplies the legal execution places (the table's index space).
    new_weight / total_weight:
        The folding ratio: ``updated = ((total-new)*old + new*sample) /
        total``.  The paper's default is 1:4, i.e. ``new_weight=1,
        total_weight=5`` (written "1/5" in Fig. 8).
    tracer / label:
        An enabled tracer makes every :meth:`update` emit a
        :class:`~repro.trace.events.PttUpdateEvent` tagged with ``label``
        (the owning task type) — the raw data of PTT-convergence curves.
    """

    def __init__(
        self,
        machine: Machine,
        new_weight: int = 1,
        total_weight: int = 5,
        tracer: Tracer = NULL_TRACER,
        label: str = "",
    ) -> None:
        if not (0 < new_weight <= total_weight):
            raise ConfigurationError(
                f"need 0 < new_weight <= total_weight, got "
                f"{new_weight}/{total_weight}"
            )
        self.machine = machine
        self.new_weight = int(new_weight)
        self.total_weight = int(total_weight)
        self.tracer = tracer
        self.label = label
        # The slot map is a pure function of the static topology, so the
        # machine's precomputed copy is shared rather than rebuilt per
        # task type (a PTT is created per type, per run).
        self._index: Dict[ExecutionPlace, int] = getattr(
            machine, "_place_index", None
        ) or {place: i for i, place in enumerate(machine.places)}
        self._values = np.zeros(len(machine.places), dtype=np.float64)
        self._samples = np.zeros(len(machine.places), dtype=np.int64)
        #: Python-float mirror of ``_values``: scalar indexing into a list
        #: is ~3x faster than into an ndarray, and the placement searches
        #: read entries far more often than updates write them.  Kept
        #: exactly in sync by update_slot / mark_core_*.
        self._values_list: list = [0.0] * len(machine.places)

    def _slot(self, place: ExecutionPlace) -> int:
        try:
            return self._index[place]
        except KeyError:
            raise ConfigurationError(
                f"{place} is not a legal execution place on "
                f"{self.machine.name}"
            ) from None

    def predict(self, place: ExecutionPlace) -> float:
        """Predicted execution time at ``place`` (0 = not yet explored)."""
        return self._values_list[self._slot(place)]

    def predict_all(self) -> np.ndarray:
        """All predicted times, indexed by place slot (``machine.places``
        order).

        This is the live array, not a copy — callers must treat it as
        read-only.  It is the fast path of the vectorized searches in
        :mod:`repro.core.placement`.
        """
        return self._values

    def samples(self, place: ExecutionPlace) -> int:
        """Number of observations folded into ``place``'s entry."""
        return int(self._samples[self._slot(place)])

    def update(self, place: ExecutionPlace, observed: float) -> float:
        """Fold one observed execution time; returns the new entry value.

        The first sample replaces the zero initializer directly (a weighted
        average with the 0 sentinel would under-predict and freeze
        exploration prematurely).
        """
        return self.update_slot(self._slot(place), observed)

    def update_slot(self, slot: int, observed: float) -> float:
        """:meth:`update` addressed by place slot (``machine.places[slot]``).

        The runtime resolves a place to its slot once per completion and
        then updates without re-hashing the ``ExecutionPlace`` key.
        """
        if observed < 0:
            raise ConfigurationError(f"observed time must be >= 0, got {observed}")
        old = self._values_list[slot]
        if self._samples[slot] == 0:
            value = float(observed)
        else:
            w_new = self.new_weight
            w_old = self.total_weight - w_new
            value = (w_old * old + w_new * observed) / self.total_weight
        self._values[slot] = value
        self._values_list[slot] = float(value)
        self._samples[slot] += 1
        if self.tracer.enabled:
            place = self.machine.places[slot]
            self.tracer.emit(
                PttUpdateEvent(
                    t=self.tracer.now(),
                    type_name=self.label,
                    leader=place.leader,
                    width=place.width,
                    observed=float(observed),
                    old=old,
                    new=value,
                    samples=int(self._samples[slot]),
                )
            )
        return value

    def mark_core_lost(self, core: int) -> int:
        """Pin every place containing ``core`` to ``inf``.

        A zero entry would *attract* placements (unexplored always wins
        the minimization), so a lost core must be the opposite: no search
        can ever prefer a place that touches it.  Returns the number of
        places pinned.
        """
        slots = self._core_slots(core)
        self._values[slots] = np.inf
        self._values_list = self._values.tolist()
        return len(slots)

    def mark_core_recovered(self, core: int) -> None:
        """Reset every place containing ``core`` to unexplored (0, 0 samples).

        The outage may have changed the core's performance regime, so the
        pre-crash history is discarded and the paper's "evaluate every
        place at least once" rule re-explores it from scratch.
        """
        slots = self._core_slots(core)
        self._values[slots] = 0.0
        self._samples[slots] = 0
        self._values_list = self._values.tolist()

    def _core_slots(self, core: int) -> np.ndarray:
        """Slots of all places containing ``core``."""
        slots = getattr(self.machine, "_slots_by_core", None)
        if slots is not None and 0 <= core < len(slots):
            return slots[core]
        return np.array(
            [
                slot for place, slot in self._index.items()
                if place.leader <= core < place.leader + place.width
            ],
            dtype=np.intp,
        )

    def entries(self) -> Iterator[Tuple[ExecutionPlace, float]]:
        """Iterate ``(place, predicted time)`` in place order."""
        return zip(self.machine.places, self._values_list)

    def explored_fraction(self) -> float:
        """Fraction of places with at least one sample."""
        return float(np.count_nonzero(self._samples)) / len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PTT places={len(self._values)} "
            f"explored={self.explored_fraction():.0%}>"
        )


class PttStore:
    """The collection of PTTs, one per task type, sharing one fold ratio."""

    def __init__(
        self,
        machine: Machine,
        new_weight: int = 1,
        total_weight: int = 5,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.machine = machine
        self.new_weight = int(new_weight)
        self.total_weight = int(total_weight)
        self.tracer = tracer
        self._tables: Dict[str, PerformanceTraceTable] = {}
        #: Cores currently confirmed dead; tables created after the loss
        #: must be born with those places already pinned to ``inf``.
        self._lost_cores: set = set()

    def table(self, type_name: str) -> PerformanceTraceTable:
        """Get (or lazily create) the PTT for ``type_name``."""
        table = self._tables.get(type_name)
        if table is None:
            table = PerformanceTraceTable(
                self.machine, self.new_weight, self.total_weight,
                tracer=self.tracer, label=type_name,
            )
            for core in self._lost_cores:
                table.mark_core_lost(core)
            self._tables[type_name] = table
        return table

    def mark_core_lost(self, core: int) -> None:
        """Invalidate ``core``'s rows in every table, present and future."""
        self._lost_cores.add(core)
        for table in self._tables.values():
            table.mark_core_lost(core)

    def mark_core_recovered(self, core: int) -> None:
        """Re-open ``core``'s rows for exploration in every table."""
        self._lost_cores.discard(core)
        for table in self._tables.values():
            table.mark_core_recovered(core)

    def known_types(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def __len__(self) -> int:
        return len(self._tables)
