"""Algorithm 1's placement searches.

* *Local search* — keep the task on its current core (and hence resource
  partition), mold only the width: minimize ``PTT(core, w) * w`` over the
  widths legal in the core's cluster.  Used for low-priority tasks to
  preserve data reuse across dependent tasks.
* *Global search (cost)* — sweep every execution place on the machine and
  minimize the parallel cost ``PTT(c, w) * w`` (DAM-C).
* *Global search (performance)* — sweep every place and minimize the pure
  predicted time ``PTT(c, w)`` (DAM-P), which is more aggressive about
  using wide places when parallelism is scarce.

Zero entries (unexplored places) have cost 0 and therefore always win,
which implements the paper's "every place is evaluated at least once".
Ties are broken by place order ``(leader, width)`` for determinism.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.ptt import PerformanceTraceTable
from repro.errors import SchedulingError
from repro.machine.topology import ExecutionPlace, Machine

#: Places whose predicted value is within this relative tolerance of the
#: minimum count as tied; ties break toward the least-loaded leader.
TIE_TOLERANCE = 0.10

Backlog = Callable[[int], float]


def _argmin_place(
    places: Iterable[ExecutionPlace],
    key: Callable[[ExecutionPlace], float],
    backlog: Optional[Backlog] = None,
) -> ExecutionPlace:
    """Place minimizing ``key``; near-ties resolved by leader backlog.

    On a symmetric machine many places predict (almost) the same time, and
    a pure first-wins argmin would pin every critical task to one core
    regardless of its queue depth.  When ``backlog`` is given, candidates
    within :data:`TIE_TOLERANCE` of the best value are re-ranked by the
    leader's current backlog — the natural tie-break any real
    implementation applies (the paper's PTT values dither enough to do
    this implicitly).
    """
    candidates: List[ExecutionPlace] = []
    best_value = float("inf")
    for place in places:
        value = key(place)
        if value < best_value:
            best_value = value
            candidates = [place]
        elif value == best_value:
            candidates.append(place)
    if not candidates:
        raise SchedulingError("no candidate execution places")
    winner = candidates[0]
    if backlog is None:
        return winner
    # Scatter only across places of the winning width: the tie-break must
    # never second-guess the molding decision itself, just avoid piling
    # every critical task onto one equally-fast core.
    threshold = best_value * (1.0 + TIE_TOLERANCE)
    tied = [
        p for p in places if p.width == winner.width and key(p) <= threshold
    ]

    def place_backlog(place: ExecutionPlace) -> float:
        # A moldable assembly cannot start until *every* member is free,
        # so the relevant load is the busiest member, not the leader.
        return max(
            backlog(core)
            for core in range(place.leader, place.leader + place.width)
        )

    return min(tied, key=lambda p: (place_backlog(p), p))


def _vector_search(
    machine: Machine,
    keys: "np.ndarray",
    slots: Optional["np.ndarray"],
    backlog: Optional[Backlog],
) -> ExecutionPlace:
    """Argmin over precomputed per-slot ``keys``, scalar-identical.

    ``np.argmin`` returns the first occurrence of the minimum, which in
    slot order is exactly the scalar first-wins argmin over places sorted
    by ``(leader, width)``.  ``slots`` restricts the search to a subset
    (e.g. the width-one places); ``keys`` is then already the restricted
    array and indexes into ``slots``.
    """
    best = int(np.argmin(keys))
    places = machine.places
    winner = places[best] if slots is None else places[int(slots[best])]
    if backlog is None:
        return winner
    best_value = float(keys[best])
    threshold = best_value * (1.0 + TIE_TOLERANCE)
    width = winner.width
    members = machine._place_members
    if slots is None:
        tied_slots = np.nonzero(
            (machine._place_widths == width) & (keys <= threshold)
        )[0]
    else:
        tied_slots = slots[np.nonzero(keys <= threshold)[0]]
    best_pair = None
    best_place = winner
    for slot in tied_slots:
        place = places[int(slot)]
        load = max(backlog(core) for core in members[int(slot)])
        pair = (load, place)
        if best_pair is None or pair < best_pair:
            best_pair = pair
            best_place = place
    return best_place


def _scan_cost(
    machine: Machine,
    values: Sequence[float],
    backlog: Optional[Backlog],
) -> ExecutionPlace:
    """Pure-scalar sweep minimizing ``time x width`` over all places.

    Identical decisions to ``_vector_search(machine, values * widths, …)``:
    each key is the same IEEE-double product, the strict ``<`` keeps the
    first minimum exactly like ``np.argmin``, and the tie-break visits the
    same slots in the same order.
    """
    widths = machine._place_widths_list
    best = 0
    best_key = values[0] * widths[0]
    for slot in range(1, len(widths)):
        key = values[slot] * widths[slot]
        if key < best_key:
            best_key = key
            best = slot
    places = machine.places
    winner = places[best]
    if backlog is None:
        return winner
    threshold = best_key * (1.0 + TIE_TOLERANCE)
    width = winner.width
    members = machine._place_members
    best_pair = None
    best_place = winner
    for slot in range(len(widths)):
        if widths[slot] != width or values[slot] * widths[slot] > threshold:
            continue
        place = places[slot]
        load = max(backlog(core) for core in members[slot])
        pair = (load, place)
        if best_pair is None or pair < best_pair:
            best_pair = pair
            best_place = place
    return best_place


def _scan_performance(
    machine: Machine,
    values: Sequence[float],
    slots: Optional[Sequence[int]],
    backlog: Optional[Backlog],
) -> ExecutionPlace:
    """Pure-scalar sweep minimizing predicted time, ``_vector_search``-exact.

    ``slots`` (when given) restricts the sweep to a subset, e.g. the
    width-one places; its tie-break then has no width filter, mirroring
    the restricted branch of :func:`_vector_search`.
    """
    places = machine.places
    if slots is None:
        best = 0
        best_key = values[0]
        for slot in range(1, len(values)):
            key = values[slot]
            if key < best_key:
                best_key = key
                best = slot
        winner = places[best]
    else:
        best = slots[0]
        best_key = values[best]
        for slot in slots:
            key = values[slot]
            if key < best_key:
                best_key = key
                best = slot
        winner = places[best]
    if backlog is None:
        return winner
    threshold = best_key * (1.0 + TIE_TOLERANCE)
    members = machine._place_members
    best_pair = None
    best_place = winner
    if slots is None:
        width = winner.width
        pool = range(len(values))
    else:
        width = None
        pool = slots
    for slot in pool:
        if values[slot] > threshold:
            continue
        if width is not None and places[slot].width != width:
            continue
        place = places[slot]
        load = max(backlog(core) for core in members[slot])
        pair = (load, place)
        if best_pair is None or pair < best_pair:
            best_pair = pair
            best_place = place
    return best_place


def local_search_cost(
    ptt: PerformanceTraceTable, machine: Machine, core: int
) -> ExecutionPlace:
    """Best width at ``core``'s aligned places, minimizing time x width."""
    entries = getattr(machine, "_local_search_entries", None)
    if entries is None or not hasattr(ptt, "_values_list"):
        candidates = [
            machine.local_place_for(core, w) for w in machine.widths_at(core)
        ]
        return _argmin_place(candidates, lambda p: ptt.predict(p) * p.width)
    values = ptt._values_list
    best_key = float("inf")
    best_place = None
    # Strict less-than keeps the first (narrowest-width) winner, exactly
    # like the scalar first-wins argmin over the widths-ordered entries.
    for slot, width, place in entries[core]:
        key = values[slot] * width
        if key < best_key:
            best_key = key
            best_place = place
    if best_place is None:
        raise SchedulingError("no candidate execution places")
    return best_place


def global_search_cost(
    ptt: PerformanceTraceTable,
    machine: Machine,
    places: Optional[Sequence[ExecutionPlace]] = None,
    backlog: Optional[Backlog] = None,
) -> ExecutionPlace:
    """Best place machine-wide, minimizing parallel cost (DAM-C line 8)."""
    if places is None:
        values = getattr(ptt, "_values_list", None)
        if values is not None and hasattr(machine, "_place_widths_list"):
            return _scan_cost(machine, values, backlog)
        if hasattr(ptt, "predict_all"):
            keys = ptt.predict_all() * machine._place_widths
            return _vector_search(machine, keys, None, backlog)
    pool = machine.places if places is None else places
    return _argmin_place(pool, lambda p: ptt.predict(p) * p.width, backlog)


def global_search_performance(
    ptt: PerformanceTraceTable,
    machine: Machine,
    places: Optional[Sequence[ExecutionPlace]] = None,
    backlog: Optional[Backlog] = None,
) -> ExecutionPlace:
    """Best place machine-wide, minimizing predicted time (DAM-P line 11)."""
    values = getattr(ptt, "_values_list", None)
    if values is not None and hasattr(machine, "_place_widths_list"):
        if places is None:
            return _scan_performance(machine, values, None, backlog)
        if places is getattr(machine, "_width_one_places", None):
            return _scan_performance(
                machine, values, machine._width_one_slots_list, backlog
            )
    if hasattr(ptt, "predict_all"):
        if places is None:
            return _vector_search(machine, ptt.predict_all(), None, backlog)
        if places is getattr(machine, "_width_one_places", None):
            slots = machine._width_one_slots
            return _vector_search(
                machine, ptt.predict_all()[slots], slots, backlog
            )
    pool = machine.places if places is None else places
    return _argmin_place(pool, lambda p: ptt.predict(p), backlog)


def width_one_places(machine: Machine) -> Sequence[ExecutionPlace]:
    """All single-core places (the DA scheduler's search domain).

    Returns the machine's precomputed tuple; the vectorized
    :func:`global_search_performance` recognizes it by identity and takes
    the subset fast path.
    """
    cached = getattr(machine, "_width_one_places", None)
    if cached is not None:
        return cached
    return [p for p in machine.places if p.width == 1]
