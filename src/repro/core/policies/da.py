"""Dynamic asymmetry schedulers — the paper's proposal (Table 1 rows 5-7).

All three use the online PTT to detect dynamic asymmetry.  They differ in
how high-priority (critical) tasks are placed:

* ``DA`` — global search over *single-core* places, no moldability.
* ``DAM-C`` — global search minimizing parallel cost ``time x width``
  (Algorithm 1, line 8).
* ``DAM-P`` — global search minimizing predicted time (Algorithm 1,
  line 11), trading resource usage for critical-path speed; preferable at
  low DAG parallelism.

Low-priority tasks keep their core (data reuse) — rigid width 1 under DA,
width-molded by local search under DAM-C/DAM-P — and stay stealable.

All children are released into the waker's local WSQ (Figure 3: the core
completing a task wakes its dependents); the waker, having just freed up,
dequeues the critical child immediately (it is pushed last, LIFO pops it
first), runs Algorithm 1 and inserts the assembly at the head of the chosen
place's AQs.  High-priority tasks are steal-exempt so this decision is
honored.
"""

from __future__ import annotations

from repro.core.placement import (
    global_search_cost,
    global_search_performance,
    local_search_cost,
    width_one_places,
)
from repro.core.policies.base import SchedulerPolicy
from repro.graph.task import Task
from repro.machine.topology import ExecutionPlace, Machine
from repro.util.rng import SeedLike


class DaScheduler(SchedulerPolicy):
    """DA — dynamic asymmetry awareness without moldability."""

    name = "DA"
    asymmetry = "dynamic"
    moldability = False
    priority_placement = "n/a"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._single_places = ()

    def bind(
        self, machine: Machine, rng: SeedLike = 0, clock=None, backlog=None,
        tracer=None,
    ) -> None:
        super().bind(machine, rng, clock, backlog, tracer)
        self._single_places = tuple(width_one_places(machine))

    def _best_single_core(self, task: Task) -> ExecutionPlace:
        return global_search_performance(
            self.table(task),
            self._require_bound(),
            self._single_places,
            backlog=self.backlog,
        )

    def choose_place(self, task: Task, core: int) -> ExecutionPlace:
        self._require_bound()
        if task.is_high_priority:
            return self._best_single_core(task)
        return ExecutionPlace(core, 1)


class DamCScheduler(SchedulerPolicy):
    """DAM-C — dynamic asymmetry + moldability, targeting parallel cost.

    ``scalable_search=True`` switches the global search to the two-stage
    per-cluster index of :mod:`repro.core.scalable` (the paper's §4.1.1
    future-work item); the decisions are identical, the search touches
    ``O(clusters + one cluster)`` entries instead of every place.
    """

    name = "DAM-C"
    asymmetry = "dynamic"
    moldability = True
    priority_placement = "cost"

    def __init__(self, scalable_search: bool = False, **kwargs) -> None:
        super().__init__(**kwargs)
        self.scalable_search = bool(scalable_search)
        self._indexes: dict = {}

    def bind(self, machine, rng=0, clock=None, backlog=None, tracer=None) -> None:
        super().bind(machine, rng, clock, backlog, tracer)
        self._indexes = {}

    def _index(self, task: Task):
        from repro.core.scalable import ScalableSearchIndex

        index = self._indexes.get(task.type_name)
        if index is None:
            index = ScalableSearchIndex(self._require_bound(), self.table(task))
            index.observe()
            self._indexes[task.type_name] = index
        return index

    def _global(self, task: Task) -> ExecutionPlace:
        if self.scalable_search:
            return self._index(task).search_cost(backlog=self.backlog)
        return global_search_cost(
            self.table(task), self._require_bound(), backlog=self.backlog
        )

    def choose_place(self, task: Task, core: int) -> ExecutionPlace:
        machine = self._require_bound()
        if task.is_high_priority:
            return self._global(task)
        return local_search_cost(self.table(task), machine, core)


class DamPScheduler(DamCScheduler):
    """DAM-P — dynamic asymmetry + moldability, targeting performance."""

    name = "DAM-P"
    asymmetry = "dynamic"
    moldability = True
    priority_placement = "performance"

    def _global(self, task: Task) -> ExecutionPlace:
        if self.scalable_search:
            return self._index(task).search_performance(backlog=self.backlog)
        return global_search_performance(
            self.table(task), self._require_bound(), backlog=self.backlog
        )
