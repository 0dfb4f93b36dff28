"""Structural DAG templates: build a shape once, instantiate cheaply.

Sweeps re-create the same DAG shapes thousands of times — every cell of
a figure builds a layered/fork-join/random graph whose *structure* is a
pure function of the generator's parameters (and seed).  A
:class:`DagTemplate` captures that structure from the first build; later
builds with the same parameters replay it by constructing the ``Task``
objects directly, skipping dependency validation, dedup and per-edge
bookkeeping in :meth:`~repro.graph.dag.TaskGraph.add_task`.

Instantiation is exactly equivalent to direct generation — same task
ids, kernels, priorities, labels, metadata (fresh dicts), dependency
counts, ``_dependents`` order and initial ready set — which is asserted
by property tests over every generator family.  Graphs using spawn
hooks (dynamic DAGs) are never templated.

The cache is per-process (sweep workers each warm their own) and keyed
by canonical generator parameters, like the sweep result cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graph.dag import TaskGraph
from repro.graph.task import Priority, Task, TaskState
from repro.kernels.base import KernelModel

#: Oldest templates are evicted beyond this many cached shapes.
TEMPLATE_CACHE_MAX = 256

#: node = (kernel, priority, label, metadata, dep_ids)
_Node = Tuple[KernelModel, Priority, str, dict, Tuple[int, ...]]


class DagTemplate:
    """A captured DAG structure, replayable into fresh :class:`TaskGraph`\\ s."""

    __slots__ = ("name", "nodes")

    def __init__(self, name: str, nodes: Tuple[_Node, ...]) -> None:
        self.name = name
        self.nodes = nodes

    @classmethod
    def capture(cls, graph: TaskGraph) -> Optional["DagTemplate"]:
        """Snapshot ``graph``'s structure, or ``None`` if not templatable.

        Only freshly built static graphs qualify: no completed tasks, no
        spawn hooks, ids contiguous from zero.
        """
        tasks = list(graph.tasks())
        if graph.completed_tasks or any(t.spawn is not None for t in tasks):
            return None
        deps: List[List[int]] = [[] for _ in tasks]
        for i, task in enumerate(tasks):
            if task.task_id != i:
                return None
            for child in task._dependents:
                deps[child.task_id].append(i)
        nodes = tuple(
            (task.kernel, task.priority, task.label, dict(task.metadata),
             tuple(deps[i]))
            for i, task in enumerate(tasks)
        )
        return cls(graph.name, nodes)

    def instantiate(self, name: Optional[str] = None) -> TaskGraph:
        """A fresh graph structurally identical to the captured one.

        Each task's slots are filled straight from its node, without
        ``Task.__init__``: the node already holds the normalized
        priority and the label, so only the metadata needs a fresh copy.
        """
        graph = TaskGraph(name or self.name)
        tasks = graph._tasks
        fresh = graph._fresh_ready
        new_task = Task.__new__
        waiting, ready = TaskState.WAITING, TaskState.READY
        built: List[Task] = []
        for task_id, (kernel, priority, label, metadata, dep_ids) in enumerate(
            self.nodes
        ):
            task = new_task(Task)
            task.task_id = task_id
            task.kernel = kernel
            task.priority = priority
            task.label = label
            task.metadata = dict(metadata) if metadata else {}
            task.spawn = None
            task._dependents = []
            if dep_ids:
                task.state = waiting
                task._pending_deps = len(dep_ids)
                for dep in dep_ids:
                    built[dep]._dependents.append(task)
            else:
                task.state = ready
                task._pending_deps = 0
                fresh.append(task)
            tasks[task_id] = task
            built.append(task)
        graph._next_id = len(built)
        return graph


_CACHE: Dict[tuple, DagTemplate] = {}
_STATS = {"hits": 0, "misses": 0, "bypasses": 0}


def kernel_cache_key(kernel: KernelModel) -> Optional[tuple]:
    """Canonical content key of a kernel, or ``None`` if not keyable."""
    try:
        state = tuple(sorted(vars(kernel).items()))
        hash(state)
    except TypeError:
        return None
    return (type(kernel).__module__, type(kernel).__qualname__, state)


def template_lookup(key: Optional[tuple]) -> Optional[DagTemplate]:
    """The cached template for ``key``, counting hit/miss/bypass stats."""
    if key is None:
        _STATS["bypasses"] += 1
        return None
    template = _CACHE.get(key)
    if template is None:
        _STATS["misses"] += 1
        return None
    _STATS["hits"] += 1
    return template


def template_store(key: Optional[tuple], graph: TaskGraph) -> None:
    """Capture and cache ``graph`` under ``key`` (no-op if not keyable)."""
    if key is None:
        return
    template = DagTemplate.capture(graph)
    if template is None:
        return
    while len(_CACHE) >= TEMPLATE_CACHE_MAX:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = template


def template_cache_stats() -> Dict[str, int]:
    """Hit/miss/bypass counters plus the current cache size."""
    out = dict(_STATS)
    out["size"] = len(_CACHE)
    return out


def clear_template_cache() -> None:
    """Drop all cached templates and reset the counters (for tests)."""
    _CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0
