"""K-means clustering as a dynamic loop-parallel DAG (paper §4.2.2, Fig. 9).

Each iteration's assignment step is split into loop-partition tasks
(moldable, one per partition); the task holding the largest work unit is
marked high priority, per the paper.  A centroid-update task joins the
partitions and — through its spawn hook — inserts the next iteration's
tasks, making the DAG *dynamic*: tasks are created at runtime, exactly the
irregular-computation mode of §2.

``reference_kmeans`` is a real NumPy K-means used by the examples and to
derive realistic per-partition work weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.dag import TaskGraph
from repro.graph.task import Priority, Task
from repro.kernels.fixed import FixedWorkKernel
from repro.util.rng import SeedLike, make_rng


@dataclass(frozen=True)
class KMeansConfig:
    """Shape of the K-means workload.

    ``op_cost`` converts (points x clusters x features) distance ops into
    work units; the default makes a 16-partition iteration take a few
    milliseconds on a speed-1 core, comparable to the paper's per-iteration
    times.  ``skew`` is the size multiplier of the largest partition (the
    high-priority task's work unit).
    """

    n_points: int = 1_000_000
    n_clusters: int = 5
    n_features: int = 34
    partitions: int = 16
    iterations: int = 100
    op_cost: float = 6.8e-8
    skew: float = 1.6
    update_cost_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.n_points <= 0 or self.n_clusters <= 0 or self.n_features <= 0:
            raise ConfigurationError("n_points/n_clusters/n_features must be positive")
        if self.partitions <= 0 or self.iterations <= 0:
            raise ConfigurationError("partitions/iterations must be positive")
        if self.skew < 1.0:
            raise ConfigurationError(f"skew must be >= 1, got {self.skew}")

    def partition_sizes(self) -> List[int]:
        """Point counts per partition: uniform except one skewed partition."""
        weights = np.ones(self.partitions)
        weights[0] = self.skew
        sizes = np.floor(weights / weights.sum() * self.n_points).astype(int)
        sizes[0] += self.n_points - int(sizes.sum())
        return [int(s) for s in sizes]

    def assign_work(self, points: int) -> float:
        """Work units of an assignment task over ``points`` points."""
        return points * self.n_clusters * self.n_features * self.op_cost

    def update_work(self) -> float:
        """Work units of the centroid-update (reduction) task."""
        return self.assign_work(self.n_points) * self.update_cost_fraction / max(
            1, self.partitions
        )


IterationHook = Callable[[int], None]


def build_kmeans_graph(
    config: KMeansConfig,
    iteration_hooks: Optional[Dict[int, IterationHook]] = None,
) -> TaskGraph:
    """Construct the dynamic K-means DAG.

    Only iteration 0 exists up front; every update task's spawn hook
    inserts the next iteration while the runtime executes.
    ``iteration_hooks`` maps an iteration number to a callback fired when
    that iteration is released — the Fig. 9 harness uses this to switch
    interference on at iteration 20 and off at iteration 70.
    """
    graph = TaskGraph("kmeans")
    _Iterations(config, iteration_hooks).emit(0, graph, None)
    return graph


class _Iterations:
    """Emits the K-means DAG one iteration at a time.

    An update task's spawn hook is a partial of :meth:`emit`; this object
    refers to no task or graph, so a finished DAG is no reference cycle.
    """

    def __init__(
        self,
        config: KMeansConfig,
        hooks: Optional[Dict[int, IterationHook]],
    ) -> None:
        self.config = config
        self.sizes = config.partition_sizes()
        self.hooks = dict(hooks or {})
        self.update_kernel = FixedWorkKernel(
            "kmeans-update",
            work=config.update_work(),
            parallel_fraction=0.4,
            memory_intensity=0.3,
        )

    def emit(self, iteration: int, g: TaskGraph, after: Optional[Task]) -> None:
        """Add ``iteration``'s tasks to ``g``, released by ``after``."""
        hook = self.hooks.get(iteration)
        if hook is not None:
            hook(iteration)
        deps = [after] if after is not None else []
        assigns: List[Task] = []
        # All partitions share one task type ("kmeans-assign") — like
        # XiTAO, where the type is the C++ class — so the PTT sees one
        # table; the skewed partition simply contributes larger samples.
        for p, points in enumerate(self.sizes):
            kernel = FixedWorkKernel(
                "kmeans-assign",
                work=self.config.assign_work(points),
                parallel_fraction=0.85,
                memory_intensity=0.35,
                molding_overhead=0.05,
            )
            assigns.append(
                g.add_task(
                    kernel,
                    deps=deps,
                    priority=Priority.HIGH if p == 0 else Priority.LOW,
                    metadata={"iteration": iteration, "partition": p},
                )
            )
        spawn = None
        if iteration + 1 < self.config.iterations:
            spawn = partial(self.emit, iteration + 1)
        g.add_task(
            self.update_kernel,
            deps=assigns,
            priority=Priority.HIGH,
            metadata={"iteration": iteration, "role": "update"},
            spawn=spawn,
        )


def reference_kmeans(
    data: np.ndarray,
    n_clusters: int,
    iterations: int = 20,
    rng: SeedLike = 0,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Plain NumPy Lloyd's algorithm.

    Returns ``(centroids, labels, inertia)``.  Used by the examples to
    show the workload is a genuine computation, and by tests as a
    correctness oracle for the work model's operation counts.
    """
    if data.ndim != 2:
        raise ConfigurationError("data must be 2-D (points x features)")
    n = data.shape[0]
    if not (0 < n_clusters <= n):
        raise ConfigurationError("need 0 < n_clusters <= n_points")
    gen = make_rng(rng)
    centroids = data[gen.choice(n, size=n_clusters, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        # distances: (n, k)
        d2 = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for k in range(n_clusters):
            members = data[labels == k]
            if len(members):
                centroids[k] = members.mean(axis=0)
    inertia = float(((data - centroids[labels]) ** 2).sum())
    return centroids, labels, inertia
