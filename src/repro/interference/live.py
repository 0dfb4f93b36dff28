"""Live co-runner: an actual second application sharing the machine.

Where :class:`~repro.interference.corunner.CorunnerInterference` *models*
the co-runner's effect as a CPU-share factor plus bandwidth demand,
:class:`LiveCorunner` runs the real thing: a second
:class:`~repro.runtime.executor.SimulatedRuntime` executes an endless
chain of kernel tasks pinned to the chosen core, sharing the foreground's
speed model.  The OS time-slicing between the two applications emerges
from the speed model's per-core multiplexing, and the co-runner's memory
traffic is whatever its kernel's cost model says — nothing is asserted,
everything is produced by execution, exactly like the paper's setup
(§4.2.2: "a single chain of tasks composed of matrix multiplication
kernels").
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies.pinned import PinnedScheduler
from repro.errors import ConfigurationError
from repro.graph.dag import TaskGraph
from repro.graph.task import Task
from repro.interference.base import InterferenceScenario
from repro.kernels.base import KernelModel
from repro.kernels.matmul import MatMulKernel
from repro.machine.speed import SpeedModel
from repro.machine.topology import Machine
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import SimulatedRuntime
from repro.sim.environment import Environment


def _regrow(g: TaskGraph, task: Task) -> None:
    """Spawn hook of every chain task: append the chain's next task."""
    g.add_task(task.kernel, deps=[task], spawn=_regrow,
               metadata={"corunner": True})


def _endless_chain(kernel: KernelModel, name: str) -> TaskGraph:
    """A chain DAG that regrows itself forever through spawn hooks."""
    graph = TaskGraph(name)
    graph.add_task(kernel, spawn=_regrow, metadata={"corunner": True})
    return graph


class LiveCorunner(InterferenceScenario):
    """A genuinely executing co-runner application.

    Parameters
    ----------
    core:
        The core the co-runner is pinned to.
    kernel:
        Kernel of the chain's tasks; a matmul kernel gives CPU
        interference, a copy kernel memory interference (paper §5.1).
    start:
        Simulated time at which the co-runner begins executing.

    After installation, :attr:`runtime` exposes the background runtime
    (e.g. to count how many co-runner tasks completed).
    """

    def __init__(
        self,
        core: int = 0,
        kernel: Optional[KernelModel] = None,
        start: float = 0.0,
    ) -> None:
        if core < 0:
            raise ConfigurationError(f"core must be >= 0, got {core}")
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        self.core = int(core)
        self.kernel = kernel or MatMulKernel()
        self.start = float(start)
        self.runtime: Optional[SimulatedRuntime] = None

    def install(
        self, env: Environment, speed: SpeedModel, machine: Machine
    ) -> None:
        graph = _endless_chain(self.kernel, f"corunner-c{self.core}")
        self.runtime = SimulatedRuntime(
            env,
            machine,
            graph,
            PinnedScheduler(self.core),
            # The co-runner only ever uses one core; generous max_time
            # since it never finishes by design.
            config=RuntimeConfig(max_time=1e12),
            speed=speed,
            name=f"corunner-c{self.core}",
        )
        # The chain never finishes: stop it when the simulation ends.
        env.on_close.append(self.runtime.stop)
        if self.start > 0:
            def _delayed():
                yield env.timeout(self.start)
                self.runtime.start()
            env.process(_delayed(), name="corunner-start")
        else:
            self.runtime.start()

    @property
    def tasks_completed(self) -> int:
        """Co-runner tasks finished so far."""
        if self.runtime is None:
            return 0
        return self.runtime.graph.completed_tasks
