"""Fault injection as an interference scenario.

:class:`FaultScenario` adapts a :class:`~repro.faults.plan.FaultPlan`
into the :class:`~repro.interference.base.InterferenceScenario` interface
so faults compose with co-runner/DVFS scenarios through the existing
``CompositeScenario`` and the sweep registry.  Installation registers a
:class:`FaultInjector` on the environment (``env.fault_injectors``);
every :class:`~repro.runtime.executor.SimulatedRuntime` later constructed
over the same speed model discovers it there and attaches, arming its
recovery machinery.

The split of responsibilities:

* the **injector** drives the *physics* — fault-scale transitions on the
  speed model (0 for a crash, a fraction for a straggler) at the plan's
  times, plus crash/heal notifications to attached runtimes;
* the **runtime** implements the *systems* response — lease-based death
  detection, queue reclaim, task retry with backoff, PTT invalidation
  (see ``docs/robustness.md``).

An empty plan installs an injector that schedules nothing; runs stay
bit-identical to fault-free ones (property-tested in
``tests/test_faults.py``).
"""

from __future__ import annotations

from typing import List

from repro.faults.plan import CoreCrash, FaultPlan, StragglerWindow
from repro.interference.base import InterferenceScenario
from repro.machine.speed import SpeedModel
from repro.machine.topology import Machine
from repro.sim.environment import Environment


class FaultInjector:
    """Executes one :class:`FaultPlan` against one speed model."""

    def __init__(
        self,
        env: Environment,
        speed: SpeedModel,
        machine: Machine,
        plan: FaultPlan,
    ) -> None:
        plan.validate_for(machine.num_cores)
        self.env = env
        self.speed = speed
        self.machine = machine
        self.plan = plan
        #: Runtimes notified of crash/heal transitions (a live co-runner
        #: setup shares one speed model between two runtimes; a crashed
        #: core is dead for both).
        self._runtimes: List[object] = []

    def attach(self, runtime) -> None:
        """Register a runtime for crash/heal notifications and arm it."""
        self._runtimes.append(runtime)
        runtime.enable_fault_recovery()

    def schedule(self) -> None:
        """Spawn one injection process per plan item (sorted for
        determinism: ties at the same timestamp fire in plan order)."""
        for crash in sorted(self.plan.crashes, key=lambda c: (c.at, c.core)):
            self.env.process(
                self._run_crash(crash), name=f"fault-crash-c{crash.core}"
            )
        for window in sorted(
            self.plan.stragglers, key=lambda s: (s.at, s.cores)
        ):
            self.env.process(
                self._run_straggler(window),
                name=f"fault-straggler-{'-'.join(map(str, window.cores))}",
            )

    def _run_crash(self, crash: CoreCrash):
        yield self.env.timeout(crash.at)
        self.speed.set_fault_scale([crash.core], 0.0)
        for runtime in self._runtimes:
            runtime.on_core_crashed(crash.core)
        if crash.duration is not None:
            yield self.env.timeout(crash.duration)
            self.speed.set_fault_scale([crash.core], 1.0)
            for runtime in self._runtimes:
                runtime.on_core_recovered(crash.core)

    def _run_straggler(self, window: StragglerWindow):
        yield self.env.timeout(window.at)
        self.speed.set_fault_scale(window.cores, window.slowdown)
        yield self.env.timeout(window.duration)
        self.speed.set_fault_scale(window.cores, 1.0)


class FaultScenario(InterferenceScenario):
    """Interference-scenario wrapper around a :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def install(
        self, env: Environment, speed: SpeedModel, machine: Machine
    ) -> FaultInjector:
        injector = FaultInjector(env, speed, machine, self.plan)
        injectors = getattr(env, "fault_injectors", None)
        if injectors is None:
            injectors = env.fault_injectors = []
            # Each injector holds the runtimes it notifies, which hold
            # the environment: let go of them when the simulation ends.
            env.on_close.append(injectors.clear)
        injectors.append(injector)
        injector.schedule()
        return injector
