"""Exception hierarchy for the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """An object was constructed or wired with invalid parameters."""


class TopologyError(ConfigurationError):
    """Invalid machine topology or execution place."""


class GraphError(ReproError):
    """Invalid task-graph structure (cycles, unknown tasks, bad edges)."""


class RuntimeStateError(ReproError):
    """The simulated runtime was driven through an illegal state change."""


class SchedulingError(ReproError):
    """A scheduling policy produced an unusable decision."""


class CommunicationError(ReproError):
    """Invalid use of the simulated MPI layer."""


class CommunicationTimeout(CommunicationError):
    """A fabric receive waited past its delivery timeout."""

    def __init__(self, dst: int, src: int, tag: int, timeout: float) -> None:
        super().__init__(
            f"recv(dst={dst}, src={src}, tag={tag}) saw no message within "
            f"{timeout} simulated seconds"
        )
        self.dst = dst
        self.src = src
        self.tag = tag
        self.timeout = timeout


class MessageDropped(CommunicationError):
    """A message exhausted its retransmit budget under an injected-loss
    fault model and was declared undeliverable."""

    def __init__(self, src: int, dst: int, tag: int, attempts: int) -> None:
        super().__init__(
            f"message {src}->{dst} (tag={tag}) dropped after {attempts} "
            f"transmission attempt(s)"
        )
        self.src = src
        self.dst = dst
        self.tag = tag
        self.attempts = attempts


class WorkerLost(RuntimeStateError):
    """A simulated worker's lease expired: the core is confirmed dead."""

    def __init__(self, core: int, crashed_at: float, detected_at: float) -> None:
        super().__init__(
            f"worker on core {core} lost (crashed at t={crashed_at:.6f}, "
            f"lease expired at t={detected_at:.6f})"
        )
        self.core = core
        self.crashed_at = crashed_at
        self.detected_at = detected_at


class TaskRetryExhausted(RuntimeStateError):
    """A task kept landing on dying workers past its retry budget."""

    def __init__(self, task_id: int, attempts: int) -> None:
        super().__init__(
            f"task {task_id} failed {attempts} time(s); retry budget exhausted"
        )
        self.task_id = task_id
        self.attempts = attempts


class SweepError(ReproError):
    """A sweep-engine run could not complete a spec."""


class SweepWorkerError(SweepError):
    """A sweep worker died (crashed process, torn pipe) mid-spec."""


class SweepTimeout(SweepError):
    """A sweep spec exceeded its per-run wall-clock timeout."""
