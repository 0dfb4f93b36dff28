"""DVFS governors driving per-core frequency scales over simulated time.

The runtime has no control over — and receives no notification of — these
frequency changes (paper §1: "DVFS activity that is beyond control of the
runtime system"); it can only observe their effect through task elapsed
times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.machine.speed import SpeedModel
from repro.sim.environment import Environment
from repro.util.validation import require_in_range, require_positive


@dataclass(frozen=True)
class PeriodicSquareWave:
    """Frequency schedule alternating between a high and a low scale.

    The paper's §5.2 scenario: the TX2 Denver cluster toggles between
    2035 MHz and 345 MHz with a 10 s full period (5 s high + 5 s low), i.e.
    ``high_scale=1.0, low_scale=345/2035, half_period=5.0``.
    """

    high_scale: float = 1.0
    low_scale: float = 345.0 / 2035.0
    half_period: float = 5.0
    start_high: bool = True

    def __post_init__(self) -> None:
        require_in_range(self.high_scale, 0.0, 1.0, "high_scale")
        require_in_range(self.low_scale, 0.0, 1.0, "low_scale")
        if self.low_scale <= 0 or self.high_scale <= 0:
            raise ConfigurationError("frequency scales must be positive")
        require_positive(self.half_period, "half_period")

    def scale_at(self, t: float) -> float:
        """Frequency scale at absolute time ``t`` (t < 0 treated as 0)."""
        if t < 0:
            t = 0.0
        phase = int(t // self.half_period) % 2
        first = self.high_scale if self.start_high else self.low_scale
        second = self.low_scale if self.start_high else self.high_scale
        return first if phase == 0 else second


class DvfsGovernor:
    """A simulation process applying a square-wave schedule to cores.

    Parameters
    ----------
    cores:
        The core ids whose frequency toggles (e.g. the Denver cluster).
    wave:
        The schedule.
    until:
        Optional absolute stop time; frequency is restored to the high
        scale afterwards.
    """

    def __init__(
        self,
        env: Environment,
        speed: SpeedModel,
        cores: Sequence[int],
        wave: PeriodicSquareWave = PeriodicSquareWave(),
        until: Optional[float] = None,
    ) -> None:
        if not cores:
            raise ConfigurationError("governor needs at least one core")
        self.env = env
        self.speed = speed
        self.cores: Tuple[int, ...] = tuple(cores)
        self.wave = wave
        self.until = until
        self.toggles = 0
        # Not kept: the process's frame holds this governor, so a
        # reference back would make the pair a reference cycle.
        env.process(self._run(), name="dvfs-governor")

    def _run(self):
        wave = self.wave
        first = wave.high_scale if wave.start_high else wave.low_scale
        second = wave.low_scale if wave.start_high else wave.high_scale
        current = first
        self.speed.set_freq_scale(self.cores, current)
        while self.until is None or self.env.now < self.until:
            yield self.env.timeout(wave.half_period)
            if self.until is not None and self.env.now >= self.until:
                break
            current = second if current == first else first
            self.speed.set_freq_scale(self.cores, current)
            self.toggles += 1
        self.speed.set_freq_scale(self.cores, wave.high_scale)
