"""Statistics helpers (weighted averages, summaries)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence


def weighted_average(old: float, new: float, new_weight: int, total_weight: int) -> float:
    """The paper's PTT folding rule generalized.

    ``updated = ((total - new_weight) * old + new_weight * new) / total``.
    With ``new_weight=1, total_weight=5`` this is the 1:4 rule of §4.1.1.
    """
    if not (0 < new_weight <= total_weight):
        raise ValueError(
            f"need 0 < new_weight <= total_weight, got {new_weight}/{total_weight}"
        )
    old_weight = total_weight - new_weight
    return (old_weight * old + new_weight * new) / total_weight


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    minimum: float
    maximum: float
    stdev: float


def summarize(values: Sequence[float]) -> Summary:
    """Return count/mean/min/max/stdev of ``values``."""
    if not values:
        raise ValueError("summarize of empty sequence")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return Summary(n, mean, min(values), max(values), math.sqrt(var))


# ---------------------------------------------------------------------------
# Streaming moments and confidence intervals (adaptive replication)
# ---------------------------------------------------------------------------

def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``.

    Continued-fraction evaluation (Lentz), accurate to ~1e-12 — enough
    for confidence intervals without pulling in scipy.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_beta = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = math.exp(ln_beta + a * math.log(x) + b * math.log1p(-x))
    # Use the symmetry relation for faster convergence.
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(0, 200):
        m = i // 2
        if i == 0:
            numerator = 1.0
        elif i % 2 == 0:
            numerator = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            numerator = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        d = 1.0 / d
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        delta = c * d
        f *= delta
        if abs(1.0 - delta) < 1e-13:
            break
    return front * (f - 1.0) / a


def _t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    p = 0.5 * _betainc(df / 2.0, 0.5, x)
    return 1.0 - p if t > 0 else p


@functools.lru_cache(maxsize=1024)
def t_critical(confidence: float, df: int) -> float:
    """Two-sided Student-t critical value (e.g. 2.262 at 95%, df=9).

    Solved by bisection on the CDF — no table, no scipy.  Cached per
    ``(confidence, df)``: an adaptive sweep asks for the same few
    quantiles at every convergence check, and a bisection costs ~0.4 ms.
    ``t_critical.__wrapped__`` is the uncached solver.
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    target = 1.0 - (1.0 - confidence) / 2.0
    lo, hi = 0.0, 1.0
    while _t_cdf(hi, df) < target:
        hi *= 2.0
        if hi > 1e8:  # pragma: no cover - defensive
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class Welford:
    """Streaming mean/variance accumulator (Welford's algorithm).

    Numerically stable single-pass moments; drives the adaptive sweep's
    CI-based stopping rule.  One-sample statistics are exact: ``mean``
    equals the sole value bit-for-bit, which the adaptive executor relies
    on for its replicates-off identity guarantee.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        if self.count == 1:
            # Seed the mean directly so a single sample reproduces the
            # value exactly (no `0 + delta/1` rounding detour).
            self.mean = float(value)
            return
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (n-1 denominator); 0 before 2 samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def ci_halfwidth(self, confidence: float = 0.95) -> float:
        """Half-width of the two-sided Student-t CI of the mean.

        Infinite before two samples — an unknown spread never counts as
        converged.
        """
        if self.count < 2:
            return math.inf
        sem = self.stdev / math.sqrt(self.count)
        if sem == 0.0:
            return 0.0
        return t_critical(confidence, self.count - 1) * sem

    def relative_ci(self, confidence: float = 0.95) -> float:
        """CI half-width relative to ``|mean|``; infinite when mean is 0."""
        half = self.ci_halfwidth(confidence)
        if half == 0.0:
            return 0.0
        if self.mean == 0.0:
            return math.inf
        return half / abs(self.mean)
