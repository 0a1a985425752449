"""Piecewise-constant deterministic volatility curves.

A curve is a right-continuous step function of time: value ``values[i]``
holds on ``[times[i], times[i+1])`` and the last value extends to +inf.
Keeping the curves piecewise constant makes every integral used by the
mixture machinery (integrated variances and covariances) exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VolCurve"]


@dataclass(frozen=True)
class VolCurve:
    """Deterministic volatility as a step function of time (units 1/sqrt(year)).

    ``times`` are the interval start points (strictly increasing, first one 0);
    ``values`` are the per-interval volatility levels, all strictly positive.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) == 0 or len(times) != len(values):
            raise ValueError("need one volatility value per breakpoint")
        if times[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not all(np.isfinite(times)):
            raise ValueError("breakpoints must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not all(np.isfinite(v) and v > 0.0 for v in values):
            raise ValueError("volatility values must be finite and positive")

    @classmethod
    def constant(cls, sigma: float) -> "VolCurve":
        return cls((0.0,), (float(sigma),))

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1

    @property
    def lo(self) -> float:
        return min(self.values)

    @property
    def hi(self) -> float:
        return max(self.values)

    def value(self, t: float) -> float:
        """Volatility level at time t (t may sit on a breakpoint; right-continuous)."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.values[idx]

    def integral_sq(self, t: float) -> float:
        """Exact integral of sigma(s)^2 over [0, t]."""
        return self.integral_with(self, t)

    def integral_with(self, other: "VolCurve", t: float) -> float:
        """Exact integral of sigma_self(s) * sigma_other(s) over [0, t]."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        if t == 0:
            return 0.0
        knots = sorted({*self.times, *other.times, t})
        total = 0.0
        for a, b in zip(knots, knots[1:]):
            if a >= t:
                break
            total += self.value(a) * other.value(a) * (min(b, t) - a)
        return total

    def total_std(self, t: float) -> float:
        """sqrt of the integrated variance over [0, t]."""
        return float(np.sqrt(self.integral_sq(t)))
