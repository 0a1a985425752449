"""Single-asset lognormal mixture dynamics.

The asset follows dS = mu*S dt + nu(t,S)*S dW where nu is chosen so that the
marginal density of S(t) is, at every time, the fixed convex combination of
the lognormal densities of N instrumental constant-vol processes.  This
module provides those densities, the state-dependent volatility nu, the
quantile function and a log-Euler path simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from .rng import path_blocks, run_blocks, substream
from .volcurve import VolCurve

__all__ = [
    "MixtureComponent",
    "AssetMixture",
    "component_pdf",
    "mixture_pdf",
    "mixture_cdf",
    "inverse_cdf",
    "local_vol",
    "simulate_md_euler",
    "analytic_moment",
]

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _as_curve(vol) -> VolCurve:
    if isinstance(vol, VolCurve):
        return vol
    return VolCurve.constant(float(vol))


@dataclass(frozen=True)
class MixtureComponent:
    """One mixture component: probability weight and its volatility curve."""

    weight: float
    vol: VolCurve

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "vol", _as_curve(self.vol))
        if not (np.isfinite(self.weight) and self.weight >= 0):
            raise ValueError("component weight must be finite and nonnegative")


@dataclass(frozen=True)
class AssetMixture:
    """Lognormal-mixture specification of a single asset.

    spot: initial price S(0) > 0
    drift: deterministic growth rate mu (1/year)
    components: N weighted (lambda_k, sigma_k) pairs, weights summing to 1
    """

    spot: float
    drift: float
    components: tuple[MixtureComponent, ...]

    def __post_init__(self):
        comps = tuple(
            c if isinstance(c, MixtureComponent) else MixtureComponent(*c)
            for c in self.components
        )
        object.__setattr__(self, "spot", float(self.spot))
        object.__setattr__(self, "drift", float(self.drift))
        object.__setattr__(self, "components", comps)
        if not (np.isfinite(self.spot) and self.spot > 0):
            raise ValueError("spot must be finite and positive")
        if not np.isfinite(self.drift):
            raise ValueError("drift must be finite")
        if len(comps) < 1:
            raise ValueError("need at least one mixture component")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights must sum to 1, got {total!r}")

    @classmethod
    def from_arrays(cls, spot, drift, weights, vols) -> "AssetMixture":
        if len(weights) != len(vols):
            raise ValueError("weights and vols must have the same length")
        comps = tuple(MixtureComponent(w, _as_curve(v)) for w, v in zip(weights, vols))
        return cls(spot, drift, comps)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    def total_stds(self, t: float) -> np.ndarray:
        """Per-component integrated volatility V_k(t) = sqrt(int sigma_k^2)."""
        return np.array([c.vol.total_std(t) for c in self.components])

    def log_means(self, t: float) -> np.ndarray:
        """Per-component log-space means: ln S0 + mu*t - V_k(t)^2 / 2."""
        v2 = np.array([c.vol.integral_sq(t) for c in self.components])
        return np.log(self.spot) + self.drift * t - 0.5 * v2

    def spot_vols(self, t: float) -> np.ndarray:
        """Per-component instantaneous volatilities sigma_k(t)."""
        return np.array([c.vol.value(t) for c in self.components])


def _require_positive_time(t: float) -> None:
    if not t > 0:
        raise ValueError("density is degenerate at t = 0; need t > 0")


def component_pdf(asset: AssetMixture, k: int, t: float, x) -> np.ndarray | float:
    """Lognormal density of instrumental process k at time t, evaluated at x.

    Returns 0 for x <= 0.  t = 0 is rejected (point mass at the spot).
    """
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    m = asset.log_means(t)[k]
    v = asset.total_stds(t)[k]
    out = np.zeros_like(x)
    pos = x > 0
    xs = x[pos]
    z = (np.log(xs) - m) / v
    out[pos] = np.exp(-0.5 * z * z) / (np.sqrt(2.0 * np.pi) * v * xs)
    return out if out.ndim else float(out)


def _component_logpdfs(asset: AssetMixture, t: float, logx: np.ndarray) -> np.ndarray:
    """Matrix of log component densities, shape (N, len(logx))."""
    m = asset.log_means(t)[:, None]
    v = asset.total_stds(t)[:, None]
    z = (logx[None, :] - m) / v
    return -0.5 * z * z - np.log(v) - _LOG_SQRT_2PI - logx[None, :]


def mixture_pdf(asset: AssetMixture, t: float, x) -> np.ndarray | float:
    """Convex combination of the component lognormal densities."""
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    if np.any(pos):
        logx = np.log(x[pos])
        logp = _component_logpdfs(asset, t, logx)
        out[pos] = asset.weights @ np.exp(logp)
    return out if out.ndim else float(out)


def mixture_cdf(asset: AssetMixture, t: float, x) -> np.ndarray | float:
    """Mixture distribution function; defined for all x with cdf(x<=0) = 0."""
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    if np.any(pos):
        logx = np.log(x[pos])
        m = asset.log_means(t)[:, None]
        v = asset.total_stds(t)[:, None]
        out[pos] = asset.weights @ norm.cdf((logx[None, :] - m) / v)
    out = np.where(np.isposinf(x), 1.0, out)
    return out if out.ndim else float(out)


def inverse_cdf(asset: AssetMixture, t: float, u: float) -> float:
    """Quantile of the mixture law at time t.

    The mixture cdf is strictly increasing on (0, inf), so the inverse is
    unique.  Brent's method in log-price space, bracketed by the extreme
    component quantiles.
    """
    _require_positive_time(t)
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("probability must lie strictly inside (0, 1)")
    m = asset.log_means(t)
    v = asset.total_stds(t)
    w = asset.weights
    comp_q = m + v * ndtri(u)
    lo, hi = float(np.min(comp_q)), float(np.max(comp_q))

    def excess(y: float) -> float:
        return float(w @ ndtr((y - m) / v)) - u

    # Endpoints that already reach u within rounding are the quantile.
    if lo == hi or excess(lo) >= 0.0:
        return float(np.exp(lo))
    if excess(hi) <= 0.0:
        return float(np.exp(hi))
    return float(np.exp(brentq(excess, lo, hi, xtol=1e-15)))


def _nu_from_logx(asset: AssetMixture, t: float, logx: np.ndarray) -> np.ndarray:
    """nu(t, .) on an array of log prices; t = 0 uses the short-time limit."""
    sig = asset.spot_vols(t)
    lam = asset.weights
    if t == 0:
        return np.full(logx.shape, np.sqrt(float(lam @ sig**2)))
    # Common factors of the component densities cancel in the ratio; keep
    # only the log-weight + exponent part, shifted by its maximum so deep
    # tails resolve to the fattest-tailed component instead of 0/0.
    m = asset.log_means(t)[:, None]
    v = asset.total_stds(t)[:, None]
    z = (logx[None, :] - m) / v
    with np.errstate(divide="ignore"):  # zero weights belong at -inf
        logw = np.log(lam)[:, None] - np.log(v) - 0.5 * z * z
    logw -= logw.max(axis=0, keepdims=True)
    w = np.exp(logw)
    nu2 = (sig**2 @ w) / w.sum(axis=0)
    return np.sqrt(nu2)


def _log_euler(assets, logs: np.ndarray, drifts, maturity: float, steps: int, shocks) -> np.ndarray:
    """Terminal prices of a (paths, n) block of log spots under log-Euler.

    Asset i diffuses with its own nu; `shocks(step)` gives that step's
    (paths, n) normal increments.  `logs` is advanced in place.
    """
    dt = maturity / steps
    sqdt = np.sqrt(dt)
    nu = np.empty_like(logs)
    for step in range(steps):
        eps = shocks(step)
        for i, asset in enumerate(assets):
            nu[:, i] = _nu_from_logx(asset, step * dt, logs[:, i])
        logs += (drifts - 0.5 * nu**2) * dt + nu * sqdt * eps
    return np.exp(logs)


def local_vol(asset: AssetMixture, t: float, x) -> np.ndarray | float:
    """State-dependent diffusion coefficient nu(t, x).

    nu^2 is the density-weighted average of the squared component vols:
    nu^2(t,x) = sum_k lambda_k sigma_k^2(t) p_k(x) / sum_k lambda_k p_k(x),
    always between the smallest and largest sigma_k(t).

    At t = 0 the ratio is indeterminate (all components collapse to the same
    point mass); we return the aggregate short-time limit
    sqrt(sum_k lambda_k sigma_k(0)^2), which matches the t->0 variance rate
    of the mixture and is what the simulator uses on its first step.
    """
    x = np.asarray(x, dtype=float)
    if t > 0 and np.any(x <= 0):
        raise ValueError("price must be positive")
    out = _nu_from_logx(asset, t, np.log(x if x.ndim else x[None]) if t > 0 else np.atleast_1d(x))
    return out.reshape(x.shape) if x.ndim else float(out[0])


def simulate_md_euler(
    asset: AssetMixture,
    maturity: float,
    steps: int,
    paths: int,
    seed: int,
    workers: int | None = None,
) -> np.ndarray:
    """Terminal samples of the mixture dynamics via log-Euler.

    Euler discretization of ln S with drift mu - nu^2/2 and diffusion
    nu(t, S); paths stay strictly positive.  Randomness is drawn per path
    block from counter-based substreams of `seed`, so the output is
    identical for any worker count.
    """
    if not maturity > 0:
        raise ValueError("maturity must be positive")
    if steps < 1 or paths < 1:
        raise ValueError("need at least one step and one path")
    out = np.empty(paths)

    def run_block(b: int, start: int, stop: int) -> None:
        gen = substream(seed, b)
        z = gen.standard_normal((stop - start, steps))
        logs = np.full((stop - start, 1), np.log(asset.spot))
        shocks = lambda step: z[:, step, None]  # the step's column, as a (paths, 1) view
        out[start:stop] = _log_euler((asset,), logs, asset.drift, maturity, steps, shocks)[:, 0]

    run_blocks(run_block, path_blocks(paths), workers)
    return out


def analytic_moment(asset: AssetMixture, t: float, order: int = 1) -> float:
    """Exact E[S(t)^m] from the lognormal component moments."""
    m = asset.log_means(t)
    v2 = asset.total_stds(t) ** 2
    return float(asset.weights @ np.exp(order * m + 0.5 * order**2 * v2))
