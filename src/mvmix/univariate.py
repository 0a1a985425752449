"""Single-asset lognormal mixture dynamics.

The asset follows dS = mu*S dt + nu(t,S)*S dW where nu is chosen so that the
marginal density of S(t) is, at every time, the fixed convex combination of
the lognormal densities of N instrumental constant-vol processes.  This
module provides those densities, the state-dependent volatility nu and the
quantile function; the one log-Euler path driver is
`montecarlo.simulate_scmd`, whose one-asset case is
`montecarlo.simulate_md_euler`.

nu^2 = sum_k lambda_k sigma_k^2 p_k / sum_k lambda_k p_k is evaluated in
quadratic form: each log(lambda_k p_k) is quadratic in log S with
coefficients that depend only on t, so relative to a reference component
r (the positive-weight one with the largest integrated variance)
nu^2 = sigma_r^2 + sum_k (sigma_k^2 - sigma_r^2) e^{d_k} / (1 + sum_k e^{d_k})
with every d_k concave or constant in log S.  The coefficients are built
once per simulation; `local_vol` and the log-Euler loop of
`montecarlo.simulate_scmd` evaluate the same kernel, the loop for all
assets of an (assets, paths) block at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .volcurve import VolCurve

__all__ = [
    "MixtureComponent",
    "AssetMixture",
    "component_pdf",
    "mixture_pdf",
    "mixture_cdf",
    "inverse_cdf",
    "local_vol",
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
    if not 0 < t < np.inf:
        raise ValueError(f"density needs finite t > 0, got t = {t}")


def _law_args(t: float, x) -> np.ndarray:
    _require_positive_time(t)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():  # x > 0 would send NaN to the zero branch
        raise ValueError("x must not contain NaN")
    return x


def component_pdf(asset: AssetMixture, k: int, t: float, x) -> np.ndarray | float:
    """Lognormal density of instrumental process k at time t, evaluated at x.

    Returns 0 for x <= 0; NaN and t = 0 (point mass at the spot) are rejected.
    """
    if not (isinstance(k, (int, np.integer)) and 0 <= k < asset.n_components):
        raise ValueError(f"component index k must be an integer in [0, {asset.n_components}), got {k!r}")
    x = _law_args(t, x)
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
    x = _law_args(t, x)
    out = np.zeros_like(x)
    pos = x > 0
    if np.any(pos):
        logx = np.log(x[pos])
        logp = _component_logpdfs(asset, t, logx)
        out[pos] = asset.weights @ np.exp(logp)
    return out if out.ndim else float(out)


def mixture_cdf(asset: AssetMixture, t: float, x) -> np.ndarray | float:
    """Mixture distribution function; defined for all x with cdf(x<=0) = 0."""
    x = _law_args(t, x)
    out = np.zeros_like(x)
    pos = x > 0
    if np.any(pos):
        logx = np.log(x[pos])
        m = asset.log_means(t)[:, None]
        v = asset.total_stds(t)[:, None]
        out[pos] = asset.weights @ ndtr((logx[None, :] - m) / v)
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


def _nu2_schedule(assets, times) -> list[tuple]:
    """Coefficients of nu^2 for every asset, one entry per time.

    With y = log(S / S(0)), d_k = log(lambda_k p_k / lambda_r p_r) = g y^2 +
    b y + a and D_k = sigma_k^2 - sigma_r^2 for each component k other than
    the reference r.  Entry i is (sigma_r^2 of shape (n, 1), (g, b, a, D) of
    shape (4, K - 1, n, 1)).  Padding (assets with fewer components) and
    zero weights get a = -inf; at t = 0 the entry is the short-time limit
    sigma_r^2 = sum_k lambda_k sigma_k^2 with every a = -inf.  Measuring y
    from the spot keeps (log S(0))^2 / V^2 terms, which would cancel, out of
    the coefficients.
    """
    times = np.asarray(times, dtype=float)
    n, K = len(assets), max(a.n_components for a in assets)
    lam = np.zeros((n, K))
    sig = np.zeros((len(times), n, K))
    var = np.ones_like(sig)  # padding keeps a finite variance and a zero weight
    for i, asset in enumerate(assets):
        for k, c in enumerate(asset.components):
            lam[i, k] = c.weight
            sig[:, i, k] = [c.vol.value(t) for t in times]
            var[:, i, k] = [c.vol.integral_sq(t) for t in times]
    drifts = np.array([a.drift for a in assets])[:, None]
    mean = drifts * times[:, None, None] - 0.5 * var
    sig2 = sig**2
    r = np.argmax(np.where(lam > 0, var, -1.0), axis=-1)[..., None]
    order = np.argsort(np.arange(K) != r, axis=-1, kind="stable")  # r first, then the others
    with np.errstate(divide="ignore", invalid="ignore"):  # zero weights; t = 0 is overwritten below
        b = mean / var
        coefs = np.stack((-0.5 / var, b, np.log(lam) - 0.5 * np.log(var) - 0.5 * mean * b, sig2))
        coefs = np.take_along_axis(coefs, order[None], -1)
        ref, rel = coefs[3, ..., :1], coefs[..., 1:] - coefs[..., :1]  # rel: (g, b, a, D)
    start = times == 0
    ref[start, :, 0] = (lam * sig2[start]).sum(-1)
    rel[:, start] = 0.0
    rel[2, start] = -np.inf
    return list(zip(ref, np.ascontiguousarray(rel.transpose(1, 0, 3, 2)[..., None])))


def _nu2(y: np.ndarray, coefs: tuple, bufs: np.ndarray) -> np.ndarray:
    """nu^2 at the (n, paths) log returns y = log(S / S(0)), written into bufs[0].

    `coefs` is one entry of `_nu2_schedule`; `bufs` is a (3, n, paths)
    scratch array.  The reference component has the largest integrated
    variance, and equal integrated variances mean equal log-means, so every
    d_k is concave or constant in y: e^{d_k} cannot overflow in either tail,
    no max-shift is needed, and the deep tails go to the fattest component.
    """
    ref, terms = coefs
    out, den, e = bufs
    if terms.shape[1] == 0:  # one component per asset: nu^2 is sigma_r^2
        out.fill(0.0)
        den.fill(1.0)
    for k, (gk, bk, ak, dk) in enumerate(zip(*terms)):
        np.multiply(gk, y, out=e)
        e += bk
        e *= y
        e += ak
        np.exp(e, out=e)
        if k == 0:  # nu^2 keeps the bits of adding to a zero numerator and a unit denominator
            np.add(e, 1.0, out=den)
            np.multiply(e, dk, out=out)
            continue
        den += e
        e *= dk
        out += e
    out /= den
    out += ref
    return out


def local_vol(asset: AssetMixture, t: float, x) -> np.ndarray | float:
    """State-dependent diffusion coefficient nu(t, x).

    nu^2 is the density-weighted average of the squared component vols:
    nu^2(t,x) = sum_k lambda_k sigma_k^2(t) p_k(x) / sum_k lambda_k p_k(x),
    always between the smallest and largest sigma_k(t).  It is evaluated in
    the quadratic form of the module docstring, relative to the
    positive-weight component with the largest integrated variance, so
    nothing overflows and the deep tails go to that fattest component.  The
    Euler driver evaluates the same kernel.

    At t = 0 the ratio is indeterminate (all components collapse to the same
    point mass); we return the aggregate short-time limit
    sqrt(sum_k lambda_k sigma_k(0)^2), which matches the t->0 variance rate
    of the mixture and is what the simulator uses on its first step.
    """
    x = np.asarray(x, dtype=float)
    out = _local_vols((asset,), t, x.reshape(1, -1)).reshape(x.shape)
    return out if out.ndim else float(out)


def _local_vols(assets, t: float, x: np.ndarray) -> np.ndarray:
    """nu(t, x) of every asset at once: row i of the (n, m) prices x belongs to assets[i]."""
    if np.isnan(x).any():
        raise ValueError("x must not contain NaN")
    if t > 0 and np.any(x <= 0):
        raise ValueError("price must be positive")
    spots = np.array([a.spot for a in assets])[:, None]
    y = np.log(x / spots) if t > 0 else np.zeros_like(x)
    return np.sqrt(_nu2(y, _nu2_schedule(assets, [t])[0], np.empty((3,) + x.shape)))


def analytic_moment(asset: AssetMixture, t: float, order: int = 1) -> float:
    """Exact E[S(t)^m] from the lognormal component moments."""
    m = asset.log_means(t)
    v2 = asset.total_stds(t) ** 2
    return float(asset.weights @ np.exp(order * m + 0.5 * order**2 * v2))
