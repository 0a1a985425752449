"""European pricers: closed forms and the semi-analytic mixture combination.

A European claim on the multivariate mixture costs the product-weight convex
combination of the per-tuple prices, because the joint density is the same
convex combination of tuple densities.  Each tuple is jointly lognormal at
maturity, so tuple prices come either in closed form (Black-Scholes,
exchange option, any geometric average) or from a single-step Monte Carlo
draw of the terminal law, with no time discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm

from .multivariate import MultiAssetModel, TupleSet, psd_factor, truncate
from .rng import path_blocks, run_blocks, substream

__all__ = [
    "BasketSpec",
    "PriceEstimate",
    "black_scholes",
    "margrabe",
    "geometric_pair_k0",
    "component_arithmetic_price",
    "price_mvmd_mc",
    "geometric_tuple_price",
    "price_geometric_mvmd",
    "greeks_mvmd",
]


@dataclass(frozen=True)
class BasketSpec:
    """A European option on a weighted basket.

    kind "arithmetic": payoff on sum(w_k * S_k); weights may be negative
    (spread).  kind "geometric": payoff on the weighted geometric average
    prod(S_k^w_k)^(1/sum w), weights strictly positive.
    omega is +1 for a call, -1 for a put.
    """

    weights: tuple[float, ...]
    kind: str
    strike: float
    maturity: float
    omega: int = 1
    rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        for name in ("strike", "maturity", "rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("basket weights must be finite")
        if self.kind not in ("arithmetic", "geometric"):
            raise ValueError("kind must be 'arithmetic' or 'geometric'")
        if not any(w != 0.0 for w in self.weights):
            raise ValueError("at least one basket weight must be nonzero")
        if self.kind == "geometric" and any(w <= 0.0 for w in self.weights):
            raise ValueError("geometric basket weights must be positive")
        if self.strike < 0:
            raise ValueError("strike must be nonnegative")
        if not self.maturity > 0:
            raise ValueError("maturity must be positive")
        if self.omega not in (1, -1):
            raise ValueError("omega must be +1 (call) or -1 (put)")

    def basket_value(self, prices: np.ndarray) -> np.ndarray:
        """Basket level per row of a (paths, n) terminal price matrix."""
        w = np.asarray(self.weights)
        if self.kind == "arithmetic":
            return prices @ w
        return np.exp(np.log(prices) @ w / w.sum())

    def payoff(self, prices: np.ndarray) -> np.ndarray:
        return np.maximum(self.omega * (self.basket_value(prices) - self.strike), 0.0)


@dataclass(frozen=True)
class PriceEstimate:
    """A price with its Monte Carlo error bar (0 for exact closed forms)."""

    price: float
    std_error: float
    samples: int
    method: str

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")


def black_scholes(
    spot: float, strike: float, total_vol: float, rate: float, maturity: float, omega: int = 1
) -> float:
    """European price on a lognormal asset with total volatility over the life.

    total_vol is sqrt of the integrated variance to maturity (sigma*sqrt(T)
    for constant vol).  total_vol = 0 degenerates to the discounted
    intrinsic value on the forward.
    """
    if strike < 0:
        raise ValueError("strike must be nonnegative")
    if not spot > 0:
        raise ValueError("spot must be positive")
    disc = np.exp(-rate * maturity)
    forward = spot / disc
    if total_vol == 0.0 or strike == 0.0:
        if strike == 0.0 and omega == -1:
            return 0.0
        return float(disc * max(omega * (forward - strike), 0.0))
    d1 = np.log(forward / strike) / total_vol + 0.5 * total_vol
    d2 = d1 - total_vol
    return float(omega * disc * (forward * norm.cdf(omega * d1) - strike * norm.cdf(omega * d2)))


def margrabe(
    x1: float, x2: float, vol1: float, vol2: float, rho: float, maturity: float, omega: int = 1
) -> float:
    """Zero-strike option to exchange asset 1 for asset 2 (payoff on x2 - x1).

    Price = omega * [x2 * Phi(omega d1) - x1 * Phi(omega d0)] with effective
    variance vol1^2 - 2 rho vol1 vol2 + vol2^2; independent of the rate.
    Zero effective volatility collapses to the signed intrinsic value.
    """
    if not (x1 > 0 and x2 > 0):
        raise ValueError("spots must be positive")
    sig = np.sqrt(max(vol1**2 - 2.0 * rho * vol1 * vol2 + vol2**2, 0.0))
    stv = sig * np.sqrt(maturity)
    if stv == 0.0:
        return float(max(omega * (x2 - x1), 0.0))
    d1 = np.log(x2 / x1) / stv + 0.5 * stv
    d0 = d1 - stv
    return float(omega * (x2 * norm.cdf(omega * d1) - x1 * norm.cdf(omega * d0)))


def geometric_pair_k0(
    x1: float,
    x2: float,
    vol1: float,
    vol2: float,
    rho: float,
    w1: float,
    w2: float,
    rate: float,
    maturity: float,
) -> float:
    """Zero-strike call on the weighted geometric average of two lognormals."""
    if not (w1 > 0 and w2 > 0):
        raise ValueError("geometric weights must be positive")
    p = 1.0 / (w1 + w2)
    gamma2 = (vol1**2 * w1**2 + vol2**2 * w2**2 + 2.0 * rho * vol1 * vol2 * w1 * w2) * p**2 * maturity
    drift_term = ((rate - 0.5 * vol1**2) * w1 + (rate - 0.5 * vol2**2) * w2) * p * maturity
    return float(
        np.exp(-rate * maturity) * x1 ** (p * w1) * x2 ** (p * w2) * np.exp(drift_term + 0.5 * gamma2)
    )


def _lognormal_option(log_mean: float, log_sd: float, strike: float, rate: float, maturity: float, omega: int) -> float:
    """Discounted E[(omega(G - K))^+] for ln G ~ N(log_mean, log_sd^2)."""
    disc = np.exp(-rate * maturity)
    mean = np.exp(log_mean + 0.5 * log_sd**2)
    if strike == 0.0:
        return float(disc * mean) if omega == 1 else 0.0
    if log_sd == 0.0:
        return float(disc * max(omega * (np.exp(log_mean) - strike), 0.0))
    d2 = (log_mean - np.log(strike)) / log_sd
    d1 = d2 + log_sd
    return float(omega * disc * (mean * norm.cdf(omega * d1) - strike * norm.cdf(omega * d2)))


def _composite_log_params(model: MultiAssetModel, indices, spec: BasketSpec) -> tuple[float, float]:
    """Log-mean and log-sd of the weighted geometric average for one tuple."""
    w = np.asarray(spec.weights)
    p = 1.0 / w.sum()
    tp = model.tuple_at(indices)
    xi = tp.integrated_covariance(spec.maturity)
    log_mean = float(p * (w @ tp.log_means(spec.maturity)))
    var = float(p**2 * (w @ xi @ w))
    return log_mean, np.sqrt(max(var, 0.0))


def geometric_tuple_price(model: MultiAssetModel, indices, spec: BasketSpec) -> float:
    """Exact European price on the weighted geometric average for one tuple.

    The weighted geometric average of jointly lognormal prices is itself
    lognormal, so any strike prices in closed form; strike 0 reduces to the
    two-asset zero-strike formula.
    """
    if spec.kind != "geometric":
        raise ValueError("spec must be geometric")
    log_mean, log_sd = _composite_log_params(model, indices, spec)
    return _lognormal_option(log_mean, log_sd, spec.strike, spec.rate, spec.maturity, spec.omega)


def price_geometric_mvmd(
    model: MultiAssetModel, spec: BasketSpec, kappa: float = 0.0
) -> PriceEstimate:
    """Exact mixture price of the geometric-average option (zero error bar)."""
    tuple_set = truncate(model, kappa)
    prices = np.array([geometric_tuple_price(model, tp.indices, spec) for tp, _ in tuple_set])
    return PriceEstimate(float(tuple_set.weight_array @ prices), 0.0, 0, "geometric-closed-form")


def _tuple_mc_prices(
    model: MultiAssetModel,
    tuple_set: TupleSet,
    spec: BasketSpec,
    paths: int,
    seed: int,
    workers: int | None,
    antithetic: bool = False,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Single-step Monte Carlo prices per tuple, common random numbers.

    Every tuple consumes the same standard normal draws, mapped through its
    own factorization of the integrated covariance at maturity.  Returns the
    per-tuple prices and standard errors plus the standard error of the
    weight-combined estimator (the per-path weighted payoff), which is the
    honest error bar of the convex combination under shared draws.

    With `antithetic`, each path averages the payoff over +z and -z and the
    error bars are computed on the pair averages.
    """
    n = model.n
    means = [tp.log_means(spec.maturity) for tp, _ in tuple_set]
    factors = [psd_factor(tp.integrated_covariance(spec.maturity)).T for tp, _ in tuple_set]
    w = tuple_set.weight_array
    ntup = len(tuple_set)
    nblocks = len(path_blocks(paths))
    sums = np.zeros((nblocks, ntup))
    sqsums = np.zeros_like(sums)
    comb_sq = np.zeros(nblocks)

    def run_block(b: int, start: int, stop: int) -> None:
        gen = substream(seed, b)
        z = gen.standard_normal((stop - start, n))
        combined = np.zeros(stop - start)
        for k in range(ntup):
            pay = spec.payoff(np.exp(means[k] + z @ factors[k]))
            if antithetic:
                pay = 0.5 * (pay + spec.payoff(np.exp(means[k] - z @ factors[k])))
            sums[b, k] = pay.sum()
            sqsums[b, k] = (pay**2).sum()
            combined += w[k] * pay
        comb_sq[b] = (combined**2).sum()

    run_blocks(run_block, path_blocks(paths), workers)
    disc = np.exp(-spec.rate * spec.maturity)
    mean = sums.sum(axis=0) / paths
    if paths == 1:
        return disc * mean, np.zeros_like(mean), 0.0
    bessel = paths / (paths - 1)
    var = (sqsums.sum(axis=0) / paths - mean**2) * bessel
    comb_mean = float(w @ mean)
    comb_var = (comb_sq.sum() / paths - comb_mean**2) * bessel
    comb_se = float(disc * np.sqrt(max(comb_var, 0.0) / paths))
    return disc * mean, disc * np.sqrt(np.clip(var, 0.0, None) / paths), comb_se


def component_arithmetic_price(
    model: MultiAssetModel,
    indices,
    spec: BasketSpec,
    paths: int = 1_000_000,
    seed: int = 0,
    workers: int | None = None,
) -> PriceEstimate:
    """Single-step Monte Carlo price of the basket option on one tuple's law."""
    if spec.kind != "arithmetic":
        raise ValueError("spec must be arithmetic")
    single = TupleSet((model.tuple_at(indices),), (1.0,), 0.0)
    price, se, _ = _tuple_mc_prices(model, single, spec, paths, seed, workers)
    return PriceEstimate(float(price[0]), float(se[0]), paths, "mvmd-component")


def price_mvmd_mc(
    model: MultiAssetModel,
    spec: BasketSpec,
    kappa: float = 0.0,
    paths: int = 1_000_000,
    seed: int = 0,
    workers: int | None = None,
    antithetic: bool = False,
) -> PriceEstimate:
    """Semi-analytic mixture price: convex combination of tuple MC prices.

    Works for arithmetic and geometric baskets; each tuple is priced by a
    single-step draw of its terminal lognormal law (common random numbers
    across tuples) and the combination uses the cutoff-renormalized weights.
    The reported standard error is that of the combined estimator (the
    per-path weighted payoff), which accounts for the shared draws; the
    quadrature rule sqrt(sum w^2 se^2) over the per-tuple errors is exact
    only for independent streams and misstates the error here.

    Antithetic pairing is off by default so error bars stay comparable with
    plain-sampling references.
    """
    tuple_set = truncate(model, kappa)
    prices, _, comb_se = _tuple_mc_prices(
        model, tuple_set, spec, paths, seed, workers, antithetic
    )
    w = tuple_set.weight_array
    return PriceEstimate(float(w @ prices), comb_se, paths, "mvmd-semianalytic")


def _bumped_model(model: MultiAssetModel, bumps: np.ndarray) -> MultiAssetModel:
    assets = tuple(
        replace(a, spot=a.spot + h) for a, h in zip(model.assets, bumps)
    )
    return MultiAssetModel(assets, model.corr)


def greeks_mvmd(
    model: MultiAssetModel,
    spec: BasketSpec,
    bump: float | np.ndarray,
    kappa: float = 0.0,
    paths: int = 1_000_000,
    seed: int = 0,
    workers: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Delta vector and gamma matrix by central differences on the spots.

    Every evaluation reuses the same seed, so the random draws cancel in the
    differences and the convex-combination structure carries over to the
    Greeks.  `bump` is an absolute spot bump, scalar or per asset.
    """
    n = model.n
    bumps = np.broadcast_to(np.asarray(bump, dtype=float), (n,)).copy()
    if np.any(bumps <= 0):
        raise ValueError("bump sizes must be positive")

    def value(shift: np.ndarray) -> float:
        shifted = _bumped_model(model, shift)
        if spec.kind == "geometric":
            return price_geometric_mvmd(shifted, spec, kappa).price
        return price_mvmd_mc(shifted, spec, kappa, paths, seed, workers).price

    base = value(np.zeros(n))
    up = np.empty(n)
    down = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = bumps[i]
        up[i] = value(e)
        down[i] = value(-e)
    delta = (up - down) / (2.0 * bumps)
    gamma = np.empty((n, n))
    for i in range(n):
        gamma[i, i] = (up[i] - 2.0 * base + down[i]) / bumps[i] ** 2
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = bumps[i]
            ej[j] = bumps[j]
            pp = value(ei + ej)
            pm = value(ei - ej)
            mp = value(-ei + ej)
            mm = value(-ei - ej)
            gamma[i, j] = gamma[j, i] = (pp - pm - mp + mm) / (4.0 * bumps[i] * bumps[j])
    return delta, gamma
