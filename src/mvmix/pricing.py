"""European pricers: closed forms and the semi-analytic mixture combination.

A European claim on the multivariate mixture costs the product-weight convex
combination of the per-tuple prices, because the joint density is the same
convex combination of tuple densities.  Each tuple is jointly lognormal at
maturity, so tuple prices come either in closed form (Black-Scholes,
exchange option, any geometric average) or from a single-step Monte Carlo
draw of the terminal law, with no time discretization.

A tuple's terminal law does not depend on the basket, the strike, the
direction or the rate, and a spot bump moves only its log-means, so one
kernel prices many specs and spot bumps off the same draws: the experiments
of a run that share a draw key (model, kappa, paths, seed, maturity; see
`montecarlo.SCHEMES`) are priced in one pass, with one basket level per
distinct basket, and so are the bumped models of the Greeks.  The kernel
reads every tuple's law from one `tuple_laws` call, and bumped models take
their log-means from its integrated variances.  Basket levels follow from
each tuple's Gaussian draw by linearity: a geometric level needs no price
matrix, and an arithmetic level is exp(z @ F_k) times weights that carry
the spot ratios and the tuple's exp(log-means), so no log-mean is added
per path.  The kernel's time goes to memory traffic, so it holds each factor
C-contiguous, takes payoffs over a few tuples at a time and allocates its
buffers once per path block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .multivariate import MultiAssetModel, TupleSet, _shared_laws, _tuple_factors, truncate, tuple_laws
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
    return float(omega * disc * (forward * ndtr(omega * d1) - strike * ndtr(omega * d2)))


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
    return float(omega * (x2 * ndtr(omega * d1) - x1 * ndtr(omega * d0)))


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
    return float(omega * disc * (mean * ndtr(omega * d1) - strike * ndtr(omega * d2)))


def _geometric_mixture(means, xi: np.ndarray, weights: np.ndarray, spec: BasketSpec) -> np.ndarray:
    """Closed-form geometric-basket mixture price of each model's (K, n) log-means.

    The weighted geometric average of a tuple's jointly lognormal prices is
    lognormal, and its log-variance depends only on the tuple's covariance
    `xi[k]`, so models that differ only in spots share it.  Each model's
    price is the `weights` combination of its tuple prices.
    """
    w = np.asarray(spec.weights)
    p = 1.0 / w.sum()
    log_sds = [np.sqrt(max(float(p**2 * (w @ x @ w)), 0.0)) for x in xi]

    def option(log_means: np.ndarray, log_sd: float) -> float:
        return _lognormal_option(float(p * (w @ log_means)), log_sd, spec.strike, spec.rate, spec.maturity, spec.omega)

    return np.array([float(weights @ np.array([option(m, sd) for m, sd in zip(rows, log_sds)])) for rows in means])


def geometric_tuple_price(model: MultiAssetModel, indices, spec: BasketSpec) -> float:
    """Exact European price on the weighted geometric average for one tuple.

    The weighted geometric average of jointly lognormal prices is itself
    lognormal, so any strike prices in closed form; strike 0 reduces to the
    two-asset zero-strike formula.
    """
    if spec.kind != "geometric":
        raise ValueError("spec must be geometric")
    means, xi = tuple_laws(model, [indices], spec.maturity)
    return float(_geometric_mixture([means], xi, np.ones(1), spec)[0])


def price_geometric_mvmd(
    model: MultiAssetModel, spec: BasketSpec, kappa: float = 0.0
) -> PriceEstimate:
    """Exact mixture price of the geometric-average option (zero error bar)."""
    if spec.kind != "geometric":
        raise ValueError("spec must be geometric")
    tuple_set = truncate(model, kappa)
    means, xi = tuple_laws(model, tuple_set.index_array, spec.maturity)
    price = _geometric_mixture([means], xi, tuple_set.weight_array, spec)[0]
    return PriceEstimate(float(price), 0.0, 0, "geometric-closed-form")


def _tuple_mc_prices(
    models: tuple[MultiAssetModel, ...],
    tuple_set: TupleSet,
    specs: tuple[BasketSpec, ...],
    paths: int,
    seed: int,
    workers: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-step Monte Carlo mixture prices of every (model, spec) pair on one draw.

    The models differ only in their spots: the kept tuples of `tuple_set`
    belong to models[0] and supply the factorizations F_k of the integrated
    covariance at maturity, and each model supplies its own log-means.  The
    specs share a maturity and may differ in everything else: basket kind
    and weights, strike, direction and rate.  Per path block one standard
    normal draw z feeds every tuple, model, basket and strike, so they all
    share common random numbers, and basket levels are linear in it:

    * geometric, g = w / sum(w): model i's log level on tuple k is
      g . means[i, k] + z @ (F_k g), with no price matrix;
    * arithmetic: the levels of all models are one product of exp(z @ F_k)
      with the weights times S_i / S_0 * exp(means[0, k]), formed per call.

    Payoffs are taken over chunks of max(1, 4 // models) tuples, one row of
    a per-block buffer each, and each spec is discounted at its own rate.
    A tuple's price has the same bits as in a pass over that tuple alone:
    nothing of it is formed or summed across tuples.  Returns the
    (models, specs) arrays of weight-combined prices and of their standard
    errors; the error is that of the per-path weighted payoff, which is the
    honest error bar of the convex combination under shared draws.
    """
    n, t = models[0].n, specs[0].maturity
    if any(s.maturity != t for s in specs):
        raise ValueError("specs priced on one draw must share a maturity")
    base = models[0]
    for m in models[1:]:  # the arithmetic levels of models[1:] scale models[0]'s prices by spot ratios
        same = [(a.drift, a.components) == (b.drift, b.components) for a, b in zip(m.assets, base.assets)]
        if m.n != n or not all(same) or not np.array_equal(m.corr.values, base.corr.values):
            raise ValueError("models priced on one draw may differ only in their spots")
    means, xi = _shared_laws(models, tuple_set.index_array, t)
    times_factor, right = _tuple_factors(xi)
    ratios = np.array([m.spots for m in models]) / base.spots
    arithmetic, geometric = {}, {}  # a basket's level depends only on its kind and weights
    for s in specs:
        w = np.asarray(s.weights)
        if s.kind == "arithmetic":  # (K, models, n); each tuple's row is exponentiated on its own
            arithmetic[s.kind, s.weights] = np.array([w * ratios * np.exp(row) for row in means[0]])
        else:
            g = w / w.sum()
            # (models, K), (K, n); unlike one gemv over all rows, a row sum is K-independent
            geometric[s.kind, s.weights] = ((means * g).sum(axis=-1), right @ g)
    w = tuple_set.weight_array
    nmodels, ntuples = len(models), len(tuple_set)
    chunk = max(1, 4 // nmodels)  # tuples per payoff pass: about 4 level rows per path
    nblocks = len(path_blocks(paths))
    sums = np.zeros((nmodels, len(specs), ntuples, nblocks))
    comb_sq = np.zeros((nmodels, len(specs), nblocks))

    def run_block(b: int, start: int, stop: int) -> None:
        m = stop - start
        z = substream(seed, b).standard_normal((m, n))
        # Per-block buffers: fresh (m, n) temporaries cost more than the arithmetic.
        levels = {key: np.empty((nmodels, chunk, m)) for key in arithmetic | geometric}
        zf, zg, term, pay = np.empty_like(z), np.empty(m), np.empty(m), np.empty((chunk, m))
        combined = np.zeros((nmodels, len(specs), m))
        for k0 in range(0, ntuples, chunk):
            k1 = min(k0 + chunk, ntuples)
            for r, k in enumerate(range(k0, k1)):
                if arithmetic:
                    np.exp(times_factor(z, k, out=zf), out=zf)
                    for key, scaled in arithmetic.items():
                        np.matmul(scaled[k], zf.T, out=levels[key][:, r])
                for key, (offsets, vectors) in geometric.items():
                    row = levels[key][:, r]
                    np.exp(np.add(offsets[:, k, None], np.matmul(z, vectors[k], out=zg), out=row), out=row)
            rows = pay[: k1 - k0]  # the last chunk may hold fewer tuples
            for j, s in enumerate(specs):
                for i, level in enumerate(levels[s.kind, s.weights]):
                    if s.omega == 1:  # the operand order gives the direction: L - K or K - L
                        np.subtract(level[: len(rows)], s.strike, out=rows)
                    else:
                        np.subtract(s.strike, level[: len(rows)], out=rows)
                    np.maximum(rows, 0.0, out=rows)
                    for k, row in enumerate(rows, k0):  # a 1-D sum per tuple keeps its pairwise order
                        sums[i, j, k, b] = row.sum()
                    # np.dot: matmul of a one-tuple chunk misses BLAS and takes ~5x longer
                    combined[i, j] += np.dot(rows.T, w[k0:k1], out=term)
        for i, j in np.ndindex(comb_sq.shape[:2]):
            comb_sq[i, j, b] = (combined[i, j] ** 2).sum()

    run_blocks(run_block, path_blocks(paths), workers)
    price, se = np.empty(comb_sq.shape[:2]), np.zeros(comb_sq.shape[:2])
    for i, j in np.ndindex(price.shape):
        disc = np.exp(-specs[j].rate * t)
        mean = sums[i, j].sum(axis=1) / paths  # each tuple's blocks in one row: the order is K-independent
        price[i, j] = w @ (disc * mean)
        if paths > 1:
            comb_var = (comb_sq[i, j].sum() / paths - float(w @ mean) ** 2) * (paths / (paths - 1))
            se[i, j] = disc * np.sqrt(max(comb_var, 0.0) / paths)
    return price, se


def _mvmd_estimates(
    model: MultiAssetModel,
    specs: tuple[BasketSpec, ...],
    kappa: float,
    paths: int,
    seed: int,
    workers: int | None,
) -> list[PriceEstimate]:
    """`price_mvmd_mc` of every spec, all priced from the same draws."""
    price, se = _tuple_mc_prices((model,), truncate(model, kappa), specs, paths, seed, workers)
    return [PriceEstimate(float(p), float(e), paths, "mvmd-semianalytic") for p, e in zip(price[0], se[0])]


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
    single = TupleSet((model.tuple_at(indices),), (1.0,))
    price, se = _tuple_mc_prices((model,), single, (spec,), paths, seed, workers)
    return PriceEstimate(float(price[0, 0]), float(se[0, 0]), paths, "mvmd-component")


def price_mvmd_mc(
    model: MultiAssetModel,
    spec: BasketSpec,
    kappa: float = 0.0,
    paths: int = 1_000_000,
    seed: int = 0,
    workers: int | None = None,
) -> PriceEstimate:
    """Semi-analytic mixture price: convex combination of tuple MC prices.

    Works for arithmetic and geometric baskets; each tuple is priced by a
    single-step draw of its terminal lognormal law (common random numbers
    across tuples) and the combination uses the cutoff-renormalized weights.
    The reported standard error is that of the combined estimator (the
    per-path weighted payoff), which accounts for the shared draws; the
    quadrature rule sqrt(sum w^2 se^2) over the per-tuple errors is exact
    only for independent streams and misstates the error here.
    """
    return _mvmd_estimates(model, (spec,), kappa, paths, seed, workers)[0]


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

    All 1 + 2n + 2n(n-1) bumped models are priced in one pass on the same
    draws (a bump moves only the tuples' log-means), so the random draws
    cancel in the differences and the convex-combination structure carries
    over to the Greeks; geometric baskets use the closed form.  `bump` is an
    absolute spot bump, scalar or per asset, below each asset's spot.
    """
    n = model.n
    bumps = np.broadcast_to(np.asarray(bump, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(bumps)):
        raise ValueError("bump must be finite")
    if np.any(bumps <= 0):
        raise ValueError("bump sizes must be positive")
    if np.any(bumps >= model.spots):
        raise ValueError("bump must be smaller than the spot it moves")
    eye = np.diag(bumps)
    shifts = [s * eye[i] for i in range(n) for s in (1, -1)]
    shifts += [
        si * eye[i] + sj * eye[j]
        for i in range(n)
        for j in range(i + 1, n)
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ]
    models = (model, *(_bumped_model(model, shift) for shift in shifts))
    tuple_set = truncate(model, kappa)
    if spec.kind == "geometric":
        means, xi = _shared_laws(models, tuple_set.index_array, spec.maturity)
        values = _geometric_mixture(means, xi, tuple_set.weight_array, spec)
    else:
        values = _tuple_mc_prices(models, tuple_set, (spec,), paths, seed, workers)[0][:, 0]
    base, up, down = values[0], values[1 : 2 * n + 1 : 2], values[2 : 2 * n + 1 : 2]
    cross = iter(values[2 * n + 1 :].reshape(-1, 4))
    delta = (up - down) / (2.0 * bumps)
    gamma = np.empty((n, n))
    for i in range(n):
        gamma[i, i] = (up[i] - 2.0 * base + down[i]) / bumps[i] ** 2
        for j in range(i + 1, n):
            pp, pm, mp, mm = next(cross)
            gamma[i, j] = gamma[j, i] = (pp - pm - mp + mm) / (4.0 * bumps[i] * bumps[j])
    return delta, gamma
