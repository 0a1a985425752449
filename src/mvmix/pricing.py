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
reads every tuple's law from the model's component columns
(`multivariate._component_columns`): asset i under component c is one
log-price column that every tuple holding c shares, so one normal draw per
path gives the (C, paths) log-price matrix X, and a tuple's draw is its n
rows of X.  Basket levels are linear in X: a geometric log level is a
weighted sum of the tuple's rows of X, and an arithmetic level the same sum
of exp(X), taken once, with weights that carry the spot ratios of bumped
models, so the levels of a few tuples and every model are one product of a
selection matrix with X or exp(X).  The kernel's time goes to memory
traffic, so it takes a block a cache-sized tile of paths at a time, and
each thread that runs blocks allocates its scratch once per call.  A
tuple's price has the same bits whatever else was kept.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .multivariate import MultiAssetModel, TupleSet, _column_log_prices, _component_columns, _shared_laws, truncate, tuple_laws
from .rng import BLOCK_SIZE, path_blocks, run_blocks, substream

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


_TILE_BYTES = 2**20  # a tile's (C, paths) log-price matrix stays within this, so a worker's scratch stays in cache
_ROWS = 8  # level rows per selection product; >= 2, since numpy sends a one-row product to gemv, whose sums differ


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
    belong to models[0], whose component columns at maturity (see
    `multivariate._component_columns`) carry every tuple's law.  The specs
    share a maturity and may differ in everything else: basket kind and
    weights, strike, direction and rate.  Per tile of a path block one
    standard normal draw z becomes the (C, tile) log-price matrix X of the
    columns, which feeds every tuple, model, basket and strike, so they all
    share common random numbers, and basket levels are linear in it: a
    tuple's level rows are one product of a (rows, C) selection matrix,
    whose row holds a basket's weights at the tuple's columns, with

    * geometric, g = w / sum(w): X itself, giving the log level, to which
      model i adds g . log(S_i / S_0);
    * arithmetic: exp(X), taken once per tile in X's own buffer after the
      geometric levels are read, with w times S_i / S_0 in model i's row.

    Tuples are taken a chunk of about 8 level rows at a time, and each spec
    is discounted at its own rate.  Each thread that runs blocks allocates
    its scratch once per call.  A tuple's price has the same bits as in a
    pass over that tuple alone: nothing of it is formed or summed across
    tuples.
    Returns the (models, specs) arrays of weight-combined prices and of
    their standard errors; the error is that of the per-path weighted
    payoff, which is the honest error bar of the convex combination under
    shared draws.
    """
    n, t = models[0].n, specs[0].maturity
    if any(s.maturity != t for s in specs):
        raise ValueError("specs priced on one draw must share a maturity")
    base = models[0]
    for m in models[1:]:  # models[1:] read models[0]'s columns, moved by their spot ratios
        same = [(a.drift, a.components) == (b.drift, b.components) for a, b in zip(m.assets, base.assets)]
        if m.n != n or not all(same) or not np.array_equal(m.corr.values, base.corr.values):
            raise ValueError("models priced on one draw may differ only in their spots")
    loadings, means, offsets = _component_columns(base, t)
    cols = offsets + tuple_set.index_array  # (K, n): each tuple's columns
    ratios = np.array([m.spots for m in models]) / base.spots
    nmodels, ntuples, ncols = len(models), len(tuple_set), len(means)
    chunk = max(1, min(_ROWS // nmodels, ntuples))  # tuples per selection product
    nchunks, rows = -(-ntuples // chunk), max(2, chunk * nmodels)

    def selection(entries: np.ndarray) -> np.ndarray:
        """(chunks, rows, C): row r * models + i of chunk q holds model i's entries at tuple q * chunk + r's columns."""
        sel, k = np.zeros((nchunks, rows, ncols)), np.arange(ntuples)[:, None, None]
        sel[k // chunk, k % chunk * nmodels + np.arange(nmodels)[:, None], cols[:, None, :]] = entries
        return sel

    baskets = {}  # (kind, weights) -> (selection, log-level shifts or None, spec indices)
    for j, s in enumerate(specs):
        if (s.kind, s.weights) not in baskets:
            w = np.asarray(s.weights)
            if s.kind == "arithmetic":
                baskets[s.kind, s.weights] = (selection(w * ratios), None, [])
            else:
                g = w / w.sum()
                baskets[s.kind, s.weights] = (selection(np.broadcast_to(g, ratios.shape)), np.log(ratios) @ g, [])
        baskets[s.kind, s.weights][2].append(j)
    order = sorted(baskets, key=lambda key: key[0] == "arithmetic")  # X is exponentiated in place after the geometric levels
    w = tuple_set.weight_array
    nblocks = len(path_blocks(paths))
    sums = np.zeros((nmodels, len(specs), ntuples, nblocks))
    comb_sq = np.zeros((nmodels, len(specs), nblocks))
    # paths per tile: a power of two, so tiles split blocks evenly; set by the model alone, so a
    # tuple's sums are grouped alike whatever else is priced
    tile = min(BLOCK_SIZE, 2 ** int(math.log2(max(1, _TILE_BYTES // (8 * ncols)))))
    width = min(tile, paths)
    sizes = {"x": ncols, "levels": rows, "pay": rows, "term": nmodels, "combined": len(specs) * nmodels}
    local = threading.local()

    def run_block(b: int, start: int, stop: int) -> None:
        if not hasattr(local, "scratch"):  # per block-running thread, once per call
            local.z = np.empty((width, n * loadings.shape[1]))
            local.scratch = {name: np.empty(size * width) for name, size in sizes.items()}
        gen = substream(seed, b)
        for first in range(start, stop, tile):
            m = min(tile, stop - first)

            def view(name: str, *shape: int) -> np.ndarray:
                return local.scratch[name][: m * math.prod(shape)].reshape(*shape, m)

            z = gen.standard_normal(out=local.z[:m])  # the block's draw, a tile at a time
            x = _column_log_prices(base, loadings, means, z, view("x", ncols))
            combined, term, logs = view("combined", len(specs), nmodels), view("term", nmodels), True
            for key in order:
                sel, shifts, members = baskets[key]
                if key[0] == "arithmetic" and logs:
                    np.exp(x, out=x)
                    logs = False
                for q, k0 in enumerate(range(0, ntuples, chunk)):
                    k1 = min(k0 + chunk, ntuples)  # the last chunk may hold fewer tuples
                    levels = np.matmul(sel[q], x, out=view("levels", rows))[: (k1 - k0) * nmodels]
                    levels = levels.reshape(k1 - k0, nmodels, m)
                    if shifts is not None:
                        if nmodels > 1:
                            levels += shifts[:, None]
                        np.exp(levels, out=levels)
                    pay = view("pay", k1 - k0, nmodels)
                    for j in members:
                        s = specs[j]
                        if s.omega == 1:  # the operand order gives the direction: L - K or K - L
                            np.subtract(levels, s.strike, out=pay)
                        else:
                            np.subtract(s.strike, levels, out=pay)
                        np.maximum(pay, 0.0, out=pay)
                        sums[:, j, k0:k1, b] += pay.sum(axis=-1).T  # a 1-D pairwise sum per tuple, model and tile
                        # the weighted payoff of each path: the first chunk writes it, later ones add
                        np.dot(w[k0:k1], pay.reshape(k1 - k0, -1), out=(term if k0 else combined[j]).reshape(-1))
                        if k0:
                            combined[j] += term
            for i, j in np.ndindex(comb_sq.shape[:2]):
                comb_sq[i, j, b] += (combined[j, i] ** 2).sum()

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
