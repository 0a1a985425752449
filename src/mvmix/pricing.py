"""European pricers: closed forms and the semi-analytic mixture combination.

A European claim on the multivariate mixture costs the product-weight convex
combination of the per-tuple prices, because the joint density is the same
convex combination of tuple densities.  Each tuple is jointly lognormal at
maturity, so tuple prices come either in closed form (Black-Scholes,
exchange option, any geometric average) or from a single-step Monte Carlo
draw of the terminal law, with no time discretization.

A tuple's terminal law does not depend on the basket, the strike, the
direction or the rate, so one kernel prices many specs of one model off the
same draws: the experiments of a run that share a draw key (model, kappa,
paths, seed, maturity; see `montecarlo.SCHEMES`) are priced in one pass,
with one basket level per distinct basket.  A spot bump on an arithmetic
basket only rescales a basket weight (S e^X -> (S'/S) S e^X), so the
Greeks' bumps are specs on the one model too.  The kernel reads every
tuple's law from the model's component columns
(`multivariate._component_columns`): asset i under component c is one
log-price column that every tuple holding c shares, so one normal draw per
path gives the (C, paths) log-price matrix X, and a tuple's draw is its n
rows of X.  Basket levels are linear in X: a geometric log level is a
weighted sum of the tuple's rows of X, and an arithmetic level the same sum
of exp(X), taken once, so the levels of a few tuples are one product of a
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

from .multivariate import MultiAssetModel, TupleSet, _column_log_prices, _component_columns, truncate, tuple_laws
from .rng import BLOCK_SIZE, path_blocks, run_blocks, substream

__all__ = [
    "BasketSpec",
    "PriceEstimate",
    "black_scholes",
    "margrabe",
    "geometric_pair_k0",
    "price_mvmd_mc",
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
        _direction(self.omega)

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


def _direction(omega: int) -> None:
    if omega not in (1, -1):
        raise ValueError(f"omega must be +1 (call) or -1 (put), got {omega!r}")


def _one_weight_per_asset(spec: BasketSpec, n: int) -> None:
    if len(spec.weights) != n:
        raise ValueError(f"need one basket weight per asset, got {len(spec.weights)} for {n} assets")


def _nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < np.inf:  # NaN fails the comparison
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _finite(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _pair_inputs(vol1: float, vol2: float, rho: float, maturity: float) -> None:
    """Check the vols, correlation and maturity of a two-asset closed form."""
    _nonnegative("vol1", vol1)
    _nonnegative("vol2", vol2)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation rho must lie in [-1, 1], got {rho}")
    _nonnegative("maturity", maturity)


def black_scholes(
    spot: float, strike: float, total_vol: float, rate: float, maturity: float, omega: int = 1
) -> float:
    """European price on a lognormal asset with total volatility over the life.

    total_vol is sqrt of the integrated variance to maturity (sigma*sqrt(T)
    for constant vol).  total_vol = 0 degenerates to the discounted
    intrinsic value on the forward.
    """
    if not strike >= 0:  # NaN fails the comparison
        raise ValueError("strike must be nonnegative")
    if not spot > 0:
        raise ValueError("spot must be positive")
    _nonnegative("total volatility", total_vol)
    _finite("rate", rate)
    _nonnegative("maturity", maturity)
    _direction(omega)
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
    _pair_inputs(vol1, vol2, rho, maturity)
    _direction(omega)
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
    if not (x1 > 0 and x2 > 0):
        raise ValueError("spots must be positive")
    if not (w1 > 0 and w2 > 0):
        raise ValueError("geometric weights must be positive")
    _pair_inputs(vol1, vol2, rho, maturity)
    _finite("rate", rate)
    p = 1.0 / (w1 + w2)
    gamma2 = (vol1**2 * w1**2 + vol2**2 * w2**2 + 2.0 * rho * vol1 * vol2 * w1 * w2) * p**2 * maturity
    drift_term = ((rate - 0.5 * vol1**2) * w1 + (rate - 0.5 * vol2**2) * w2) * p * maturity
    return float(
        np.exp(-rate * maturity) * x1 ** (p * w1) * x2 ** (p * w2) * np.exp(drift_term + 0.5 * gamma2)
    )


def _geometric_mixture(means, xi: np.ndarray, weights: np.ndarray, spec: BasketSpec) -> np.ndarray:
    """Closed-form geometric-basket mixture price of each (K, n) stack of log-means.

    The weighted geometric average of a tuple's jointly lognormal prices is
    lognormal, and its log-variance depends only on the tuple's covariance
    `xi[k]`, so spot bumps, which move only the log-means, share it.  One
    array formula prices every (stack, tuple) pair; `weights` combines each
    stack's row.
    """
    _one_weight_per_asset(spec, xi.shape[-1])
    w = np.asarray(spec.weights)
    p = 1.0 / w.sum()
    # one dot product per tuple and stack, not one matrix product: these sums keep their bits
    sds = np.array([np.sqrt(max(float(p**2 * (w @ x @ w)), 0.0)) for x in xi])
    lms = np.array([[float(p * (w @ m)) for m in rows] for rows in means])  # (M, K) log-means of the average
    disc, strike, omega = np.exp(-spec.rate * spec.maturity), spec.strike, spec.omega
    mean = np.exp(lms + 0.5 * sds**2)
    if strike == 0.0:
        prices = disc * mean if omega == 1 else np.zeros_like(mean)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):  # sds == 0 takes the intrinsic value below
            d2 = (lms - np.log(strike)) / sds
            d1 = d2 + sds
            prices = omega * disc * (mean * ndtr(omega * d1) - strike * ndtr(omega * d2))
        prices = np.where(sds > 0.0, prices, disc * np.maximum(omega * (np.exp(lms) - strike), 0.0))
    return np.array([float(weights @ row) for row in prices])


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
    model: MultiAssetModel,
    tuple_set: TupleSet,
    specs: tuple[BasketSpec, ...],
    paths: int,
    seed: int,
    workers: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-step Monte Carlo mixture prices of every spec on one draw.

    The kept tuples of `tuple_set` belong to `model`, whose component
    columns at maturity (see `multivariate._component_columns`) carry every
    tuple's law.  The specs share a maturity and may differ in everything
    else: basket kind and weights (a spot bump is a weight; see
    `greeks_mvmd`), strike, direction and rate.  Per tile of a path block
    one standard normal draw z becomes the (C, tile) log-price matrix X of
    the columns, which feeds every tuple, basket and strike, so they all
    share common random numbers, and basket levels are linear in it: a
    tuple's level is one row of the product of a selection matrix, whose
    row holds a basket's weights at the tuple's columns, with

    * geometric, g = w / sum(w): X itself, giving the log level;
    * arithmetic: exp(X), taken once per tile in X's own buffer after the
      geometric levels are read.

    Tuples are taken up to 8 at a time, and each spec is discounted at its
    own rate.  Each thread that runs blocks allocates its scratch once per
    call.  A tuple's price has the same bits as in a pass over that tuple
    alone: nothing of it is formed or summed across tuples.
    Returns the (specs,) arrays of weight-combined prices and of their
    standard errors; the error is that of the per-path weighted payoff,
    which is the honest error bar of the convex combination under shared
    draws.
    """
    n, t = model.n, specs[0].maturity
    if any(s.maturity != t for s in specs):
        raise ValueError("specs priced on one draw must share a maturity")
    loadings, means, offsets = _component_columns(model, t)
    cols = offsets + tuple_set.index_array  # (K, n): each tuple's columns
    ntuples, ncols = len(tuple_set), len(means)
    chunk = min(_ROWS, ntuples)  # tuples per selection product
    nchunks, rows = -(-ntuples // chunk), max(2, chunk)

    def selection(entries: np.ndarray) -> np.ndarray:
        """(chunks, rows, C): row r of chunk q holds the entries at tuple q * chunk + r's columns."""
        sel, k = np.zeros((nchunks, rows, ncols)), np.arange(ntuples)[:, None]
        sel[k // chunk, k % chunk, cols] = entries
        return sel

    baskets = {}  # (kind, weights) -> (selection, spec indices)
    for j, s in enumerate(specs):
        if (s.kind, s.weights) not in baskets:
            _one_weight_per_asset(s, n)
            w = np.asarray(s.weights)
            baskets[s.kind, s.weights] = (selection(w if s.kind == "arithmetic" else w / w.sum()), [])
        baskets[s.kind, s.weights][1].append(j)
    order = sorted(baskets, key=lambda key: key[0] == "arithmetic")  # X is exponentiated in place after the geometric levels
    w = tuple_set.weight_array
    nblocks = len(path_blocks(paths))
    sums = np.zeros((len(specs), ntuples, nblocks))
    comb_sq = np.zeros((len(specs), nblocks))
    # paths per tile: a power of two, so tiles split blocks evenly; set by the model alone, so a
    # tuple's sums are grouped alike whatever else is priced
    tile = min(BLOCK_SIZE, 2 ** int(math.log2(max(1, _TILE_BYTES // (8 * ncols)))))
    width = min(tile, paths)
    sizes = {"x": ncols, "levels": rows, "pay": rows, "term": 1, "combined": len(specs)}
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
            x = _column_log_prices(model, loadings, means, z, view("x", ncols))
            combined, term, logs = view("combined", len(specs)), view("term"), True
            for key in order:
                sel, members = baskets[key]
                if key[0] == "arithmetic" and logs:
                    np.exp(x, out=x)
                    logs = False
                for q, k0 in enumerate(range(0, ntuples, chunk)):
                    k1 = min(k0 + chunk, ntuples)  # the last chunk may hold fewer tuples
                    levels = np.matmul(sel[q], x, out=view("levels", rows))[: k1 - k0]
                    if key[0] == "geometric":
                        np.exp(levels, out=levels)
                    pay = view("pay", k1 - k0)
                    for j in members:
                        s = specs[j]
                        if s.omega == 1:  # the operand order gives the direction: L - K or K - L
                            np.subtract(levels, s.strike, out=pay)
                        else:
                            np.subtract(s.strike, levels, out=pay)
                        np.maximum(pay, 0.0, out=pay)
                        sums[j, k0:k1, b] += pay.sum(axis=-1)  # a 1-D pairwise sum per tuple and tile
                        # the weighted payoff of each path: the first chunk writes it, later ones add
                        np.dot(w[k0:k1], pay, out=term if k0 else combined[j])
                        if k0:
                            combined[j] += term
            comb_sq[:, b] += np.square(combined, out=combined).sum(axis=1)  # one pairwise sum per spec

    run_blocks(run_block, path_blocks(paths), workers)
    price, se = np.empty(len(specs)), np.zeros(len(specs))
    for j, s in enumerate(specs):
        disc = np.exp(-s.rate * t)
        mean = sums[j].sum(axis=1) / paths  # each tuple's blocks in one row: the order is K-independent
        price[j] = w @ (disc * mean)
        if paths > 1:
            comb_var = (comb_sq[j].sum() / paths - float(w @ mean) ** 2) * (paths / (paths - 1))
            se[j] = disc * np.sqrt(max(comb_var, 0.0) / paths)
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
    price, se = _tuple_mc_prices(model, truncate(model, kappa), specs, paths, seed, workers)
    return [PriceEstimate(float(p), float(e), paths, "mvmd-semianalytic") for p, e in zip(price, se)]


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

    A spot bump only rescales a basket weight (S e^X -> (S'/S) S e^X), so
    the 1 + 2n + 2n(n-1) bumps of an arithmetic basket are priced as specs
    on the one model, in one pass on the same draws: the random draws
    cancel in the differences and the convex-combination structure carries
    over to the Greeks.  Geometric baskets use the closed form, each bump
    moving only the tuples' log-means.  `bump` is an absolute spot bump,
    scalar or per asset, below each asset's spot.
    """
    n = model.n
    _one_weight_per_asset(spec, n)
    bumps = np.broadcast_to(np.asarray(bump, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(bumps)):
        raise ValueError("bump must be finite")
    if np.any(bumps <= 0):
        raise ValueError("bump sizes must be positive")
    if np.any(bumps >= model.spots):
        raise ValueError("bump must be smaller than the spot it moves")
    eye = np.diag(bumps)
    shifts = [0.0 * bumps, *(s * eye[i] for i in range(n) for s in (1, -1))]  # the base, then one asset up and down
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    shifts += [si * eye[i] + sj * eye[j] for i in range(n) for j in range(i + 1, n) for si, sj in signs]  # asset pairs
    spots = model.spots
    bumped = [spots + shift for shift in shifts]
    tuple_set = truncate(model, kappa)
    if spec.kind == "geometric":
        xi = tuple_laws(model, tuple_set.index_array, spec.maturity)[1]
        v2 = np.diagonal(xi, axis1=1, axis2=2)  # the integrated variances
        means = [np.log(s) + model.drifts * spec.maturity - 0.5 * v2 for s in bumped]
        values = _geometric_mixture(means, xi, tuple_set.weight_array, spec)
    else:
        w = np.asarray(spec.weights)
        specs = tuple(replace(spec, weights=tuple(w * (s / spots))) for s in bumped)
        values = _tuple_mc_prices(model, tuple_set, specs, paths, seed, workers)[0]
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
