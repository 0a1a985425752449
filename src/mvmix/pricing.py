"""European pricers: closed forms and the semi-analytic mixture combination.

A European claim on the multivariate mixture costs the product-weight convex
combination of the per-tuple prices, because the joint density is the same
convex combination of tuple densities.  Each tuple is jointly lognormal at
maturity, so tuple prices come either in closed form or from a single-step Monte
Carlo draw of the terminal law, with no time discretization.  Every closed
form is one Black formula (`_black`), a geometric average included: it is
lognormal on each tuple, and a spot bump S -> S' only shifts its log-mean
by g . log(S'/S), g = w / sum(w).

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
traffic, so it works a cache-sized tile of paths at a time, and the tile is
its unit of work, so that workers share a wide basket's path block.  A
tuple's price has the same bits whatever else was kept.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
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
    if isinstance(omega, (bool, np.bool_)) or omega not in (1, -1):
        raise ValueError(f"omega must be +1 (call) or -1 (put), got {omega!r}")


def _one_weight_per_asset(spec: BasketSpec, n: int) -> None:
    if len(spec.weights) != n:
        raise ValueError(f"need one basket weight per asset, got {len(spec.weights)} for {n} assets")


def _nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < np.inf:  # NaN fails the comparison
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def _finite(**values: float) -> None:
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _pair_inputs(x1: float, x2: float, vol1: float, vol2: float, rho: float, maturity: float) -> None:
    """Check the spots, vols, correlation and maturity of a two-asset closed form."""
    if not (x1 > 0 and x2 > 0):
        raise ValueError("spots must be positive")
    _finite(x1=x1, x2=x2)
    _nonnegative("vol1", vol1)
    _nonnegative("vol2", vol2)
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation rho must lie in [-1, 1], got {rho}")
    _nonnegative("maturity", maturity)


def _black(forward, strike, sd, disc, omega):
    """Black's price disc * E[max(omega (F - K), 0)], elementwise, for a lognormal F of mean `forward` and log-sd `sd`.

    sd = 0 or strike = 0 gives the discounted intrinsic value on the forward.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # those entries take the intrinsic value below
        d1 = np.log(forward / strike) / sd + 0.5 * sd
        d2 = d1 - sd
        price = omega * disc * (forward * ndtr(omega * d1) - strike * ndtr(omega * d2))
    return np.where((sd > 0.0) & (strike > 0.0), price, disc * np.maximum(omega * (forward - strike), 0.0))


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
    _finite(strike=strike, spot=spot)
    _nonnegative("total volatility", total_vol)
    _finite(rate=rate)
    _nonnegative("maturity", maturity)
    _direction(omega)
    disc = np.exp(-rate * maturity)
    return float(_black(spot / disc, strike, total_vol, disc, omega))


def margrabe(
    x1: float, x2: float, vol1: float, vol2: float, rho: float, maturity: float, omega: int = 1
) -> float:
    """Zero-strike option to exchange asset 1 for asset 2 (payoff on x2 - x1).

    Black's formula on the forward x2 at strike x1, undiscounted, with the
    effective variance vol1^2 - 2 rho vol1 vol2 + vol2^2; independent of the
    rate.  Zero effective volatility collapses to the intrinsic value.
    """
    _pair_inputs(x1, x2, vol1, vol2, rho, maturity)
    _direction(omega)
    sig = np.sqrt(max(vol1**2 - 2.0 * rho * vol1 * vol2 + vol2**2, 0.0))
    return float(_black(x2, x1, sig * np.sqrt(maturity), 1.0, omega))


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
    _finite(w1=w1, w2=w2)
    _pair_inputs(x1, x2, vol1, vol2, rho, maturity)
    _finite(rate=rate)
    p = 1.0 / (w1 + w2)
    gamma2 = (vol1**2 * w1**2 + vol2**2 * w2**2 + 2.0 * rho * vol1 * vol2 * w1 * w2) * p**2 * maturity
    drift_term = ((rate - 0.5 * vol1**2) * w1 + (rate - 0.5 * vol2**2) * w2) * p * maturity
    return float(
        np.exp(-rate * maturity) * x1 ** (p * w1) * x2 ** (p * w2) * np.exp(drift_term + 0.5 * gamma2)
    )


def _geometric_law(model: MultiAssetModel, tuple_set: TupleSet, spec: BasketSpec):
    """Each kept tuple's law of log G, G = prod S_i^g_i with g = w / sum(w): the (K,) log-means and log-sds, and g.

    A tuple's prices are jointly lognormal, so log G has mean means @ g and variance g^T xi g.
    """
    _one_weight_per_asset(spec, model.n)
    means, xi = tuple_laws(model, tuple_set.index_array, spec.maturity)
    w = np.asarray(spec.weights)
    g = w / w.sum()
    return means @ g, np.sqrt(np.maximum((xi @ g) @ g, 0.0)), g


def _geometric_prices(log_means: np.ndarray, sds: np.ndarray, weights: np.ndarray, spec: BasketSpec):
    """Mixture prices of the geometric option, one per row of (..., K) log-means of G: Black's on each tuple's forward."""
    disc = np.exp(-spec.rate * spec.maturity)
    return _black(np.exp(log_means + 0.5 * sds**2), spec.strike, sds, disc, spec.omega) @ weights


def price_geometric_mvmd(
    model: MultiAssetModel, spec: BasketSpec, kappa: float = 0.0
) -> PriceEstimate:
    """Exact mixture price of the geometric-average option (zero error bar)."""
    if spec.kind != "geometric":
        raise ValueError("spec must be geometric")
    tuple_set = truncate(model, kappa)
    log_means, sds, _ = _geometric_law(model, tuple_set, spec)
    price = _geometric_prices(log_means, sds, tuple_set.weight_array, spec)
    return PriceEstimate(float(price), 0.0, 0, "geometric-closed-form")


_TILE_BYTES = 2**20  # a tile's (C, paths) log-price matrix stays within this, so a worker's scratch stays in cache
_ROWS = 8  # level rows per selection product; >= 2, since numpy sends a one-row product to gemv, whose sums differ


def _tuple_mc_prices(
    model: MultiAssetModel,
    tuple_set: TupleSet,
    specs: tuple[BasketSpec, ...],
    paths: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-step Monte Carlo mixture prices of every spec on one draw.

    The kept tuples of `tuple_set` belong to `model`, whose component
    columns at maturity (see `multivariate._component_columns`) carry every
    tuple's law.  The specs share a maturity and may differ in everything
    else: basket kind and weights (a spot bump is a weight; see
    `greeks_mvmd`), strike, direction and rate.  Per tile of a path block
    the tile's rows of the block's standard normal draw z become the
    (C, tile) log-price matrix X of the columns, which feeds every tuple,
    basket and strike, so they all share common random numbers, and basket
    levels are linear in it: a tuple's level is one row of the product of a
    selection matrix, whose row holds a basket's weights at the tuple's
    columns, with

    * geometric, g = w / sum(w): X itself, giving the log level;
    * arithmetic: exp(X), taken once per tile in X's own buffer after the
      geometric levels are read.

    Tuples are taken up to 8 at a time, and each spec is discounted at its
    own rate.  Each tile is a `run_blocks` unit: a block's first tile draws
    the normals its other tiles wait for, and each tile sums into its own
    slot, which the block's last tile to finish adds in path order, so no
    bit depends on the worker count.  A tuple's price has the same bits as
    in a pass over that tuple alone: nothing of it is formed or summed
    across tuples.
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
    # paths per tile: a power of two, so tiles split blocks evenly; set by the model alone, so a
    # tuple's sums are grouped alike whatever else is priced
    tile = min(BLOCK_SIZE, 2 ** int(math.log2(max(1, _TILE_BYTES // (8 * ncols)))))
    units = [(b, lo, min(lo + tile, stop)) for b, start, stop in path_blocks(paths) for lo in range(start, stop, tile)]
    nblocks, height, width = units[-1][0] + 1, min(BLOCK_SIZE, paths), min(tile, paths)
    sums, comb_sq = np.zeros((len(specs), ntuples, nblocks)), np.zeros((len(specs), nblocks))
    sizes = {"x": ncols, "levels": rows, "pay": rows, "term": 1, "combined": max(len(m) for _, m in baskets.values())}
    # a block's buffers: its normals, and per tile and spec the tuples' payoff sums, then the sum of squares
    shapes = ((height, n * loadings.shape[1]), (-(-height // tile), len(specs), ntuples + 1))
    local, lock, spare, held = threading.local(), threading.Lock(), [], {}  # held: block -> buffers or draw error
    drawn, left = [threading.Event() for _ in range(nblocks)], Counter(b for b, _, _ in units)

    def run_tile(b: int, first: int, last: int) -> None:
        start, stop = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, paths)
        if first == start:  # the block's first tile draws the normals of all of its tiles
            try:
                with lock:
                    held[b] = spare.pop() if spare else tuple(map(np.empty, shapes))
                substream(seed, b).standard_normal(out=held[b][0][: stop - start])
            except BaseException as exc:  # the block's other tiles raise it too
                held[b] = exc
                raise
            finally:  # so no tile waits forever
                drawn[b].set()
        drawn[b].wait()
        if isinstance(held[b], BaseException):
            raise held[b]
        normals, tile_sums = held[b]
        if not hasattr(local, "scratch"):  # per tile-running thread, once per call
            local.scratch = {name: np.empty(size * width) for name, size in sizes.items()}
        m, slot = last - first, (first - start) // tile

        def view(name: str, *shape: int) -> np.ndarray:
            return local.scratch[name][: m * math.prod(shape)].reshape(*shape, m)

        x = _column_log_prices(model, loadings, means, normals[first - start : last - start], view("x", ncols))
        term, logs, level_rows, pay_rows = view("term"), True, view("levels", rows), view("pay", chunk)
        for key in order:
            sel, members = baskets[key]
            combined = view("combined", len(members))  # one basket's weighted payoffs at a time
            if key[0] == "arithmetic" and logs:
                np.exp(x, out=x)
                logs = False
            for q, k0 in enumerate(range(0, ntuples, chunk)):
                k1 = min(k0 + chunk, ntuples)  # the last chunk may hold fewer tuples
                levels = np.matmul(sel[q], x, out=level_rows)[: k1 - k0]
                if key[0] == "geometric":
                    np.exp(levels, out=levels)
                pay = pay_rows[: k1 - k0]
                for i, j in enumerate(members):
                    s = specs[j]
                    if s.omega == 1:  # the operand order gives the direction: L - K or K - L
                        np.subtract(levels, s.strike, out=pay)
                    else:
                        np.subtract(s.strike, levels, out=pay)
                    np.maximum(pay, 0.0, out=pay)
                    pay.sum(axis=-1, out=tile_sums[slot, j, k0:k1])  # a 1-D pairwise sum per tuple
                    # the weighted payoff of each path: the first chunk writes it, later ones add
                    np.dot(w[k0:k1], pay, out=term if k0 else combined[i])
                    if k0:
                        combined[i] += term
            tile_sums[slot, members, -1] = np.square(combined, out=combined).sum(axis=1)  # one pairwise sum per spec
        with lock:
            left[b] -= 1
            if not left[b]:  # the block's last tile to finish adds the tiles' sums in path order
                for slot in range(-(-(stop - start) // tile)):
                    sums[:, :, b] += tile_sums[slot, :, :-1]
                    comb_sq[:, b] += tile_sums[slot, :, -1]
                spare.append(held.pop(b))

    run_blocks(run_tile, units)
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
) -> list[PriceEstimate]:
    """`price_mvmd_mc` of every spec, all priced from the same draws."""
    price, se = _tuple_mc_prices(model, truncate(model, kappa), specs, paths, seed)
    return [PriceEstimate(float(p), float(e), paths, "mvmd-semianalytic") for p, e in zip(price, se)]


def price_mvmd_mc(
    model: MultiAssetModel,
    spec: BasketSpec,
    kappa: float = 0.0,
    paths: int = 1_000_000,
    seed: int = 0,
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
    return _mvmd_estimates(model, (spec,), kappa, paths, seed)[0]


def greeks_mvmd(
    model: MultiAssetModel,
    spec: BasketSpec,
    bump: float | np.ndarray,
    kappa: float = 0.0,
    paths: int = 1_000_000,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Delta vector and gamma matrix by central differences on the spots.

    A spot bump only rescales a basket weight (S e^X -> (S'/S) S e^X), so
    the 1 + 2n + 2n(n-1) bumps of an arithmetic basket are priced as specs
    on the one model, in one pass on the same draws: the random draws
    cancel in the differences and the convex-combination structure carries
    over to the Greeks.  Geometric baskets use the closed form, each bump
    shifting every tuple's log-mean of the average by g . log(S'/S).  `bump`
    is an absolute spot bump, scalar or per asset, below each asset's spot.
    """
    n = model.n
    _one_weight_per_asset(spec, n)
    if np.ndim(bump) and np.shape(bump) != (n,):
        raise ValueError(f"need one bump per asset ({n}) or one scalar bump, got shape {np.shape(bump)}")
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
    ratios = (model.spots + np.array(shifts)) / model.spots  # (M, n): each bump's S' / S
    tuple_set = truncate(model, kappa)
    if spec.kind == "geometric":
        log_means, sds, g = _geometric_law(model, tuple_set, spec)
        values = _geometric_prices(log_means + (np.log(ratios) @ g)[:, None], sds, tuple_set.weight_array, spec)
    else:
        w = np.asarray(spec.weights)
        specs = tuple(replace(spec, weights=tuple(w * r)) for r in ratios)
        values = _tuple_mc_prices(model, tuple_set, specs, paths, seed)[0]
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
