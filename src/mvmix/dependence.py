"""Dependence analytics: normal CDFs, Kendall's tau and the mixture copula.

The terminal copula of the multivariate mixture is a weighted combination of
Gaussian copulas: one standardized multivariate normal CDF per component
tuple, evaluated at transformed mixture quantiles.  Kendall's tau of assets
1 and 2 has a closed form for any component counts and piecewise vols, one
batched bivariate normal CDF over the pairs of the pair's component tuples.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri, owens_t
from scipy.stats import kendalltau, qmc, rankdata

from .multivariate import MultiAssetModel, _check_correlation, _component_columns, truncate, tuple_laws
from .univariate import inverse_cdf

__all__ = [
    "bivariate_normal_cdf",
    "multivariate_normal_cdf",
    "kendall_tau_mvmd",
    "kendall_tau_empirical",
    "copula_value",
    "empirical_copula",
]


def bivariate_normal_cdf(a, b, rho) -> float | np.ndarray:
    """P(X <= a, Y <= b) for a standardized bivariate normal with correlation rho.

    Owen's (1956) T-function identity, exact to rounding (~1e-16 absolute).
    Broadcasts over array arguments.  All-scalar (0-d) arguments take a
    scalar branch on Python floats that runs the same formulas and cases in
    the same order, so it returns the bits the array path would, as a float.
    rho = +-1 are the degenerate comonotone / antimonotone limits.
    """
    if all(isinstance(v, (int, float)) or np.ndim(v) == 0 for v in (a, b, rho)):
        return _bivariate_normal_cdf_scalar(float(a), float(b), float(rho))
    h, k, r = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, rho)))
    if np.isnan(h).any() or np.isnan(k).any() or np.isnan(r).any():
        raise ValueError("inputs must not be NaN")
    if np.any(np.abs(r) > 1.0):
        raise ValueError("correlation must lie in [-1, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt((1.0 - r) * (1.0 + r))
        both_zero = (h == 0.0) & (k == 0.0)

        def owen(x, y):
            # T(x, (y - r x) / (x s)); at x = 0 the second argument is
            # sign(y) inf, or sqrt((1 - r) / (1 + r)) in the limit x = y -> 0.
            c = np.where(x == 0.0, np.copysign(np.inf, y), (y - r * x) / (x * s))
            return owens_t(x, np.where(both_zero, (1.0 - r) / s, c))

        beta = np.where((h * k < 0.0) | ((h * k == 0.0) & (h + k < 0.0)), 0.5, 0.0)
        value = 0.5 * (ndtr(h) + ndtr(k)) - owen(h, k) - owen(k, h) - beta
    value = np.where(r == 1.0, ndtr(np.minimum(h, k)), value)
    value = np.where(r == -1.0, np.maximum(ndtr(h) + ndtr(k) - 1.0, 0.0), value)
    # Infinite limits: -inf in either argument gives 0, +inf marginalizes it out.
    value = np.where(np.isposinf(h), ndtr(k), np.where(np.isposinf(k), ndtr(h), value))
    value = np.where(np.isneginf(h) | np.isneginf(k), 0.0, value)
    return np.clip(value, 0.0, 1.0)


def _bivariate_normal_cdf_scalar(h: float, k: float, r: float) -> float:
    """`bivariate_normal_cdf` on floats: the array path's formulas, its last overrides tested first."""
    if math.isnan(h) or math.isnan(k) or math.isnan(r):
        raise ValueError("inputs must not be NaN")
    if abs(r) > 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf or k == math.inf:
        value = float(ndtr(k if h == math.inf else h))
    elif r == -1.0:
        value = max(float(ndtr(h)) + float(ndtr(k)) - 1.0, 0.0)
    elif r == 1.0:
        value = float(ndtr(min(h, k)))
    else:
        s = math.sqrt((1.0 - r) * (1.0 + r))

        def owen(x, y):
            if h == 0.0 and k == 0.0:
                c = (1.0 - r) / s
            elif x == 0.0:
                c = math.copysign(math.inf, y)
            else:
                try:
                    c = (y - r * x) / (x * s)
                except ZeroDivisionError:  # x * s underflowed: divide as numpy does
                    with np.errstate(divide="ignore", invalid="ignore"):
                        c = float(np.divide(y - r * x, x * s))
            return float(owens_t(x, c))

        beta = 0.5 if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0) else 0.0
        value = 0.5 * (float(ndtr(h)) + float(ndtr(k))) - owen(h, k) - owen(k, h) - beta
    return min(max(value, 0.0), 1.0)


def _plackett_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0, 1] after t = 1 - (1 - s)^2, which clusters nodes at t = 1.

    The Plackett integrand steepens towards t = 1 when the correlation
    matrix is nearly singular; the substitution moves the square-root branch
    point of its conditional variance away from the interval.
    """
    x, w = np.polynomial.legendre.leggauss(points)
    s = 0.5 * (x + 1.0)
    return 1.0 - (1.0 - s) ** 2, w * (1.0 - s)


# Fixed rules for the n = 3 Plackett integral: the 40-point value is
# returned, its difference from the 20-point value is the error estimate.
_PLACKETT_RULES = (_plackett_rule(20), _plackett_rule(40))


def _trivariate_normal_cdf(z: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """P(Z <= z) for n = 3 by Plackett's identity (Genz 2004), with an error estimate.

    Along R(t) = (r12 t, r13 t, r23), t in [0, 1], the CDF starts at
    Phi(z1) Phi2(z2, z3; r23) and grows by dPhi3/dt = r12 phi2(z1, z2; r12 t)
    Phi(conditional z3) + r13 phi2(z1, z3; r13 t) Phi(conditional z2).  The
    coordinates are ordered so that the largest correlation is the fixed r23,
    which keeps the integrand smooth.
    """
    pairs = (abs(m[1, 2]), abs(m[0, 2]), abs(m[0, 1]))
    first = int(np.argmax(pairs))
    order = [first] + [i for i in range(3) if i != first]
    h1, h2, h3 = z[order]
    r12, r13, r23 = m[order[0], order[1]], m[order[0], order[2]], m[order[1], order[2]]
    start = float(ndtr(h1)) * bivariate_normal_cdf(h2, h3, r23)

    def plackett(t: np.ndarray) -> np.ndarray:
        a, b = r12 * t, r13 * t
        det = 1.0 - a * a - b * b - r23 * r23 + 2.0 * a * b * r23

        def term(rho, r_other, x, y, w, ry):
            # rho * phi2(x, y; rho t) * P(W <= w | X = x, Y = y) with corr(X, W) = r_other
            one_minus = 1.0 - ry * ry
            dens = np.exp(-0.5 * (x * x - 2.0 * ry * x * y + y * y) / one_minus) / np.sqrt(one_minus)
            mean = (r_other * (x - ry * y) + r23 * (y - ry * x)) / one_minus
            return rho * dens * ndtr((w - mean) / np.sqrt(det / one_minus))

        return (term(r12, b, h1, h2, h3, a) + term(r13, a, h1, h3, h2, b)) / (2.0 * np.pi)

    coarse, fine = (start + float(w @ plackett(t)) for t, w in _PLACKETT_RULES)
    return fine, max(abs(fine - coarse), 1e-14)


_QMC_SEED = 202306  # fixed: multivariate CDF values are deterministic
_QMC_RANDOMIZATIONS = 24
_QMC_TOL = 1e-6  # target of the 3-sigma error estimate over randomizations


def multivariate_normal_cdf(z, corr, full_output: bool = False) -> float | tuple[float, float]:
    """P(Z <= z) for a standardized n-variate normal, n <= 6.

    n <= 2 uses the exact routines and n = 3 a deterministic Gauss-Legendre
    rule for Plackett's one-dimensional integral.  n = 4..6 integrate the
    separation-of-variables transform with a randomized Sobol rule,
    quadrupling the point count (up to 2**17) until the error estimate
    (3 sigma over randomizations) drops to 1e-6.  With `full_output` the
    error estimate is returned too.  Coordinates at +inf marginalize out;
    any coordinate at -inf gives 0.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    m = np.atleast_2d(np.asarray(getattr(corr, "values", corr), dtype=float))
    n = z.shape[0]
    if m.shape != (n, n):
        raise ValueError("correlation matrix shape must match z")
    _check_correlation(m)
    try:
        return _mvn_cdf(z, m, full_output)
    except np.linalg.LinAlgError:
        raise ValueError("correlation matrix must be positive definite for n >= 3") from None


def _mvn_cdf(z: np.ndarray, m: np.ndarray, full_output: bool) -> float | tuple[float, float]:
    """`multivariate_normal_cdf` without its matrix checks (m: symmetric, unit diagonal); a singular m raises LinAlgError."""
    n = z.shape[0]
    if n > 6:
        raise ValueError("dimensions above 6 are not supported")
    if np.any(np.isnan(z)):
        raise ValueError("inputs must not be NaN")
    if np.any(np.isneginf(z)):
        return (0.0, 0.0) if full_output else 0.0
    finite = ~np.isposinf(z)
    if not np.all(finite):
        idx = np.where(finite)[0]
        if idx.size == 0:
            return (1.0, 0.0) if full_output else 1.0
        return _mvn_cdf(z[idx], m[np.ix_(idx, idx)], full_output)
    if n == 1:
        value = float(ndtr(z[0]))
        return (value, 0.0) if full_output else value
    if n == 2:
        value = bivariate_normal_cdf(z[0], z[1], m[0, 1])
        return (value, 1e-14) if full_output else value

    # Most restrictive coordinates first improves the conditioning chain.
    order = np.argsort(z)
    z = z[order]
    m = m[np.ix_(order, order)]
    chol = np.linalg.cholesky(m)
    if n == 3:
        value, err = _trivariate_normal_cdf(z, m)
        value = float(min(max(value, 0.0), 1.0))
        return (value, err) if full_output else value

    tiny = 1e-15

    def genz_values(u: np.ndarray) -> np.ndarray:
        npts = u.shape[0]
        f = np.full(npts, float(ndtr(z[0] / chol[0, 0])))
        e_prev = f.copy()
        y = np.empty((npts, n - 1))
        for i in range(1, n):
            quant = np.clip(u[:, i - 1] * e_prev, tiny, 1.0 - tiny)
            y[:, i - 1] = ndtri(quant)
            num = z[i] - y[:, : i] @ chol[i, :i]
            e_prev = ndtr(num / chol[i, i])
            f *= e_prev
        return f

    rng = np.random.default_rng(_QMC_SEED)
    npts = 256
    while True:
        estimates = []
        for _ in range(_QMC_RANDOMIZATIONS):
            sob = qmc.Sobol(d=n - 1, scramble=True, seed=rng)
            u = sob.random(npts)
            estimates.append(float(np.mean(genz_values(u))))
        value = float(np.mean(estimates))
        err = 3.0 * float(np.std(estimates)) / np.sqrt(_QMC_RANDOMIZATIONS)
        if err <= _QMC_TOL or npts >= 2**17:
            break
        npts *= 4
    value = float(min(max(value, 0.0), 1.0))
    return (value, err) if full_output else value


def kendall_tau_mvmd(model: MultiAssetModel, maturity: float) -> float:
    """Closed-form Kendall tau of assets 1 and 2 of the mixture at the given horizon.

    The pair's terminal law mixes, over its component tuples k with weights
    a_k, the bivariate normal log-laws of `tuple_laws`, so tau = 4 a^T P a - 1
    with P_kl the chance that a draw of tuple k lies below an independent
    draw of tuple l in both assets.  For k != l that is a bivariate normal
    CDF of the standardized log-mean differences, the difference having
    covariance Xi^k + Xi^l; for k = l it is 1/4 + arcsin(r_k) / (2 pi), with
    the tuple's log-correlation r_k = rho u_1.u_2 / (|u_1| |u_2|) read from
    its component-column loadings u, which is exactly rho for constant vols.
    Any component counts and piecewise vols; other assets marginalize out.
    """
    if model.n < 2:
        raise ValueError("Kendall tau needs at least two assets")
    if not 0 < maturity < np.inf:
        raise ValueError(f"maturity must be positive and finite, got {maturity}")
    pair = MultiAssetModel(model.assets[:2], model.corr.values[:2, :2])
    tuples = truncate(pair, 0.0)
    means, xi = tuple_laws(pair, tuples.index_array, maturity)
    var = np.diagonal(xi, axis1=1, axis2=2)
    s = np.sqrt(var[:, None] + var[None])  # (K, K, 2): sd of tuple k's draw minus tuple l's
    h = (means[None] - means[:, None]) / s
    r = np.clip((xi[:, None, 0, 1] + xi[None, :, 0, 1]) / (s[..., 0] * s[..., 1]), -1.0, 1.0)
    p = bivariate_normal_cdf(h[..., 0], h[..., 1], r)
    loadings, _, offsets = _component_columns(pair, maturity)
    u = loadings[offsets + tuples.index_array]  # (K, 2, P)
    norms = np.linalg.norm(u, axis=2)
    same = np.clip(pair.corr[0, 1] * np.sum(u[:, 0] * u[:, 1], axis=1) / (norms[:, 0] * norms[:, 1]), -1.0, 1.0)
    np.fill_diagonal(p, 0.25 + np.arcsin(same) / (2.0 * np.pi))
    a = tuples.weight_array
    return float(4.0 * (a @ (p @ a)) - 1.0)


def _tie_pairs(values: np.ndarray) -> int:
    """Number of tied pairs, from the run lengths of one sort."""
    ordered = np.sort(values)
    new_run = ordered[1:] != ordered[:-1]
    if new_run.all():
        return 0
    counts = np.diff(np.flatnonzero(np.r_[True, new_run, True]))
    return int(np.sum(counts * (counts - 1) // 2))


def kendall_tau_empirical(x, y) -> float:
    """Concordance-based rank correlation in O(M log M).

    Tied pairs (in x, y or both) contribute zero and stay in the denominator
    M(M-1)/2, which is immaterial for continuous samples.  The integer
    concordant-minus-discordant count comes from scipy's tau-b (Knight's
    algorithm), whose denominator sqrt((M0 - ties_x)(M0 - ties_y)) is undone
    exactly by rounding.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("x and y must have the same length")
    m = x.shape[0]
    if m < 2:
        raise ValueError("need at least two pairs")
    for name, values in (("x", x), ("y", y)):
        if np.isnan(values).any():
            raise ValueError(f"{name} must not contain NaN")
    n0 = m * (m - 1) // 2
    n_x = _tie_pairs(x)
    n_y = _tie_pairs(y)
    if n_x == n0 or n_y == n0:  # every pair tied: tau-b is undefined, the count is 0
        return 0.0
    tau_b = kendalltau(x, y).statistic
    conc_minus_disc = round(tau_b * np.sqrt(n0 - n_x) * np.sqrt(n0 - n_y))
    return conc_minus_disc / n0


def _copula_values(model: MultiAssetModel, t: float, points: np.ndarray, kappa: float) -> np.ndarray:
    """Terminal copula of the mixture at each row of an (m, n) array of coordinates in [0, 1].

    A grid shares its work: each asset's quantile is found once per distinct
    level and the tuple laws once per call.  Every row still sums
    `weights @ its tuple CDFs`, so its value has the bits of a one-row call.
    Rows with a coordinate at 0 give 0, rows of ones give 1.
    """
    zero = np.any(points == 0.0, axis=1)
    out = np.where(zero, 0.0, 1.0)
    live = ~zero & np.any(points < 1.0, axis=1)
    if not live.any():
        return out
    u = points[live]
    logx = np.empty_like(u)
    for j, asset in enumerate(model.assets):
        levels, inverse = np.unique(u[:, j], return_inverse=True)
        logx[:, j] = np.log([inverse_cdf(asset, t, level) if level < 1.0 else np.inf for level in levels])[inverse]
    tuples = truncate(model, kappa)
    means, xi = tuple_laws(model, tuples.index_array, t)
    sd = np.sqrt(np.diagonal(xi, axis1=1, axis2=2))
    z = (logx[:, None, :] - means) / sd
    corrs = np.clip(xi / (sd[:, :, None] * sd[:, None, :]), -1.0, 1.0)  # rho = +-1 can round past 1
    if model.n == 2:
        values = bivariate_normal_cdf(z[..., 0], z[..., 1], corrs[:, 0, 1])
    else:
        values = np.empty(z.shape[:2])
        for row, k in np.ndindex(values.shape):
            try:  # tuple_laws builds symmetric covariances, so corrs pass the public checks by construction
                values[row, k] = _mvn_cdf(z[row, k], corrs[k], False)
            except np.linalg.LinAlgError:
                tup, corr = tuples.index_array[k].tolist(), corrs[k].round(12).tolist()
                raise ValueError(f"n >= 3 copula: tuple {tup} has the singular correlation {corr}") from None
    lower, upper = np.maximum(u.sum(axis=1) - (model.n - 1), 0.0), u.min(axis=1)  # Frechet-Hoeffding bounds
    out[live] = [min(max(tuples.weight_array @ row, lo), hi) for row, lo, hi in zip(values, lower, upper)]
    return out


def copula_value(model: MultiAssetModel, t: float, u, kappa: float = 0.0) -> float:
    """Terminal copula of the mixture at the uniform coordinates u.

    Weighted combination over component tuples of the standardized normal
    CDF with that tuple's log-space correlation matrix, evaluated at the
    component-standardized mixture quantiles.  Coordinates at 1 marginalize
    out; any coordinate at 0 gives 0.  The value lies in the Frechet-Hoeffding
    bounds [max(sum u - (n - 1), 0), min u].  A tuple whose correlation is
    singular on three or more coordinates below 1 is refused.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape[0] != model.n:
        raise ValueError("one uniform coordinate per asset required")
    if np.isnan(u).any():
        raise ValueError("u must not contain NaN")
    if np.any((u < 0.0) | (u > 1.0)):
        raise ValueError("coordinates must lie in [0, 1]")
    return float(_copula_values(model, t, u[None, :], kappa)[0])


def empirical_copula(samples: np.ndarray, u: np.ndarray) -> float:
    """Rank-based empirical copula of a (paths, n) sample at coordinates u."""
    samples = np.asarray(samples, dtype=float)
    u = np.asarray(u, dtype=float)
    if samples.ndim != 2 or u.shape != (samples.shape[1],):
        raise ValueError("need a (paths, n) sample and one uniform coordinate per column")
    if np.isnan(samples).any():
        raise ValueError("samples must not contain NaN")
    if not np.all((u >= 0.0) & (u <= 1.0)):  # NaN fails too
        raise ValueError("coordinates must lie in [0, 1]")
    ranks = rankdata(samples, method="ordinal", axis=0)  # ties ranked in sample order
    return float(np.mean(np.all(ranks / samples.shape[0] <= u[None, :], axis=1)))
