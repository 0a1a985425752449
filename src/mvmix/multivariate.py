"""Multi-asset mixture dynamics with a state-dependent diffusion matrix.

The joint density of the n assets is a convex combination, over all
component tuples (k_1, ..., k_n), of multivariate lognormal densities whose
log-space covariance is the integrated covariance matrix Xi(t).  The
diffusion matrix C C^T at (t, x) is the density-weighted average of the
per-tuple instantaneous covariance matrices, which keeps each asset's
marginal law exactly equal to its univariate mixture.

The kept tuples are a `TupleSet`: two read-only arrays, the (K, n)
component indices and the (K,) weights, checked once when it is built.
`tuple_laws` reads each row as its component columns (below) and stacks
the laws for one batched pass.  `ComponentTuple` is only the record
`truncate` enumerates through `model.tuples()`; both stay because the
benchmark counts those records (ROADMAP item 1a).

Read as the Markovian projection of an uncertain-volatility model, every
tuple's terminal law is one set of correlated Brownian motions seen
through each asset's own curve, so the samplers and the pricing kernel
draw it as component columns: asset i under component c is one log-price
column, shared by every tuple that holds c, driven by one standard normal
n-vector per piece of [0, T] between the curves' breakpoints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterator

import numpy as np
from scipy.special import gammainc

from .univariate import AssetMixture, _local_vols

__all__ = [
    "CorrelationMatrix",
    "MultiAssetModel",
    "ComponentTuple",
    "TupleSet",
    "SingularCovarianceError",
    "tuple_laws",
    "mixture_pdf",
    "mvmd_diffusion_squared",
    "scmd_covariance",
    "truncate",
    "volume_estimate",
    "density_count",
    "marginal_moment",
]

_EIG_FLOOR = -1e-12


class SingularCovarianceError(ValueError):
    """Integrated covariance not invertible; density evaluation refused."""

    def __init__(self, indices: tuple[int, ...], t: float):
        self.indices = indices
        self.t = t
        super().__init__(
            f"integrated covariance is singular for component tuple {indices} at t={t}"
        )


def psd_factor(matrix: np.ndarray) -> np.ndarray:
    """Factor L with L @ L.T = matrix for a (possibly rank-deficient) PSD matrix.

    Positive-definite input gets the Cholesky factor; rank-deficient input
    (perfect correlation) falls back to a sign-fixed eigenfactorization with
    zero columns for the dropped directions.  Both orientations are
    canonical, so factors of nearby matrices map the same normal draws to
    price moves of the same sign (common-random-number coherence).
    Eigenvalues below `_EIG_FLOOR` times the largest are rejected; small
    negatives above it are rounding noise and get clipped to zero.
    """
    m = np.asarray(matrix, dtype=float)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(m)
    if w.min() < _EIG_FLOOR * max(1.0, w.max()):
        raise ValueError(f"matrix is not positive semi-definite (min eigenvalue {w.min():g})")
    # descending eigenvalues; orient each column so its largest entry is positive
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    for j in range(v.shape[1]):
        i = np.argmax(np.abs(v[:, j]))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return v * np.sqrt(np.clip(w, 0.0, None))


class CorrelationMatrix:
    """Validated instantaneous correlation matrix R, stored symmetric with an exact unit diagonal."""

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("correlation matrix must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(m), 1.0, atol=1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        if np.any(np.abs(m) > 1.0 + 1e-12):
            raise ValueError("correlations must lie in [-1, 1]")
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 1.0)  # exact, so Xi_ii is the integrated variance the log-means use
        self._factor = psd_factor(m)  # validates PSD up to the eigenvalue floor
        self.values = m
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def factor(self) -> np.ndarray:
        """L with L @ L.T = R; rank-deficient R gives zero columns."""
        return self._factor

    def __getitem__(self, ij):
        return self.values[ij]

    def __eq__(self, other):
        if not isinstance(other, CorrelationMatrix):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.values.shape, self.values.tobytes()))

    def __repr__(self):
        return f"CorrelationMatrix({self.values.tolist()!r})"


@dataclass(frozen=True)
class MultiAssetModel:
    """n lognormal-mixture assets tied together by a correlation matrix."""

    assets: tuple[AssetMixture, ...]
    corr: CorrelationMatrix

    def __post_init__(self):
        assets = tuple(self.assets)
        object.__setattr__(self, "assets", assets)
        corr = self.corr
        if not isinstance(corr, CorrelationMatrix):
            corr = CorrelationMatrix(corr)
            object.__setattr__(self, "corr", corr)
        if len(assets) < 1:
            raise ValueError("need at least one asset")
        if corr.dim != len(assets):
            raise ValueError("correlation dimension must match the number of assets")

    @property
    def n(self) -> int:
        return len(self.assets)

    @property
    def spots(self) -> np.ndarray:
        return np.array([a.spot for a in self.assets])

    @property
    def drifts(self) -> np.ndarray:
        return np.array([a.drift for a in self.assets])

    def component_counts(self) -> tuple[int, ...]:
        return tuple(a.n_components for a in self.assets)

    def tuples(self) -> Iterator["ComponentTuple"]:
        """Lazily enumerate all component tuples (product over assets)."""
        for indices in itertools.product(*(range(a.n_components) for a in self.assets)):
            yield ComponentTuple(self, indices)

    def vol_bounds(self) -> tuple[float, float]:
        """Global (lo, hi) over every component volatility curve."""
        los = [c.vol.lo for a in self.assets for c in a.components]
        his = [c.vol.hi for a in self.assets for c in a.components]
        return min(los), max(his)


@dataclass(frozen=True, eq=False)
class ComponentTuple:
    """One multivariate mixture component: its model and indices (k_1, ..., k_n).

    The record `model.tuples()` yields; `truncate` keeps only its indices,
    which a `TupleSet` checks against the model.
    """

    model: MultiAssetModel
    indices: tuple[int, ...]


def _index_rows(model: MultiAssetModel, indices) -> np.ndarray:
    """The (K, n) `intp` array of the component-index rows, each index checked against its asset."""
    try:
        rows = np.asarray(indices)
        with np.errstate(invalid="ignore"):  # NaN and inf are reported as not integral below
            idx = rows.astype(np.intp, copy=False)
    except (TypeError, ValueError):  # rows of different lengths, or not numbers
        idx = None
    if idx is None or idx.ndim != 2 or idx.shape[1] != model.n:
        raise ValueError("one component index per asset required")
    fractional = idx != rows
    if fractional.any():
        raise ValueError(f"component index {rows[fractional][0]} is not an integer")
    bad = (idx < 0) | (idx >= model.component_counts())
    if bad.any():
        raise ValueError(f"component index {idx[bad][0]} out of range")
    return idx


def tuple_laws(model: MultiAssetModel, indices, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Terminal laws at t of K component tuples, one per row of the (K, n) `indices`.

    Returns the (K, n) log-means ln x_i(0) + mu_i t - Xi_ii(t) / 2 and the
    (K, n, n) integrated covariances Xi_ij(t) = rho_ij * integral of
    sigma_i^{k_i}(s) sigma_j^{k_j}(s) ds, exact for the piecewise-constant
    curves and symmetric with the integrated variances on the diagonal.
    Row k reads its `_component_columns` offsets + indices[k]: their means,
    and each integral once per pair of columns the rows use.
    """
    _, means, offsets = _component_columns(model, t)
    cols = offsets + _index_rows(model, indices)
    curves = [c.vol for a in model.assets for c in a.components]
    table = np.zeros((len(curves), len(curves)))  # [a, b]: column a's curve with column b's
    for a, b in itertools.combinations_with_replacement(np.unique(cols).tolist(), 2):
        table[a, b] = table[b, a] = curves[a].integral_with(curves[b], t)
    return means[cols], model.corr.values * table[cols[:, :, None], cols[:, None, :]]


def _component_columns(model: MultiAssetModel, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every tuple's terminal law at t as columns shared by the tuples, one per (asset, component).

    Asset i under component c is column offsets[i] + c, so tuple k's
    columns are offsets + indices[k].  [0, t] is cut into P pieces at every
    breakpoint below t of the model's curves (P = 1 for constant vols), and
    column col's log-price is means[col] + sum_p loadings[col, p] W_p,i,
    where loadings[col, p] = sigma_i^c(t_p) sqrt(tau_p) and the moves
    W_p = z_p @ L_R.T of independent standard normal n-vectors z_p, one per
    piece, are shared by every column (see `_column_log_prices`).  A tuple's
    columns thus have exactly the log-means and the covariance
    Xi = sum_p u u^T * R of `tuple_laws`.  Returns the (C, P) loadings, the
    (C,) log-means and the (n,) offsets, C being the total component count.
    """
    if not 0 < t < np.inf:
        raise ValueError(f"need finite t > 0, got t = {t}")
    curves = [c.vol for a in model.assets for c in a.components]
    knots = sorted({b for v in curves for b in v.times if b < t})  # starts at 0
    loadings = np.array([[v.value(s) for s in knots] for v in curves]) * np.sqrt(np.diff([*knots, t]))
    counts = model.component_counts()
    asset = np.repeat(np.arange(model.n), counts)
    v2 = np.array([v.integral_sq(t) for v in curves])
    means = np.log(model.spots)[asset] + model.drifts[asset] * t - 0.5 * v2
    return loadings, means, np.cumsum((0, *counts[:-1]))


def _column_log_prices(model: MultiAssetModel, loadings: np.ndarray, means: np.ndarray, z: np.ndarray, out: np.ndarray):
    """The (C, m) log-prices of every column for (m, n * P) standard normals z, written into out.

    Piece p reads z[:, p * n:(p + 1) * n]; the columns are
    `_component_columns`' means and loadings, here from the same model.
    """
    n, bounds = model.n, np.cumsum((0, *model.component_counts()))
    for p in range(loadings.shape[1]):
        moves = np.matmul(model.corr.factor(), z[:, p * n : (p + 1) * n].T)  # (n, m): W_p.T
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):  # asset i's columns
            if p == 0:
                np.multiply(loadings[lo:hi, :1], moves[i], out=out[lo:hi])
            else:
                out[lo:hi] += loadings[lo:hi, p : p + 1] * moves[i]
    out += means[:, None]
    return out


def _tuple_logpdfs(model: MultiAssetModel, indices, t: float, pts: np.ndarray) -> np.ndarray:
    """(K, m) log densities of the tuples in the rows of `indices` at (m, n) points.

    One column-at-a-time Cholesky pass over the (K, n, n) Xi stack also
    solves L y = log x - mean; the first row with a pivot that is not above
    1e-9 of its largest is reported singular.
    """
    if pts.shape[1] != model.n:
        raise ValueError("price vector dimension must match the model")
    if np.isnan(pts).any():  # pts <= 0 is False for NaN
        raise ValueError("x must not contain NaN")
    if np.any(pts <= 0):
        raise ValueError("prices must be positive")
    means, xi = tuple_laws(model, indices, t)
    logx = np.log(pts)
    centered = logx.T - means[:, :, None]  # (K, n, m)
    chol = np.zeros_like(xi)
    with np.errstate(divide="ignore", invalid="ignore"):  # a failed pivot leaves nan or inf, caught below
        for j in range(model.n):
            col = xi[:, j:, j] - (chol[:, j:, :j] @ chol[:, j, :j, None])[:, :, 0]
            chol[:, j:, j] = col / np.sqrt(col[:, :1])
            centered[:, j] = (centered[:, j] - (chol[:, j, None, :j] @ centered[:, :j])[:, 0]) / chol[:, j, j, None]
    pivots = np.diagonal(chol, axis1=1, axis2=2)
    singular = ~(pivots.min(axis=1) > 1e-9 * pivots.max(axis=1))
    if singular.any():
        raise SingularCovarianceError(tuple(int(k) for k in np.asarray(indices)[singular.argmax()]), t)
    logdet = 2.0 * np.log(pivots).sum(axis=1)
    quad = (centered**2).sum(axis=1)
    return -0.5 * quad - 0.5 * logdet[:, None] - 0.5 * model.n * np.log(2.0 * np.pi) - logx.sum(axis=1)


class TupleSet:
    """Component tuples kept after a cutoff, with renormalized weights.

    `TupleSet(model, indices, weights)` checks the (K, n) component indices and the K
    weights once and keeps read-only copies of them, `index_array` and `weight_array`.
    """

    __slots__ = ("index_array", "weight_array")

    def __init__(self, model: MultiAssetModel, indices, weights):
        if not len(indices):
            raise ValueError("need at least one tuple")
        weights = np.array(weights, dtype=float)
        if weights.shape != (len(indices),):
            raise ValueError("need one weight per tuple")
        if not np.all((weights >= 0.0) & (weights < np.inf)):  # NaN fails both
            raise ValueError("tuple weights must be finite and nonnegative")
        idx = np.array(_index_rows(model, indices))  # a copy: the caller keeps theirs writeable
        idx.setflags(write=False)
        weights.setflags(write=False)
        self.index_array, self.weight_array = idx, weights

    def __len__(self) -> int:
        return len(self.index_array)


def truncate(model: MultiAssetModel, kappa: float = 0.0) -> TupleSet:
    """Keep tuples with product weight > kappa and renormalize to sum 1.

    kappa = 0 returns the full tensor-product set with the raw weights.
    """
    kappa = float(kappa)
    if not 0.0 <= kappa < np.inf:  # NaN fails every comparison and would keep no tuple
        raise ValueError(f"cutoff must be finite and nonnegative, got {kappa}")
    # The heaviest tuple's weight bounds every tuple's (same product, monotone
    # rounding), so a cutoff at or above it is refused before any tuple or
    # weight table is built.
    heaviest = float(np.prod([max(c.weight for c in a.components) for a in model.assets]))
    if kappa > 0.0 and not heaviest > kappa:
        raise ValueError(f"cutoff {kappa} removed all components")
    # Every tuple's weight in itertools.product order: one running product over the assets.
    raw = reduce(np.multiply.outer, [a.weights for a in model.assets]).ravel()
    if kappa == 0.0:
        return TupleSet(model, [tp.indices for tp in model.tuples()], raw)
    keep = raw > kappa
    kept = raw[keep]
    return TupleSet(model, [tp.indices for tp in itertools.compress(model.tuples(), keep)], kept / kept.sum())


def _tuple_logweights(
    model: MultiAssetModel, tuple_set: TupleSet, t: float, x: np.ndarray
) -> np.ndarray:
    """log(weight * density) per kept tuple at points x, shape (K, m)."""
    logpdfs = _tuple_logpdfs(model, tuple_set.index_array, t, x)
    with np.errstate(divide="ignore"):  # zero weights belong at -inf
        return np.log(tuple_set.weight_array)[:, None] + logpdfs


def mixture_pdf(model: MultiAssetModel, t: float, x, kappa: float = 0.0) -> np.ndarray | float:
    """Joint mixture density: weighted sum of the tuple lognormal densities."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    logw = _tuple_logweights(model, truncate(model, kappa), t, pts)
    top = logw.max(axis=0)
    out = np.exp(top) * np.exp(logw - top[None, :]).sum(axis=0)
    return float(out[0]) if single else out


def mvmd_diffusion_squared(
    model: MultiAssetModel, t: float, x, kappa: float = 0.0
) -> np.ndarray:
    """State-dependent squared diffusion matrix C C^T (t, x).

    Density-weighted convex combination of the per-tuple instantaneous
    covariances V_k(t) = R * s_k s_k^T of tuple k's vols s_k at t, weighted
    in log space with the dominant exponent factored out, so in deep tails
    the matrix converges to the V of the dominating tuple.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.n:
        raise ValueError("x must be a single price vector")
    tuple_set = truncate(model, kappa)
    logw = _tuple_logweights(model, tuple_set, t, x[None, :])[:, 0]
    w = np.exp(logw - logw.max())
    w /= w.sum()
    vols = np.array([c.vol.value(t) for a in model.assets for c in a.components])
    s = vols[np.cumsum((0, *model.component_counts()[:-1])) + tuple_set.index_array]  # (K, n)
    return (w * s.T) @ s * model.corr.values


def scmd_covariance(model: MultiAssetModel, t: float, x) -> np.ndarray:
    """Instantaneous covariance when each asset keeps its own univariate nu.

    C~_ij = nu_i(t, x_i) * nu_j(t, x_j) * rho_ij, built from the univariate
    mixture local vols (squared-vol form), so the matrix is PSD whenever R is.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.n:
        raise ValueError("x must be a single price vector")
    nus = _local_vols(model.assets, t, x[:, None])[:, 0]
    return np.outer(nus, nus) * model.corr.values


def volume_estimate(kappa: float, n: int) -> float:
    """Volume of the region prod(x_i) > kappa inside the unit n-cube.

    The -ln x_i are unit exponentials, so V_n = P(Gamma(n, 1) < -ln kappa),
    with V_0 = 1; the incomplete gamma function keeps the digits that the
    sum 1 - kappa * sum_{j<n} (-ln kappa)^j / j! loses to cancellation.
    """
    kappa = float(kappa)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("cutoff must lie in [0, 1]")
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"dimension n must be a whole number, got {n!r}")
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n == 0:
        return 1.0
    return float(gammainc(n, -math.log(kappa) if kappa > 0.0 else math.inf))


def density_count(kappa: float, n: int, rho_density: float) -> float:
    """Estimated number of tuples surviving the cutoff at weight density rho."""
    if not 0.0 <= float(rho_density) < np.inf:  # NaN fails the comparison
        raise ValueError(f"weight density must be finite and nonnegative, got {rho_density}")
    return volume_estimate(kappa, n) * float(rho_density) ** n


def marginal_moment(model: MultiAssetModel, i: int, t: float, order: int = 1) -> float:
    """E[S_i(t)^m] computed from the full multivariate tuple expansion.

    Marginal consistency makes this equal the univariate mixture moment.
    """
    if not 0 <= i < model.n:
        raise ValueError(f"asset index {i} out of range for {model.n} assets")
    tuple_set = truncate(model, 0.0)
    means, xi = tuple_laws(model, tuple_set.index_array, t)
    return float(tuple_set.weight_array @ np.exp(order * means[:, i] + 0.5 * order**2 * xi[:, i, i]))
