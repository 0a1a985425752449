"""Multi-asset mixture dynamics with a state-dependent diffusion matrix.

The joint density of the n assets is a convex combination, over all
component tuples (k_1, ..., k_n), of multivariate lognormal densities whose
log-space covariance is the integrated covariance matrix Xi(t).  The
diffusion matrix C C^T at (t, x) is the density-weighted average of the
per-tuple instantaneous covariance matrices, which keeps each asset's
marginal law exactly equal to its univariate mixture.

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
from functools import lru_cache, reduce
from typing import Iterator

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .univariate import AssetMixture, _local_vols
from .volcurve import VolCurve

__all__ = [
    "CorrelationMatrix",
    "MultiAssetModel",
    "ComponentTuple",
    "TupleSet",
    "SingularCovarianceError",
    "tuple_laws",
    "integrated_covariance",
    "component_mvln_pdf",
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


def psd_factor(matrix: np.ndarray, eig_floor: float = _EIG_FLOOR) -> np.ndarray:
    """Factor L with L @ L.T = matrix for a (possibly rank-deficient) PSD matrix.

    Positive-definite input gets the Cholesky factor; rank-deficient input
    (perfect correlation) falls back to a sign-fixed eigenfactorization with
    zero columns for the dropped directions.  Both orientations are
    canonical, so factors of nearby matrices map the same normal draws to
    price moves of the same sign (common-random-number coherence).
    Eigenvalues below `eig_floor` are rejected; small negatives above it are
    rounding noise and get clipped to zero.
    """
    m = np.asarray(matrix, dtype=float)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(m)
    if w.min() < eig_floor * max(1.0, w.max()):
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
    """Validated instantaneous correlation matrix R."""

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

    def tuple_at(self, indices) -> "ComponentTuple":
        return ComponentTuple(self, tuple(int(k) for k in indices))

    def vol_bounds(self) -> tuple[float, float]:
        """Global (lo, hi) over every component volatility curve."""
        los = [c.vol.lo for a in self.assets for c in a.components]
        his = [c.vol.hi for a in self.assets for c in a.components]
        return min(los), max(his)


@dataclass(frozen=True, eq=False)
class ComponentTuple:
    """One multivariate mixture component: indices (k_1, ..., k_n).

    Its law at t is jointly lognormal with log-means `log_means(t)` and log
    covariance `integrated_covariance(t)`, the one-row case of `tuple_laws`.
    """

    model: MultiAssetModel
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(k) for k in self.indices))
        if len(self.indices) != self.model.n:
            raise ValueError("one component index per asset required")
        for asset, k in zip(self.model.assets, self.indices):
            if not 0 <= k < asset.n_components:
                raise ValueError(f"component index {k} out of range")

    @property
    def weight(self) -> float:
        """Product of the per-asset component weights."""
        return float(
            np.prod([a.components[k].weight for a, k in zip(self.model.assets, self.indices)])
        )

    def vols(self) -> tuple[VolCurve, ...]:
        return tuple(a.components[k].vol for a, k in zip(self.model.assets, self.indices))

    def spot_vols(self, t: float) -> np.ndarray:
        return np.array([v.value(t) for v in self.vols()])

    def integrated_covariance(self, t: float) -> np.ndarray:
        return integrated_covariance(self.model, self.indices, t)

    def log_means(self, t: float) -> np.ndarray:
        """Log-space means: ln x_i(0) + mu_i t - Xi_ii(t) / 2."""
        return tuple_laws(self.model, [self.indices], t)[0][0]

    def instantaneous_covariance(self, t: float) -> np.ndarray:
        """V(t) = [sigma_i(t) rho_ij sigma_j(t)] for this tuple's vols."""
        s = self.spot_vols(t)
        return np.outer(s, s) * self.model.corr.values


def tuple_laws(model: MultiAssetModel, indices, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Terminal laws at t of K component tuples, one per row of the (K, n) `indices`.

    Returns the (K, n) log-means ln x_i(0) + mu_i t - Xi_ii(t) / 2 and the
    (K, n, n) integrated covariances Xi_ij(t) = rho_ij * integral of
    sigma_i^{k_i}(s) sigma_j^{k_j}(s) ds, exact for the piecewise-constant
    curves and symmetric with the integrated variances on the diagonal.
    Each integral is evaluated once per pair of (asset, component) the rows
    use and gathered into every row that holds the pair.
    """
    means, xi = _shared_laws((model,), indices, t)
    return means[0], xi


def _shared_laws(models, indices, t: float) -> tuple[np.ndarray, np.ndarray]:
    """`tuple_laws` of models that differ from models[0] only in spots and drifts.

    The integrals come from models[0], once; each model's (K, n) log-means
    are formed from the same integrated variances, so the result is the
    (M, K, n) log-means and the one (K, n, n) covariance stack they share.
    """
    model = models[0]
    if not t > 0:
        raise ValueError("need t > 0")
    n, counts = model.n, np.array(model.component_counts())
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[1] != n:
        raise ValueError("one component index per asset required")
    bad = (idx < 0) | (idx >= counts)
    if bad.any():
        raise ValueError(f"component index {idx[bad][0]} out of range")
    vols = [[c.vol for c in a.components] for a in model.assets]
    used = [np.unique(idx[:, i]).tolist() for i in range(n)]
    table = np.zeros((n, n, counts.max(), counts.max()))  # [i, j, a, b]: sigma_i^a with sigma_j^b
    for i in range(n):
        for j in range(i, n):
            for a in used[i]:
                for b in used[j]:
                    table[i, j, a, b] = table[j, i, b, a] = vols[i][a].integral_with(vols[j][b], t)
    assets = np.arange(n)
    xi = model.corr.values * table[assets[:, None], assets, idx[:, :, None], idx[:, None, :]]
    v2 = table[assets, assets, idx, idx]
    return np.stack([np.log(m.spots) + m.drifts * t - 0.5 * v2 for m in models]), xi


def integrated_covariance(model: MultiAssetModel, indices, t: float) -> np.ndarray:
    """Xi(t) of one component tuple: the one-row case of `tuple_laws`."""
    return tuple_laws(model, [indices], t)[1][0]


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
    if not t > 0:
        raise ValueError("need t > 0")
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


def _chol_or_singular(xi: np.ndarray, indices, t: float):
    """Cholesky of Xi; tiny/singular pivots flag the tuple as singular."""
    try:
        c, low = cho_factor(xi, lower=True)
    except np.linalg.LinAlgError:
        raise SingularCovarianceError(tuple(indices), t) from None
    diag = np.diag(c)
    if np.min(diag) <= 1e-9 * np.max(diag):
        raise SingularCovarianceError(tuple(indices), t)
    return c, low


def component_mvln_logpdf(model: MultiAssetModel, indices, t: float, x) -> np.ndarray | float:
    """Log density of the multivariate lognormal component at price vector x.

    x may be a single n-vector or an (m, n) array of points.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out = _tuple_logpdfs(model, [indices], t, x[None, :] if single else x)[0]
    return float(out[0]) if single else out


def _tuple_logpdfs(model: MultiAssetModel, indices, t: float, pts: np.ndarray) -> list[np.ndarray]:
    """Log densities of the tuples in the rows of `indices` at (m, n) points, one array per tuple."""
    if pts.shape[1] != model.n:
        raise ValueError("price vector dimension must match the model")
    if np.any(pts <= 0):
        raise ValueError("prices must be positive")
    means, xi = tuple_laws(model, indices, t)
    logx = np.log(pts)
    out = []
    for row, mean, cov in zip(indices, means, xi):
        c, low = _chol_or_singular(cov, [int(k) for k in row], t)
        logdet = 2.0 * np.sum(np.log(np.diag(c)))
        centered = logx - mean[None, :]
        sol = cho_solve((c, low), centered.T)
        quad = np.sum(centered.T * sol, axis=0)
        out.append(-0.5 * quad - 0.5 * logdet - 0.5 * model.n * np.log(2.0 * np.pi) - np.sum(logx, axis=1))
    return out


def component_mvln_pdf(model: MultiAssetModel, indices, t: float, x) -> np.ndarray | float:
    """Multivariate lognormal density of one component tuple."""
    return np.exp(component_mvln_logpdf(model, indices, t, x))


@dataclass(frozen=True)
class TupleSet:
    """Component tuples kept after a cutoff, with renormalized weights."""

    tuples: tuple[ComponentTuple, ...]
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return zip(self.tuples, self.weights)

    @property
    def weight_array(self) -> np.ndarray:
        return np.array(self.weights)

    @property
    def index_array(self) -> np.ndarray:
        """(K, n) component indices of the kept tuples, the rows `tuple_laws` takes."""
        return np.array([tp.indices for tp in self.tuples])


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
    # Every tuple's weight, in itertools.product order: one running product
    # over the assets, left to right like ComponentTuple.weight, so equal to it.
    raw = reduce(np.multiply.outer, [a.weights for a in model.assets]).ravel()
    if kappa == 0.0:
        return TupleSet(tuple(model.tuples()), tuple(raw.tolist()))
    keep = raw > kappa
    kept = raw[keep]
    return TupleSet(tuple(itertools.compress(model.tuples(), keep)), tuple(kept / kept.sum()))


def _tuple_logweights(
    model: MultiAssetModel, tuple_set: TupleSet, t: float, x: np.ndarray
) -> np.ndarray:
    """log(weight * density) per kept tuple at points x, shape (K, m)."""
    logpdfs = _tuple_logpdfs(model, tuple_set.index_array, t, x)
    with np.errstate(divide="ignore"):  # zero weights belong at -inf
        return np.vstack([np.log(w) + logpdf for w, logpdf in zip(tuple_set.weights, logpdfs)])


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
    covariance matrices V(t); weights are computed in log space with the
    dominant exponent factored out, so in deep tails the matrix converges
    to the V of the dominating tuple.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.n:
        raise ValueError("x must be a single price vector")
    tuple_set = truncate(model, kappa)
    logw = _tuple_logweights(model, tuple_set, t, x[None, :])[:, 0]
    w = np.exp(logw - logw.max())
    w /= w.sum()
    out = np.zeros((model.n, model.n))
    for wk, (tp, _) in zip(w, tuple_set):
        out += wk * tp.instantaneous_covariance(t)
    return out


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


@lru_cache(maxsize=None)
def volume_estimate(kappa: float, n: int) -> float:
    """Volume of the region prod(x_i) > kappa inside the unit n-cube.

    Recursion: V_n = V_{n-1} + (-1)^n / (n-1)! * kappa * (ln kappa)^(n-1),
    with V_0 = 1.  kappa = 0 gives V_n = 1 by continuity.
    """
    kappa = float(kappa)
    if not 0.0 <= kappa <= 1.0:
        raise ValueError("cutoff must lie in [0, 1]")
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if kappa == 0.0 or n == 0:
        return 1.0
    prev = volume_estimate(kappa, n - 1)
    return prev + (-1.0) ** n / math.factorial(n - 1) * kappa * np.log(kappa) ** (n - 1)


def density_count(kappa: float, n: int, rho_density: float) -> float:
    """Estimated number of tuples surviving the cutoff at weight density rho."""
    return volume_estimate(kappa, n) * float(rho_density) ** n


def marginal_moment(model: MultiAssetModel, i: int, t: float, order: int = 1) -> float:
    """E[S_i(t)^m] computed from the full multivariate tuple expansion.

    Marginal consistency makes this equal the univariate mixture moment.
    """
    tuple_set = truncate(model, 0.0)
    means = tuple_laws(model, tuple_set.index_array, t)[0]
    total = 0.0
    for (tp, w), m in zip(tuple_set, means[:, i]):
        v2 = tp.vols()[i].integral_sq(t)
        total += w * np.exp(order * m + 0.5 * order**2 * v2)
    return float(total)
