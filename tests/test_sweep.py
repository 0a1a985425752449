"""Seeded invariant sweep: exact identities over ~150 random mixture models.

One generator draws every model: 1-4 assets of 1-3 components, constant and
piecewise vols, zero-weight components, rho = +-1 among the two-asset models
and maturities log-uniform on [0.01, 10].  Each model must keep the
invariants that hold exactly, whatever its parameters: marginal moments
against the univariate closed form, quantile round trips, tau in [-1, 1],
the copula inside the Frechet bounds, and finite Greeks.  Call-put parity
and Monte Carlo against the geometric closed form are left out: on
heavy-tailed and zero-hit models their reported error bars claim too much,
and narrowing the range until they pass would hide that.
"""

import numpy as np
import pytest

from mvmix import (
    AssetMixture,
    BasketSpec,
    MultiAssetModel,
    VolCurve,
    analytic_moment,
    copula_value,
    greeks_mvmd,
    inverse_cdf,
    kendall_tau_mvmd,
    mixture_cdf,
)
from mvmix.multivariate import marginal_moment

MODELS = 150
LEVELS = (1e-6, 1e-3, 0.1, 0.5, 0.9, 0.999)


def _vol(rng):
    if rng.random() < 0.5:
        return float(rng.uniform(0.05, 0.8))
    pieces = int(rng.integers(2, 4))
    times = (0.0, *np.sort(rng.uniform(0.005, 5.0, pieces - 1)))
    return VolCurve(times, tuple(rng.uniform(0.05, 0.8, pieces)))


def _asset(rng):
    count = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(count))
    if count > 1 and rng.random() < 0.3:
        weights[rng.integers(count)] = 0.0
        weights /= weights.sum()
    vols = [_vol(rng) for _ in range(count)]
    return AssetMixture.from_arrays(rng.uniform(0.5, 2.0), rng.uniform(-0.05, 0.1), weights, vols)


def _correlation(rng, n):
    if n == 2 and rng.random() < 0.3:
        s = float(rng.choice((-1.0, 1.0)))
        return [[1.0, s], [s, 1.0]]
    a = rng.standard_normal((n, n + 1))
    c = a @ a.T
    d = np.sqrt(np.diag(c))
    return c / np.outer(d, d)


def _models():
    rng = np.random.default_rng(20131)
    out = []
    for _ in range(MODELS):
        n = int(rng.integers(1, 5))
        model = MultiAssetModel(tuple(_asset(rng) for _ in range(n)), _correlation(rng, n))
        out.append((model, float(np.exp(rng.uniform(np.log(0.01), np.log(10.0)))), rng.random((3, n))))
    return out


SWEEP = _models()


def test_sweep_covers_the_stated_range():
    ns = [model.n for model, _, _ in SWEEP]
    assert set(ns) == {1, 2, 3, 4}
    counts = {c for model, _, _ in SWEEP for c in model.component_counts()}
    assert counts == {1, 2, 3}
    comps = [c for model, _, _ in SWEEP for a in model.assets for c in a.components]
    assert any(c.weight == 0.0 for c in comps) and any(not c.vol.is_constant for c in comps)
    assert {model.corr[0, 1] for model, _, _ in SWEEP if model.n == 2} >= {-1.0, 1.0}
    times = [t for _, t, _ in SWEEP]
    assert min(times) < 0.05 and max(times) > 5.0


def test_marginal_moments_match_the_univariate_closed_form():
    for k, (model, t, _) in enumerate(SWEEP):
        for i, asset in enumerate(model.assets):
            for order in (1, 2):
                exact = analytic_moment(asset, t, order)
                assert marginal_moment(model, i, t, order) == pytest.approx(exact, rel=1e-10), (k, i, order)


def test_quantiles_round_trip_through_the_cdf():
    for k, (model, t, _) in enumerate(SWEEP):
        for i, asset in enumerate(model.assets):
            for u in LEVELS:
                assert abs(mixture_cdf(asset, t, inverse_cdf(asset, t, u)) - u) <= 1e-8, (k, i, u)


def test_tau_lies_in_the_unit_interval():
    for k, (model, t, _) in enumerate(SWEEP):
        if model.n >= 2:
            assert -1.0 <= kendall_tau_mvmd(model, t) <= 1.0, k


def test_copula_lies_inside_the_frechet_bounds():
    for k, (model, t, points) in enumerate(SWEEP):
        if 2 <= model.n <= 3:
            for u in points:
                value = copula_value(model, t, u)
                assert max(u.sum() - (model.n - 1), 0.0) <= value <= u.min(), (k, u.tolist())


@pytest.mark.parametrize("kind", ["arithmetic", "geometric"])
def test_greeks_are_finite(kind):
    for k, (model, t, points) in enumerate(SWEEP):
        weights = tuple(0.5 + points[0])
        strike = float(np.dot(weights, model.spots)) if kind == "arithmetic" else 1.0
        spec = BasketSpec(weights, kind, strike, t, rate=0.02)
        delta, gamma = greeks_mvmd(model, spec, 0.01 * model.spots, paths=1000, seed=k)
        assert np.all(np.isfinite(delta)) and np.all(np.isfinite(gamma)), k
