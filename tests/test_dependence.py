import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from mvmix import (
    AssetMixture,
    CorrelationMatrix,
    MultiAssetModel,
    bivariate_normal_cdf,
    copula_value,
    dump_config,
    empirical_copula,
    inverse_cdf,
    kendall_tau_empirical,
    kendall_tau_mvmd,
    multivariate_normal_cdf,
    sample_muvm_terminal,
    sample_mvmd_terminal,
    truncate,
)
from mvmix.benchmarks import benchmark_model, table_configs
from mvmix.cli import main
from mvmix.dependence import _copula_values, _tie_pairs
from mvmix.runner import run_copula

from conftest import make_model


def trivariate_oracle(z, m):
    """Condition on the third coordinate and integrate the exact bivariate CDF."""
    r13, r23, r12 = m[0, 2], m[1, 2], m[0, 1]
    s1, s2 = np.sqrt(1 - r13**2), np.sqrt(1 - r23**2)
    r = (r12 - r13 * r23) / (s1 * s2)

    def f(t):
        return norm.pdf(t) * bivariate_normal_cdf((z[0] - r13 * t) / s1, (z[1] - r23 * t) / s2, r)

    val, _ = quad(f, -10, z[2], limit=300, epsabs=1e-12)
    return val


def test_bvn_independence():
    for a, b in ((0.3, -0.7), (1.5, 1.5), (-2.0, 0.1)):
        assert bivariate_normal_cdf(a, b, 0.0) == pytest.approx(
            norm.cdf(a) * norm.cdf(b), abs=1e-14
        )


def test_bvn_arcsine_identity():
    # frozen cross-check at rho=0.6: dblquad of the density gives the same
    assert bivariate_normal_cdf(0.0, 0.0, 0.6) == pytest.approx(0.35241638234956674, abs=1e-12)
    for rho in (-0.95, -0.3, 0.2, 0.75, 0.99):
        assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(
            0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-12
        )


def test_bvn_symmetry_and_range():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a, b = rng.normal(0, 2, 2)
        rho = rng.uniform(-0.999, 0.999)
        v = bivariate_normal_cdf(a, b, rho)
        assert bivariate_normal_cdf(b, a, rho) == pytest.approx(v, abs=1e-14)
        assert 0.0 <= v <= 1.0


def test_bvn_matches_scipy_reference():
    rng = np.random.default_rng(13)
    for _ in range(40):
        a, b = rng.normal(0, 1.5, 2)
        rho = rng.uniform(-0.99, 0.99)
        ref = multivariate_normal(cov=[[1, rho], [rho, 1]]).cdf([a, b])
        assert bivariate_normal_cdf(a, b, rho) == pytest.approx(ref, abs=1e-10)


def test_bvn_degenerate_correlations():
    assert bivariate_normal_cdf(0.5, -0.2, 1.0) == pytest.approx(norm.cdf(-0.2), abs=1e-15)
    assert bivariate_normal_cdf(0.5, -0.2, -1.0) == pytest.approx(
        max(norm.cdf(0.5) + norm.cdf(-0.2) - 1.0, 0.0), abs=1e-15
    )


def test_bvn_rejects_nan():
    with pytest.raises(ValueError):
        bivariate_normal_cdf(np.nan, 0.0, 0.3)
    with pytest.raises(ValueError):
        bivariate_normal_cdf(0.0, 0.0, 1.5)


def test_bvn_array_call_matches_scalar_loop():
    rng = np.random.default_rng(14)
    a, b = rng.normal(0, 2, (2, 500))
    rho = rng.uniform(-1, 1, 500)
    a[:50], b[40:90], rho[90:100] = 0.0, 0.0, 1.0
    rho[100:110] = -1.0
    # +-inf in either argument, h = k = 0 at rho = +-1, and an h * s that underflows
    a[110:120], b[120:130], a[130:140], b[140:150] = np.inf, np.inf, -np.inf, -np.inf
    rho[40:45], rho[45:50] = 1.0, -1.0
    a[150:160], rho[150:160] = 5e-324, 0.999999
    values = bivariate_normal_cdf(a, b, rho)
    assert values.shape == (500,)
    scalars = [bivariate_normal_cdf(x, y, r) for x, y, r in zip(a, b, rho)]
    assert all(isinstance(v, float) for v in scalars)
    assert np.array_equal(values, scalars) and np.array_equal(np.signbit(values), np.signbit(scalars))
    assert isinstance(bivariate_normal_cdf(0.1, 0.2, 0.3), float)
    assert bivariate_normal_cdf(np.array(0.1), 0.2, np.float32(0.3)) == bivariate_normal_cdf([0.1], 0.2, np.float32(0.3))[0]


def test_bvn_zero_arguments():
    for rho in (-0.9, -0.3, 0.0, 0.4, 0.95):
        s = np.sqrt(1 - rho**2)
        for k in (-2.0, -0.4, 0.7, 3.0):
            # P(X <= 0, Y <= k) = integral over y <= k of phi(y) Phi(-rho y / s)
            ref, _ = quad(lambda y: norm.pdf(y) * norm.cdf(-rho * y / s), -12, k, epsabs=1e-14)
            assert bivariate_normal_cdf(0.0, k, rho) == pytest.approx(ref, abs=1e-13)
            assert bivariate_normal_cdf(k, 0.0, rho) == pytest.approx(ref, abs=1e-13)
        assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(
            0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-15
        )


def test_bvn_infinite_arguments():
    for rho in (-1.0, -0.5, 0.0, 0.8, 1.0):
        for x in (-1.3, 0.0, 0.6):
            assert bivariate_normal_cdf(np.inf, x, rho) == pytest.approx(norm.cdf(x), abs=1e-15)
            assert bivariate_normal_cdf(x, np.inf, rho) == pytest.approx(norm.cdf(x), abs=1e-15)
            assert bivariate_normal_cdf(-np.inf, x, rho) == 0.0
            assert bivariate_normal_cdf(x, -np.inf, rho) == 0.0
        assert bivariate_normal_cdf(np.inf, np.inf, rho) == 1.0
        assert bivariate_normal_cdf(np.inf, -np.inf, rho) == 0.0


def test_mvn_identity_factorizes():
    z = np.array([0.3, -0.5, 1.2, 0.1])
    assert multivariate_normal_cdf(z, np.eye(4)) == pytest.approx(
        float(np.prod(norm.cdf(z))), abs=1e-9
    )


def test_mvn_marginalizes_infinite_coordinates():
    m = np.array([[1, 0.2, 0.4], [0.2, 1, 0.1], [0.4, 0.1, 1]])
    v = multivariate_normal_cdf([0.3, np.inf, -0.5], m)
    assert v == pytest.approx(bivariate_normal_cdf(0.3, -0.5, 0.4), abs=1e-12)
    assert multivariate_normal_cdf([0.3, -np.inf, 0.5], m) == 0.0
    assert multivariate_normal_cdf([np.inf, np.inf], np.eye(2)) == 1.0


def test_mvn_trivariate_against_quadrature_oracle():
    m = np.array([[1, 0.5, 0.3], [0.5, 1, 0.2], [0.3, 0.2, 1]])
    z = np.array([0.0, 0.4, -0.6])
    ref = trivariate_oracle(z, m)
    val, err = multivariate_normal_cdf(z, m, full_output=True)
    assert err <= 1e-6
    assert val == pytest.approx(ref, abs=2e-6)


def _equicorrelated(r):
    m = np.full((3, 3), r)
    np.fill_diagonal(m, 1.0)
    return m


@pytest.mark.parametrize(
    "z, m",
    [
        ((0.0, 0.4, -0.6), np.array([[1, 0.5, 0.3], [0.5, 1, 0.2], [0.3, 0.2, 1]])),
        ((0.1, 0.2, 0.3), np.array([[1, 0.5, 0.3], [0.5, 1, 0.2], [0.3, 0.2, 1]])),
        ((0.0, 0.0, 0.0), _equicorrelated(0.6)),
        ((0.0, 0.0, 0.0), _equicorrelated(0.95)),
        ((0.3, -0.5, 1.2), _equicorrelated(0.95)),
        ((-3.0, -2.5, -2.0), _equicorrelated(0.5)),
        ((-3.0, -2.5, -2.0), _equicorrelated(0.95)),
        ((0.2, -0.1, 0.5), _equicorrelated(-0.4)),
        ((1.0, -1.0, 0.5), np.array([[1, 0.9, -0.3], [0.9, 1, -0.2], [-0.3, -0.2, 1]])),
    ],
)
def test_mvn_trivariate_panel_against_quadrature_oracle(z, m):
    z = np.asarray(z)
    ref = trivariate_oracle(z, m)
    val, err = multivariate_normal_cdf(z, m, full_output=True)
    assert abs(val - ref) <= 1e-13
    assert abs(val - ref) <= err


def test_mvn_rejects_invalid_correlation_argument():
    with pytest.raises(ValueError, match="unit diagonal"):
        multivariate_normal_cdf([0.1, 0.2], [[2.0, 0.3], [0.3, 2.0]])
    with pytest.raises(ValueError, match="unit diagonal"):
        multivariate_normal_cdf([0.1, 0.2, 0.3], 2.0 * np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        multivariate_normal_cdf([0.1, 0.2], [[1.0, 0.3], [0.5, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        multivariate_normal_cdf([0.1, 0.2, np.inf], [[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.4, 1.0]])
    with pytest.raises(ValueError, match="unit diagonal"):
        multivariate_normal_cdf([0.1, 0.2, np.inf], [[1.0, 0.3, 0.2], [0.3, 1.0, 0.1], [0.2, 0.1, 1.5]])
    with pytest.raises(ValueError, match="finite"):
        multivariate_normal_cdf([0.1, 0.2], [[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        multivariate_normal_cdf([0.1, 0.2, 0.3], [[1.0, 0.3, 0.2], [0.3, np.nan, 0.1], [0.2, 0.1, 1.0]])


def test_mvn_trivariate_against_mc_oracle():
    # equicorrelated 0.6 at the origin, 1e7-sample Monte Carlo oracle
    m = np.full((3, 3), 0.6)
    np.fill_diagonal(m, 1.0)
    chol = np.linalg.cholesky(m)
    rng = np.random.default_rng(77)
    hits = 0
    n = 10_000_000
    for _ in range(10):
        z = rng.standard_normal((n // 10, 3)) @ chol.T
        hits += int(np.sum(np.all(z <= 0.0, axis=1)))
    mc = hits / n
    se = np.sqrt(mc * (1 - mc) / n)
    val = multivariate_normal_cdf(np.zeros(3), m)
    assert abs(val - mc) < 3 * se


def test_mvn_dimension_limit():
    with pytest.raises(ValueError):
        multivariate_normal_cdf(np.zeros(7), np.eye(7))


def test_mvn_deterministic():
    m = np.array([[1, 0.5, 0.3], [0.5, 1, 0.2], [0.3, 0.2, 1]])
    assert multivariate_normal_cdf([0.1, 0.2, 0.3], m) == multivariate_normal_cdf(
        [0.1, 0.2, 0.3], m
    )


def test_tau_degenerate_mixture_is_gaussian_arcsine():
    for rho in (-0.6, 0.0, 0.6, 0.9):
        model = make_model(
            (1.0, 1.0), (0.05, 0.05), ((1.0, 0.0), (1.0, 0.0)), ((0.3, 0.2), (0.25, 0.35)), rho
        )
        assert kendall_tau_mvmd(model, 1.0) == pytest.approx(
            2.0 / np.pi * np.arcsin(rho), abs=1e-12
        )


def test_tau_zero_correlation_identical_components():
    model = make_model(
        (1.0, 1.0), (0.05, 0.05), ((0.6, 0.4), (0.7, 0.3)), ((0.3, 0.3), (0.25, 0.25)), 0.0
    )
    assert kendall_tau_mvmd(model, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_tau_symmetry_and_range(vanilla_model):
    tau = kendall_tau_mvmd(vanilla_model, 1.0)
    flipped = make_model(
        (1.0, 1.0), (0.05, 0.05), ((0.7, 0.3), (0.6, 0.4)), ((0.25, 0.35), (0.3, 0.2)), 0.6
    )
    assert kendall_tau_mvmd(flipped, 1.0) == pytest.approx(tau, abs=1e-13)
    assert -1.0 <= tau <= 1.0


def padded_tau(model, t):
    """Kendall tau of two assets with at most 2 constant-vol components each, over 4 padded tuples.

    Tuples run (1,1), (1,2), (2,1), (2,2); a one-component asset gets a
    zero-weight copy.  Same-tuple pairs give arcsin terms, cross pairs
    bivariate normal CDFs of the standardized log-mean differences.
    """
    sig, lam = [], []
    for asset in model.assets:
        sig.append([c.vol.value(0.0) for c in asset.components] * (3 - asset.n_components))
        lam.append([c.weight for c in asset.components] if asset.n_components == 2 else [1.0, 0.0])
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    a = np.array([lam[0][i] * lam[1][j] for i, j in pairs])
    mu = [np.array([np.log(x.spot) + (x.drift - 0.5 * sig[n][k[n]] ** 2) * t for k in pairs]) for n, x in enumerate(model.assets)]
    sd = [np.array([sig[n][k[n]] * np.sqrt(t) for k in pairs]) for n in range(2)]
    rho = model.corr[0, 1]
    tau = (2.0 / np.pi) * float(a @ a) * np.arcsin(rho) + float(a @ a) - 1.0
    i, j = np.triu_indices(4, 1)
    dx, dy = (np.sqrt(s[i] ** 2 + s[j] ** 2) for s in sd)
    m_x = (mu[0][i] - mu[0][j]) / dx
    m_y = (mu[1][i] - mu[1][j]) / dy
    r = np.clip(rho * (sd[0][i] * sd[1][i] + sd[0][j] * sd[1][j]) / (dx * dy), -1.0, 1.0)
    both = bivariate_normal_cdf(np.r_[m_x, -m_x], np.r_[m_y, -m_y], np.r_[r, r])
    return float(tau + 4.0 * float((a[i] * a[j]) @ (both[:6] + both[6:])))


def test_tau_and_copula_match_per_pair_loops(vanilla_model):
    # reference: the hand-padded 4-tuple closed form, and the copula sum one scalar CDF at a time
    configs = [c for t in PIN_TABLES for c in table_configs(t, 2000)]
    for model, t in [(c.model, c.maturity) for c in configs] + [(vanilla_model, 1.0)]:
        assert kendall_tau_mvmd(model, t) == pytest.approx(padded_tau(model, t), rel=0.0, abs=2.2e-16)

    u = np.array([0.3, 0.8])
    x = [inverse_cdf(asset, 1.0, ui) for asset, ui in zip(vanilla_model.assets, u)]
    ref = 0.0
    tuple_set = truncate(vanilla_model, 0.0)
    for row, w in zip(tuple_set.index_array, tuple_set.weight_array):
        comps = [vanilla_model.assets[i].components[k] for i, k in enumerate(row)]
        v = [np.sqrt(c.vol.integral_sq(1.0)) for c in comps]
        z = [(np.log(xi) - 0.05 + 0.5 * vi**2) / vi for xi, vi in zip(x, v)]
        ref += w * multivariate_normal_cdf(z, [[1, 0.6], [0.6, 1]])
    assert copula_value(vanilla_model, 1.0, u) == pytest.approx(ref, abs=1e-15)


def test_tau_closed_form_matches_empirical(vanilla_model):
    tau_cf = kendall_tau_mvmd(vanilla_model, 1.0)
    sample = sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=71)
    tau_emp = kendall_tau_empirical(sample.values[:, 0], sample.values[:, 1])
    assert abs(tau_cf - tau_emp) < 0.01


def test_empirical_tau_hand_cases():
    assert kendall_tau_empirical([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 3.0]) == pytest.approx(
        2.0 / 3.0
    )
    x = np.arange(100.0)
    assert kendall_tau_empirical(x, x) == 1.0
    assert kendall_tau_empirical(x, -x) == -1.0
    # tied pairs contribute zero: (1,1) vs (1,2) is neither conc nor disc
    assert kendall_tau_empirical([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)


def test_empirical_tau_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.normal(size=1000)
    y = 0.5 * x + rng.normal(size=1000)
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    brute = np.sum(np.triu(sx * sy, 1)) / (1000 * 999 / 2)
    assert kendall_tau_empirical(x, y) == brute


def test_empirical_tau_all_tied_is_zero():
    assert kendall_tau_empirical(np.ones(5), np.arange(5.0)) == 0.0
    assert kendall_tau_empirical(np.arange(5.0), np.full(5, 2.0)) == 0.0


def test_empirical_tau_rejects_nan():
    with pytest.raises(ValueError, match="x must not contain NaN"):
        kendall_tau_empirical([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="y must not contain NaN"):
        kendall_tau_empirical([1.0, 2.0, 3.0], [1.0, 2.0, np.nan])


def test_empirical_tau_needs_two_pairs():
    with pytest.raises(ValueError):
        kendall_tau_empirical([1.0], [1.0])


def test_copula_uniform_margins(vanilla_model):
    for u in (0.05, 0.3, 0.5, 0.9):
        assert copula_value(vanilla_model, 1.0, [u, 1.0]) == pytest.approx(u, abs=1e-8)
        assert copula_value(vanilla_model, 1.0, [1.0, u]) == pytest.approx(u, abs=1e-8)
    assert copula_value(vanilla_model, 1.0, [0.0, 0.7]) == 0.0
    assert copula_value(vanilla_model, 1.0, [1.0, 1.0]) == 1.0


def test_copula_rejects_nan(vanilla_model):
    with pytest.raises(ValueError, match="u must not contain NaN"):
        copula_value(vanilla_model, 1.0, [np.nan, 0.5])


def test_empirical_copula_rejects_nan_samples():
    samples = np.array([[0.1, 0.2], [np.nan, 0.5], [0.3, 0.4]])
    with pytest.raises(ValueError, match="samples must not contain NaN"):
        empirical_copula(samples, np.array([0.5, 0.5]))


@pytest.mark.parametrize("t", [-1.0, 0.0, np.inf, np.nan])
def test_closed_form_tau_names_a_bad_maturity(vanilla_model, t):
    with pytest.raises(ValueError, match=f"maturity must be positive and finite, got {t}"):
        kendall_tau_mvmd(vanilla_model, t)


@pytest.mark.parametrize("u", [[0.5], [0.5, 0.5, 0.5], [np.nan, 0.5], [1.2, 0.5], [0.5, -0.1]])
def test_empirical_copula_rejects_bad_coordinates(u):
    sample = np.random.default_rng(3).random((50, 2))
    with pytest.raises(ValueError):
        empirical_copula(sample, u)


def test_copula_single_component_is_gaussian():
    model = make_model((1.0, 1.0), (0.05, 0.05), ((1.0,), (1.0,)), ((0.3,), (0.25,)), 0.6)
    assert copula_value(model, 1.0, [0.5, 0.5]) == pytest.approx(
        0.25 + np.arcsin(0.6) / (2 * np.pi), abs=1e-10
    )


def test_copula_frechet_bounds_and_monotone(vanilla_model):
    grid = np.arange(1, 6) / 6
    values = np.empty((5, 5))
    for i, u1 in enumerate(grid):
        for j, u2 in enumerate(grid):
            c = copula_value(vanilla_model, 1.0, [u1, u2])
            values[i, j] = c
            assert max(u1 + u2 - 1.0, 0.0) - 1e-12 <= c <= min(u1, u2) + 1e-12
    assert np.all(np.diff(values, axis=0) >= -1e-12)
    assert np.all(np.diff(values, axis=1) >= -1e-12)


@pytest.mark.parametrize("rho, u", [(1.0, [0.75, 0.5]), (0.6, [1.0 - 2.0**-53, 0.5])])
def test_copula_keeps_the_frechet_bounds_to_the_last_bit(rho, u):
    # the tuple CDFs' weighted sum rounds past min u here, to 0.5000000000000002 and 0.5000000000000001
    value = copula_value(benchmark_model("vanilla", rho), 1.0, u)
    assert max(sum(u) - 1.0, 0.0) <= value <= min(u)


def test_copula_drift_invariance(vanilla_model):
    shifted = make_model(
        (1.0, 1.0), (0.12, 0.12), ((0.6, 0.4), (0.7, 0.3)), ((0.3, 0.2), (0.25, 0.35)), 0.6
    )
    for u in ([0.3, 0.7], [0.5, 0.5], [0.8, 0.2]):
        assert copula_value(shifted, 1.0, u) == pytest.approx(
            copula_value(vanilla_model, 1.0, u), abs=1e-10
        )


def test_copula_matches_empirical_mvmd_and_muvm(vanilla_model):
    mv = sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=73)
    mu = sample_muvm_terminal(vanilla_model, 1.0, 100_000, seed=74)
    grid = np.arange(1, 4) / 4
    for u1 in grid:
        for u2 in grid:
            c = copula_value(vanilla_model, 1.0, [u1, u2])
            assert abs(c - empirical_copula(mv.values, np.array([u1, u2]))) < 0.01
            assert abs(c - empirical_copula(mu.values, np.array([u1, u2]))) < 0.01


def test_tau_sign_matches_correlation_sign():
    for rho in (-0.4, 0.4):
        model = make_model((1.0, 1.0), (0.0, 0.0), ((1.0, 0.0), (1.0, 0.0)), ((0.3, 0.3), (0.25, 0.25)), rho)
        assert np.sign(kendall_tau_mvmd(model, 1.0)) == np.sign(rho)


def test_tau_closed_form_at_perfect_correlation(vanilla_model):
    model = make_model(
        (1.0, 1.0), (0.05, 0.05), ((0.6, 0.4), (0.7, 0.3)), ((0.3, 0.2), (0.25, 0.35)), 1.0
    )
    tau_cf = kendall_tau_mvmd(model, 1.0)
    sample = sample_mvmd_terminal(model, 1.0, 100_000, seed=5)
    tau_emp = kendall_tau_empirical(sample.values[:, 0], sample.values[:, 1])
    assert tau_cf < 1.0  # mixing distinct comonotone tuples is not comonotone
    assert abs(tau_cf - tau_emp) < 0.01


def test_tau_closed_form_covers_three_components_piecewise_vols_and_every_pair():
    # the closed form is the tau of assets 1 and 2; each other pair is reached
    # by moving its assets to the front, with the correlation matrix permuted alike
    from mvmix import VolCurve

    rising, falling = VolCurve((0.0, 0.4), (0.15, 0.35)), VolCurve((0.0, 0.3, 0.8), (0.45, 0.25, 0.2))
    assets = tuple(
        AssetMixture.from_arrays(s, d, w, v)
        for s, d, w, v in (
            (1.0, 0.05, (0.5, 0.3, 0.2), (0.2, rising, 0.4)),
            (0.8, 0.02, (0.6, 0.25, 0.15), (falling, 0.3, 0.1)),
            (1.3, 0.04, (0.4, 0.4, 0.2), (0.25, 0.15, rising)),
        )
    )
    corr = np.array([[1.0, 0.7, -0.4], [0.7, 1.0, -0.2], [-0.4, -0.2, 1.0]])
    model = MultiAssetModel(assets, CorrelationMatrix(corr))
    paths = 400_000
    sample = sample_mvmd_terminal(model, 1.0, paths, seed=91).values
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        order = [i, j, k]
        front = MultiAssetModel(tuple(assets[m] for m in order), CorrelationMatrix(corr[np.ix_(order, order)]))
        tau = kendall_tau_mvmd(front, 1.0)
        assert abs(tau - kendall_tau_empirical(sample[:, i], sample[:, j])) < 5.0 * np.sqrt(2.0 * (1.0 - tau**2) / paths)


def test_tau_of_one_component_assets_at_perfect_correlation_is_exact():
    # with vols (0.2, 0.35) the correlation read from Xi rounds to 1 - 2e-16, which moves tau by 1.3e-8
    for vols, rho in itertools.product((((0.3,), (0.25,)), ((0.2,), (0.35,))), (1.0, -1.0)):
        model = make_model((1.0, 0.7), (0.05, 0.02), ((1.0,), (1.0,)), vols, rho)
        assert kendall_tau_mvmd(model, 1.0) == rho
    one = make_model((1.0,), (0.05,), ((1.0,),), ((0.3,),), 1.0)
    with pytest.raises(ValueError, match="at least two assets"):
        kendall_tau_mvmd(one, 1.0)


@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_copula_at_perfect_correlation(rho):
    # with vols (0.15, 0.15) and (0.15, 0.45) a tuple's correlation read from Xi rounds past 1
    vols = ((0.15, 0.15), (0.15, 0.45))
    model = make_model((1.0, 1.0), (0.0, 0.0), ((0.5, 0.5), (0.5, 0.5)), vols, rho)
    x = [inverse_cdf(asset, 0.5, 0.5) for asset in model.assets]
    cdfs = [[norm.cdf((np.log(xi) + 0.25 * s**2) / (s * np.sqrt(0.5))) for s in v] for xi, v in zip(x, vols)]
    # each tuple's copula is a Frechet bound: min(p, q) at rho = 1, max(p + q - 1, 0) at rho = -1
    bound = min if rho == 1.0 else lambda p, q: max(p + q - 1.0, 0.0)
    expected = sum(0.25 * bound(p, q) for p in cdfs[0] for q in cdfs[1])
    assert copula_value(model, 0.5, [0.5, 0.5]) == pytest.approx(expected, abs=1e-12)


def test_copula_refuses_a_singular_tuple_correlation(tmp_path, capsys):
    # at rho = 1 every tuple of three constant-vol assets is perfectly correlated,
    # which the n >= 3 normal CDF cannot factor; which tuple fails first rests on rounding
    model = make_model((1.0,) * 3, (0.0,) * 3, ((0.5, 0.5),) * 3, ((0.15, 0.45),) * 3, 1.0)
    config = dataclasses.replace(
        table_configs(2)[0], name="singular", model=model, basket_weights=(1.0,) * 3, maturity=0.5
    )
    dump_config([config], tmp_path / "singular.json")
    assert main(["copula", "--config", str(tmp_path / "singular.json"), "--grid", "2"]) == 1
    assert "has the singular correlation" in capsys.readouterr().err
    with pytest.raises(ValueError, match=r"tuple \[[01], [01], [01]\] has the singular correlation \[\[1.0, 1.0, 1.0\]"):
        copula_value(model, 0.5, [0.5, 0.5, 0.5])
    # a coordinate at 1 marginalizes out, leaving the bivariate copula, which accepts rho = 1
    pair = make_model((1.0,) * 2, (0.0,) * 2, ((0.5, 0.5),) * 2, ((0.15, 0.45),) * 2, 1.0)
    expected = copula_value(pair, 0.5, [0.5, 0.5])
    assert copula_value(model, 0.5, [0.5, 0.5, 1.0]) == pytest.approx(expected, rel=1e-12)


def test_copula_piecewise_vols_time_averaged_correlation():
    # single-component assets with different step curves: the copula is the
    # Gaussian copula at the integral-averaged correlation, not at rho
    from mvmix import VolCurve

    v1 = VolCurve((0.0, 0.5), (0.2, 0.4))
    v2 = VolCurve((0.0, 0.25), (0.35, 0.15))
    model = make_model((1.0, 1.0), (0.02, 0.07), ((1.0,), (1.0,)), ((v1,), (v2,)), 0.6)
    m12 = 0.6 * v1.integral_with(v2, 1.0) / (np.sqrt(v1.integral_sq(1.0)) * np.sqrt(v2.integral_sq(1.0)))
    assert m12 != pytest.approx(0.6, abs=0.01)
    assert copula_value(model, 1.0, [0.5, 0.5]) == pytest.approx(
        0.25 + np.arcsin(m12) / (2 * np.pi), abs=1e-10
    )


def test_bvn_near_degenerate_limits():
    assert bivariate_normal_cdf(0.5, -0.2, 0.9999999) == pytest.approx(
        norm.cdf(-0.2), abs=1e-7
    )
    assert bivariate_normal_cdf(0.5, -0.2, -0.9999999) == pytest.approx(
        max(norm.cdf(0.5) + norm.cdf(-0.2) - 1.0, 0.0), abs=1e-7
    )


def _model3():
    assets = (
        AssetMixture.from_arrays(1.0, 0.05, (0.6, 0.4), (0.3, 0.2)),
        AssetMixture.from_arrays(1.0, 0.05, (0.7, 0.3), (0.25, 0.35)),
        AssetMixture.from_arrays(1.0, 0.05, (0.5, 0.5), (0.2, 0.4)),
    )
    return MultiAssetModel(assets, CorrelationMatrix([[1.0, 0.6, 0.4], [0.6, 1.0, 0.5], [0.4, 0.5, 1.0]]))


@pytest.mark.parametrize("case", ["n2-kappa0", "n2-kappa0.05", "n3"])
def test_copula_grid_matches_per_point_calls(vanilla_model, case):
    if case == "n3":
        model, kappa, levels = _model3(), 0.0, (1 / 3, 2 / 3)
    else:
        model, kappa, levels = vanilla_model, float(case.removeprefix("n2-kappa")), (0.2, 0.5, 0.9)
    points = np.stack(np.meshgrid(*([levels] * model.n), indexing="ij"), axis=-1).reshape(-1, model.n)
    # rows with a coordinate at 1 (marginalized), at 0, and all ones
    edges = np.array([[1.0] + [0.4] * (model.n - 1), [0.4] * (model.n - 1) + [1.0], [0.0] + [0.5] * (model.n - 1)])
    points = np.vstack([points, edges, np.ones((1, model.n)), np.zeros((1, model.n))])
    values = _copula_values(model, 1.0, points, kappa)
    expected = [copula_value(model, 1.0, u, kappa) for u in points]
    assert values.tolist() == expected
    assert values[-3:].tolist() == [0.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "values",
    [np.arange(50.0), np.r_[np.arange(30.0), np.arange(20.0), [5.0] * 7], np.array([0.0, -0.0]), np.ones(4)],
    ids=["distinct", "ties", "signed-zeros", "all-tied"],
)
def test_tie_pairs_match_a_unique_count(values):
    rng = np.random.default_rng(8)
    values = rng.permutation(values)
    _, counts = np.unique(values, return_counts=True)
    assert _tie_pairs(values) == int(np.sum(counts * (counts - 1) // 2))


# Bit pins of the dependence outputs.  Values are hashed through float.hex, so
# any change in the last bit shows; the CLI copula CSVs are hashed as printed.
# A change to a pin is a change to the numbers the analytics return.  tau-tables
# was re-pinned when the closed-form tau moved onto tuple_laws: three of its
# seven values moved by 1.1e-16 (test_tau_and_copula_match_per_pair_loops).
# copula-values was re-pinned when copula values were clipped to the
# Frechet-Hoeffding bounds in place of [0, 1]: six of its 63 values, all at
# rho = 1, moved by at most 2.2e-16 onto a bound.
PIN_TABLES = (2, 3, 4, 5, 6)
PIN_MVN3_PANEL = (
    ((0.0, 0.0, 0.0), ((1.0, 0.2, 0.2), (0.2, 1.0, 0.2), (0.2, 0.2, 1.0))),
    ((-1.0, 0.5, 1.0), ((1.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.5, 1.0))),
    ((0.3, -0.4, 1.5), ((1.0, -0.3, 0.6), (-0.3, 1.0, 0.1), (0.6, 0.1, 1.0))),
    ((-2.0, -1.0, 0.0), ((1.0, 0.7, 0.4), (0.7, 1.0, 0.9), (0.4, 0.9, 1.0))),
    ((1.2, np.inf, -0.3), ((1.0, 0.3, -0.5), (0.3, 1.0, 0.2), (-0.5, 0.2, 1.0))),
)
DEPENDENCE_PINS = {
    "copula-csv-table2": "25462ab1d2693f1012bbed31439205d4b5a9ce0717e67cfd4ef840012b57a8e2",
    "copula-csv-table3": "9900f92a84e03b732fad8ec8337c504ba11f0881a62f3bc67c40309300d93877",
    "copula-csv-table4": "a62e18ec5ccdb6e0433d36c5b548649adb171446fe4dc53e5a1568b236808059",
    "copula-csv-table5": "4172238f7b602fef840f0e0e85f6c66441315c32243a60e2d485bf779cdf5c9e",
    "copula-csv-table6": "535165aec5b3243534910a0404702a32a4def1f138b55933af8c2818042de34b",
    "copula-values": "19319469ee803310b73fd6bc440f27cf3d62be0993e6d49c8fdbbcad00517ea4",
    "tau-tables": "908f9c4c011ffe607394fab23f5505b812488816c827a5cf8b247e24a93cdf72",
    "mvn3-panel": "9e7e82565d7ebb82bd796595132e19e24b22c8a8ea3e97652b6e62ee6da07a80",
    "bvn-scalar": "cf496384c97e40433a4245c0da438bba8a2dd3933497c7ad95b4c9975b73b00a",
}


def _hex_digest(values) -> str:
    return hashlib.sha256("\n".join(float(v).hex() for v in values).encode()).hexdigest()


def _bvn_pin_points():
    rng = np.random.default_rng(2026)
    a, b = rng.normal(0, 2, (2, 500))
    rho = rng.uniform(-1, 1, 500)
    a[:20], b[10:30], rho[30:40], rho[40:50] = 0.0, 0.0, 1.0, -1.0
    a[50:55], b[55:60], a[60:65], b[65:70] = np.inf, np.inf, -np.inf, -np.inf
    return zip(a, b, rho)


def _dependence_outputs() -> dict:
    configs = {t: table_configs(t, 2000) for t in PIN_TABLES}
    copulas = [row["copula"] for t in PIN_TABLES for c in configs[t] for row in run_copula(c, 3)]
    taus = [kendall_tau_mvmd(c.model, c.maturity) for t in PIN_TABLES for c in configs[t]]
    mvn3 = [v for z, m in PIN_MVN3_PANEL for v in multivariate_normal_cdf(z, m, full_output=True)]
    bvn = [bivariate_normal_cdf(a, b, r) for a, b, r in _bvn_pin_points()]
    return {
        "copula-values": _hex_digest(copulas),
        "tau-tables": _hex_digest(taus),
        "mvn3-panel": _hex_digest(mvn3),
        "bvn-scalar": _hex_digest(bvn),
    }


def test_dependence_outputs_keep_their_bits():
    assert _dependence_outputs() == {k: v for k, v in DEPENDENCE_PINS.items() if not k.startswith("copula-csv")}


@pytest.mark.parametrize("table", PIN_TABLES)
def test_cli_copula_csv_is_pinned(tmp_path, monkeypatch, capsys, table):
    monkeypatch.chdir(tmp_path)
    assert main(["copula", "--config", f"table{table}", "--grid", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DEPENDENCE_PINS[f"copula-csv-table{table}"]
