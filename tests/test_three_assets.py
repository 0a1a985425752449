"""Three-asset integration checks: the machinery is generic in n."""

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from mvmix import (
    BasketSpec,
    analytic_moment,
    copula_value,
    empirical_copula,
    estimate,
    mixture_cdf,
    price_geometric_mvmd,
    price_mvmd_mc,
    sample_muvm_terminal,
    sample_mvmd_terminal,
    truncate,
)
from mvmix.multivariate import marginal_moment

from conftest import make_model


@pytest.fixture(scope="module")
def model3():
    return make_model(
        (1.0, 0.9, 1.1),
        (0.05, 0.05, 0.05),
        ((0.6, 0.4), (0.7, 0.3), (0.5, 0.5)),
        ((0.3, 0.2), (0.25, 0.35), (0.15, 0.3)),
        0.4,
    )


def test_tuple_enumeration_and_weights(model3):
    ts = truncate(model3, 0.0)
    assert len(ts) == 8
    assert sum(ts.weight_array) == pytest.approx(1.0, abs=1e-14)
    cut = truncate(model3, 0.15)
    # products > 0.15: 0.6*0.7*0.5 = 0.21 and 0.6*0.7*0.5 for component 2 of
    # asset 3 (same 0.21); everything else is <= 0.147
    assert sorted(map(tuple, cut.index_array.tolist())) == [(0, 0, 0), (0, 0, 1)]
    assert cut.weight_array.tolist() == pytest.approx([0.5, 0.5], abs=1e-14)


def test_marginals_and_moments(model3):
    sample = sample_mvmd_terminal(model3, 1.0, 100_000, seed=81)
    for i, asset in enumerate(model3.assets):
        res = kstest(sample.values[:, i], lambda x: mixture_cdf(asset, 1.0, x))
        assert res.pvalue > 0.01
        for order in (1, 2, 3):
            assert marginal_moment(model3, i, 1.0, order) == pytest.approx(
                analytic_moment(asset, 1.0, order), rel=1e-12
            )


def test_basket_pricing_agrees_across_samplers(model3):
    spec = BasketSpec((0.3, 0.3, 0.4), "arithmetic", 1.0, 1.0, 1, 0.05)
    semi = price_mvmd_mc(model3, spec, paths=100_000, seed=82)
    mu = sample_muvm_terminal(model3, 1.0, 100_000, seed=83)
    scenario = estimate(mu, spec.payoff, 0.05, 1.0)
    se = np.sqrt(semi.std_error**2 + scenario.std_error**2)
    assert abs(semi.price - scenario.price) < 3 * se
    for i in range(3):
        mv = sample_mvmd_terminal(model3, 1.0, 100_000, seed=84)
        assert ks_2samp(mv.values[:, i], mu.values[:, i]).pvalue > 0.01


def test_geometric_closed_form_three_assets(model3):
    spec = BasketSpec((1.0, 2.0, 1.0), "geometric", 0.9, 1.0, 1, 0.05)
    exact = price_geometric_mvmd(model3, spec)
    mc = price_mvmd_mc(model3, spec, paths=400_000, seed=85)
    assert exact.std_error == 0.0
    assert abs(mc.price - exact.price) < 3 * mc.std_error


def test_trivariate_copula(model3):
    # margins and agreement with the sampler's rank copula
    assert copula_value(model3, 1.0, [0.4, 1.0, 1.0]) == pytest.approx(0.4, abs=1e-6)
    assert copula_value(model3, 1.0, [1.0, 0.25, 1.0]) == pytest.approx(0.25, abs=1e-6)
    sample = sample_mvmd_terminal(model3, 1.0, 100_000, seed=86)
    for u in ([0.3, 0.5, 0.7], [0.5, 0.5, 0.5], [0.8, 0.4, 0.6]):
        c = copula_value(model3, 1.0, u)
        lo = max(sum(u) - 2.0, 0.0)
        assert lo - 1e-9 <= c <= min(u) + 1e-9
        assert abs(c - empirical_copula(sample.values, np.array(u))) < 0.01
