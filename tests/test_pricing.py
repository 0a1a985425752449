import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from mvmix import (
    BasketSpec,
    MultiAssetModel,
    TupleSet,
    black_scholes,
    geometric_pair_k0,
    greeks_mvmd,
    margrabe,
    price_geometric_mvmd,
    price_mvmd_mc,
    truncate,
)
from mvmix import pricing
from mvmix.multivariate import _column_log_prices, _component_columns, tuple_laws
from mvmix.rng import BLOCK_SIZE, path_blocks, substream

from conftest import make_model, one_tuple_price


def tuple_geometric_price(model, indices, spec):
    """The geometric closed form on one tuple's law."""
    means, xi = tuple_laws(model, [indices], spec.maturity)
    return float(pricing._geometric_mixture([means], xi, np.ones(1), spec)[0])


def single_step_mc(log_means, cov, payoff, rate, maturity, paths, seed):
    """Independent single-step sampler used as the Monte Carlo oracle."""
    gen = substream(seed, 987)
    w, v = np.linalg.eigh(cov)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    z = gen.standard_normal((paths, len(log_means)))
    prices = np.exp(log_means + z @ factor.T)
    pay = payoff(prices)
    disc = np.exp(-rate * maturity)
    return disc * pay.mean(), disc * pay.std(ddof=1) / np.sqrt(paths)


def test_black_scholes_degenerate_cases():
    assert black_scholes(1.3, 0.0, 0.25, 0.05, 2.0, 1) == pytest.approx(1.3, rel=1e-14)
    assert black_scholes(1.3, 0.0, 0.0, 0.05, 2.0, 1) == pytest.approx(1.3, rel=1e-14)
    # zero volatility: discounted intrinsic on the forward
    fwd = 1.0 * np.exp(0.05)
    assert black_scholes(1.0, 0.9, 0.0, 0.05, 1.0, 1) == pytest.approx(
        np.exp(-0.05) * (fwd - 0.9), rel=1e-14
    )
    assert black_scholes(1.0, 2.0, 0.0, 0.05, 1.0, 1) == 0.0


@pytest.mark.parametrize("strike", [-0.5, np.nan])
def test_black_scholes_rejects_a_negative_or_nan_strike(strike):
    with pytest.raises(ValueError, match="strike must be nonnegative"):
        black_scholes(1.0, strike, 0.2, 0.05, 1.0, 1)


@pytest.mark.parametrize("spots", [(-1.0, 1.0), (1.0, 0.0), (np.nan, 1.0)])
def test_pair_closed_forms_reject_a_spot_that_is_not_positive(spots):
    with pytest.raises(ValueError, match="spots must be positive"):
        margrabe(*spots, 0.2, 0.3, 0.5, 1.0)
    with pytest.raises(ValueError, match="spots must be positive"):
        geometric_pair_k0(*spots, 0.2, 0.3, 0.5, 1.0, 1.0, 0.05, 1.0)


@pytest.mark.parametrize("total_vol", [-0.2, np.nan, np.inf])
def test_black_scholes_rejects_a_negative_or_non_finite_total_vol(total_vol):
    with pytest.raises(ValueError, match="total volatility must be finite and nonnegative"):
        black_scholes(1.0, 1.0, total_vol, 0.0, 1.0)


@pytest.mark.parametrize("maturity", [-1.0, np.nan, np.inf])
def test_pair_closed_forms_reject_a_negative_or_non_finite_maturity(maturity):
    with pytest.raises(ValueError, match="maturity must be finite and nonnegative"):
        margrabe(1.0, 1.0, 0.2, 0.3, 0.5, maturity)
    with pytest.raises(ValueError, match="maturity must be finite and nonnegative"):
        black_scholes(1.0, 1.0, 0.2, 0.05, maturity)
    with pytest.raises(ValueError, match="maturity must be finite and nonnegative"):
        geometric_pair_k0(1.0, 1.0, 0.2, 0.3, 0.5, 1.0, 1.0, 0.05, maturity)


@pytest.mark.parametrize("omega", [0, 2, 3, -2, 0.5])
def test_closed_forms_take_only_a_call_or_a_put(omega):
    with pytest.raises(ValueError, match=r"omega must be \+1 \(call\) or -1 \(put\)"):
        black_scholes(1.0, 1.0, 0.2, 0.05, 1.0, omega=omega)
    with pytest.raises(ValueError, match=r"omega must be \+1 \(call\) or -1 \(put\)"):
        margrabe(1.0, 1.0, 0.2, 0.3, 0.5, 1.0, omega=omega)


@pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf])
def test_black_scholes_and_geometric_pair_reject_a_non_finite_rate(rate):
    with pytest.raises(ValueError, match="rate must be finite"):
        black_scholes(1.0, 1.0, 0.2, rate, 1.0)
    with pytest.raises(ValueError, match="rate must be finite"):
        geometric_pair_k0(1.0, 1.0, 0.2, 0.3, 0.5, 1.0, 1.0, rate, 1.0)


@pytest.mark.parametrize("rho", [np.nan, 1.5, -1.0 - 1e-12])
def test_pair_closed_forms_reject_a_correlation_outside_minus_one_one(rho):
    with pytest.raises(ValueError, match=r"correlation rho must lie in \[-1, 1\]"):
        margrabe(1.0, 1.0, 0.2, 0.3, rho, 1.0)
    with pytest.raises(ValueError, match=r"correlation rho must lie in \[-1, 1\]"):
        geometric_pair_k0(1.0, 1.0, 0.2, 0.3, rho, 1.0, 1.0, 0.05, 1.0)


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("vol", [-0.2, np.nan, np.inf])
def test_pair_closed_forms_reject_a_negative_or_non_finite_vol(which, vol):
    vols = [0.2, 0.3]
    vols[which] = vol
    name = f"vol{which + 1} must be finite and nonnegative"
    with pytest.raises(ValueError, match=name):
        margrabe(1.0, 1.0, *vols, 0.5, 1.0)
    with pytest.raises(ValueError, match=name):
        geometric_pair_k0(1.0, 1.0, *vols, 0.5, 1.0, 1.0, 0.05, 1.0)


def test_black_scholes_put_call_parity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = rng.uniform(0.3, 3.0)
        k = rng.uniform(0.3, 3.0)
        v = rng.uniform(0.01, 1.0)
        r = rng.uniform(-0.02, 0.1)
        t = rng.uniform(0.1, 5.0)
        c = black_scholes(s, k, v, r, t, 1)
        p = black_scholes(s, k, v, r, t, -1)
        assert c - p == pytest.approx(s - k * np.exp(-r * t), abs=1e-12)


def test_black_scholes_quadrature_value():
    # frozen: quadrature of the discounted lognormal payoff (split at the
    # strike kink), S=K=1, r=5%, sigma=30%
    assert black_scholes(1.0, 1.0, 0.3, 0.05, 1.0, 1) == pytest.approx(
        0.1423125478598583, abs=1e-11
    )


def test_margrabe_symmetric_spots():
    x, s1, s2, rho, t = 1.4, 0.3, 0.2, 0.3, 2.0
    sig = np.sqrt(s1**2 - 2 * rho * s1 * s2 + s2**2)
    expect = x * (norm.cdf(0.5 * sig * np.sqrt(t)) - norm.cdf(-0.5 * sig * np.sqrt(t)))
    assert margrabe(x, x, s1, s2, rho, t, 1) == pytest.approx(expect, rel=1e-14)


def test_margrabe_degenerate_zero_vol():
    assert margrabe(0.7, 1.7, 0.3, 0.3, 1.0, 1.0, 1) == pytest.approx(1.0, rel=1e-14)
    assert margrabe(1.7, 0.7, 0.3, 0.3, 1.0, 1.0, 1) == 0.0
    assert margrabe(1.7, 0.7, 0.3, 0.3, 1.0, 1.0, -1) == pytest.approx(1.0, rel=1e-14)


def test_margrabe_against_mc_oracle():
    x1, x2, s1, s2, rho, t = 0.7, 1.7, 0.2, 0.4, 0.6, 1.0
    closed = margrabe(x1, x2, s1, s2, rho, t, 1)
    r = 0.05  # exchange option price does not depend on the rate
    cov = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]) * t
    means = np.log([x1, x2]) + r * t - 0.5 * np.diag(cov)
    payoff = lambda p: np.maximum(p[:, 1] - p[:, 0], 0.0)
    mc, se = single_step_mc(means, cov, payoff, r, t, 10_000_000, seed=15)
    assert abs(mc - closed) < 3 * se


def test_margrabe_rate_invariance_via_component_pricer():
    x1, x2, s1, s2, rho, t = 0.7, 1.7, 0.2, 0.4, 0.6, 1.0
    closed = margrabe(x1, x2, s1, s2, rho, t, 1)
    for rate in (0.0, 0.05):
        model = make_model((x1, x2), (rate, rate), ((1.0,), (1.0,)), ((s1,), (s2,)), rho)
        spec = BasketSpec((-1.0, 1.0), "arithmetic", 0.0, t, 1, rate)
        price, se = one_tuple_price(model, (0, 0), spec, 400_000, 2)
        assert abs(price - closed) < 3 * se


def test_geometric_pair_k0_deterministic_limit():
    # tiny vols: payoff is (x1^p x2^p) growing at r, discounting cancels
    val = geometric_pair_k0(1.2, 0.8, 1e-9, 1e-9, 0.3, 1.0, 1.0, 0.05, 1.0)
    assert val == pytest.approx(np.sqrt(1.2 * 0.8), rel=1e-9)


def test_geometric_pair_k0_perfect_hedge():
    # rho=-1 with sigma1 w1 = sigma2 w2 gives a deterministic composite
    val = geometric_pair_k0(1.0, 1.0, 0.2, 0.1, -1.0, 1.0, 2.0, 0.05, 1.0)
    p = 1.0 / 3.0
    drift = ((0.05 - 0.02) * 1.0 + (0.05 - 0.005) * 2.0) * p
    assert val == pytest.approx(np.exp(-0.05) * np.exp(drift), rel=1e-12)


def test_geometric_pair_k0_against_mc_oracle():
    x1 = x2 = 1.0
    s1, s2, rho, r, t = 0.3, 0.25, 0.6, 0.05, 1.0
    closed = geometric_pair_k0(x1, x2, s1, s2, rho, 1.0, 1.0, r, t)
    cov = np.array([[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]) * t
    means = np.log([x1, x2]) + r * t - 0.5 * np.diag(cov)
    payoff = lambda p: np.sqrt(p[:, 0] * p[:, 1])
    mc, se = single_step_mc(means, cov, payoff, r, t, 1_000_000, seed=16)
    assert abs(mc - closed) < 3 * se


def test_geometric_tuple_price_reduces_to_pair_formula(vanilla_model):
    spec = BasketSpec((1.0, 1.0), "geometric", 0.0, 1.0, 1, 0.05)
    for indices in ((0, 0), (0, 1), (1, 0), (1, 1)):
        s1 = vanilla_model.assets[0].components[indices[0]].vol.value(0.0)
        s2 = vanilla_model.assets[1].components[indices[1]].vol.value(0.0)
        pair = geometric_pair_k0(1.0, 1.0, s1, s2, 0.6, 1.0, 1.0, 0.05, 1.0)
        assert tuple_geometric_price(vanilla_model, indices, spec) == pytest.approx(
            pair, rel=1e-13
        )


def test_geometric_closed_form_matches_mc(vanilla_model):
    spec = BasketSpec((1.0, 1.0), "geometric", 1.0, 1.0, 1, 0.05)
    closed = price_geometric_mvmd(vanilla_model, spec)
    assert closed.std_error == 0.0
    mc = price_mvmd_mc(vanilla_model, spec, paths=1_000_000, seed=3)
    assert abs(mc.price - closed.price) < 3 * mc.std_error


def test_component_price_collapses_to_black_scholes():
    model = make_model((1.0,), (0.05,), ((1.0,),), ((0.3,),), 1.0)
    spec = BasketSpec((1.0,), "arithmetic", 1.0, 1.0, 1, 0.05)
    price, se = one_tuple_price(model, (0,), spec, 400_000, 4)
    closed = black_scholes(1.0, 1.0, 0.3, 0.05, 1.0, 1)
    assert abs(price - closed) < 3 * se


def test_component_price_regression_fixture(vanilla_model):
    # deterministic fixture: tuple (0,0), K=1, 1e6 paths, seed 0
    price, se = one_tuple_price(vanilla_model, (0, 0), BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0, 1, 0.05), 1_000_000, 0)
    assert price == pytest.approx(0.12202137320811604, abs=1e-15)
    assert se == pytest.approx(0.0001826307315831716, abs=1e-15)


def test_convex_combination_identity(vanilla_model):
    spec = BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0, 1, 0.05)
    combined = price_mvmd_mc(vanilla_model, spec, paths=200_000, seed=5)
    tuple_set = truncate(vanilla_model, 0.0)
    comp = np.array([one_tuple_price(vanilla_model, row, spec, 200_000, 5)[0] for row in tuple_set.index_array])
    resum = float(tuple_set.weight_array @ comp)
    assert combined.price == resum


@pytest.mark.parametrize("seed", range(12))
def test_convex_combination_identity_at_every_seed(vanilla_model, seed):
    # 200,000 paths are 13 path blocks: each tuple's block sums must reduce in
    # the same order whether one tuple or four were kept.
    spec = BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0, 1, 0.05)
    combined = price_mvmd_mc(vanilla_model, spec, paths=200_000, seed=seed)
    tuple_set = truncate(vanilla_model, 0.0)
    comp = [one_tuple_price(vanilla_model, row, spec, 200_000, seed)[0] for row in tuple_set.index_array]
    assert combined.price == float(tuple_set.weight_array @ np.array(comp))


def _three_by_three_model():
    """27 tuples: three components on each of three assets."""
    return make_model(
        (1.0, 0.9, 1.1),
        (0.05, 0.03, 0.04),
        ((0.5, 0.3, 0.2), (0.6, 0.3, 0.1), (0.4, 0.35, 0.25)),
        ((0.3, 0.2, 0.45), (0.25, 0.4, 0.15), (0.15, 0.3, 0.35)),
        0.4,
    )


@pytest.mark.parametrize("paths", [7, 16_385, 20_000])
def test_each_tuple_prices_as_in_its_own_pass(paths):
    # kappa = 0.01 keeps 23 of the 27 tuples, not a whole number of payoff chunks.
    model = _three_by_three_model()
    kept = truncate(model, 0.01)
    assert len(kept) == 23
    specs = tuple(
        BasketSpec((0.5, 0.3, 0.2), kind, 1.0, 1.0, omega, 0.05)
        for kind in ("arithmetic", "geometric")
        for omega in (1, -1)
    )
    for k, row in enumerate(kept.index_array):
        # A one-hot weight reads tuple k's price exactly out of the 23-tuple pass.
        one_hot = TupleSet(model, kept.index_array, np.eye(len(kept))[k])
        in_pass, _ = pricing._tuple_mc_prices(model, one_hot, specs, paths, 3, 1)
        alone, _ = pricing._tuple_mc_prices(model, TupleSet(model, [row], (1.0,)), specs, paths, 3, 1)
        assert np.array_equal(in_pass, alone), (k, in_pass - alone)


def test_wide_pass_is_the_same_at_one_and_two_workers():
    gen = np.random.default_rng(3)  # the n=6 wide basket of the benchmark: 314 tuples at kappa = 1e-3
    vols = [tuple(gen.uniform(0.1, 0.5, size=3)) for _ in range(6)]
    wide = make_model((1.0,) * 6, (0.05,) * 6, ((0.5, 0.3, 0.2),) * 6, vols, float(gen.uniform(0.1, 0.6)))
    tuple_set = truncate(wide, 1e-3)
    assert len(tuple_set) == 314
    specs = tuple(BasketSpec((1 / 6,) * 6, kind, 1.0, 1.0, rate=0.05) for kind in ("arithmetic", "geometric"))
    one = pricing._tuple_mc_prices(wide, tuple_set, specs, 20_000, 21, 1)
    two = pricing._tuple_mc_prices(wide, tuple_set, specs, 20_000, 21, 2)
    assert np.array_equal(one[0], two[0]) and np.array_equal(one[1], two[1])


def test_kernel_scratch_stays_with_its_worker_under_thread_switching(vanilla_model):
    # Each block-running thread owns its scratch; four workers on fewer cores, switching
    # threads every microsecond, would mix the blocks of a shared buffer.
    specs = tuple(BasketSpec((0.5, 0.5), kind, 1.0, 1.0, rate=0.05) for kind in ("arithmetic", "geometric"))
    tuple_set = truncate(vanilla_model, 0.0)
    paths = 8 * BLOCK_SIZE
    one = pricing._tuple_mc_prices(vanilla_model, tuple_set, specs, paths, 31, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        four = pricing._tuple_mc_prices(vanilla_model, tuple_set, specs, paths, 31, 4)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(one[0], four[0]) and np.array_equal(one[1], four[1])


@pytest.mark.parametrize(
    "scale, omega, price, se",
    [  # computed before the log-means were folded into the level weights
        (1e-150, 1, 9.779780305021302e-152, 1.0527169410553677e-153),
        (1e-150, -1, 6.669171388837433e-152, 6.676233860160847e-154),
        (1e150, 1, 9.779780305020607e148, 1.0527169410553262e147),
        (1e150, -1, 6.669171388837827e148, 6.676233860161004e146),
    ],
)
def test_extreme_spots_price_finitely(scale, omega, price, se):
    model = make_model(
        (scale, 0.9 * scale, 1.1 * scale),
        (0.05, 0.03, 0.04),
        ((0.6, 0.4), (0.5, 0.5), (0.7, 0.3)),
        ((0.3, 0.2), (0.25, 0.4), (0.15, 0.3)),
        0.4,
    )
    est = price_mvmd_mc(model, BasketSpec((0.5, 0.3, 0.2), "arithmetic", scale, 1.0, omega, 0.05), paths=20_000, seed=23)
    assert est.price == pytest.approx(price, rel=1e-12)
    assert est.std_error == pytest.approx(se, rel=1e-12)


def test_price_monotone_in_strike(vanilla_model):
    prices = [
        price_mvmd_mc(vanilla_model, BasketSpec((0.5, 0.5), "arithmetic", k, 1.0, 1, 0.05),
                      paths=100_000, seed=6).price
        for k in (0.7, 1.0, 1.3)
    ]
    assert prices[0] > prices[1] > prices[2]


def test_put_call_parity_mixture(vanilla_model):
    k = 1.1
    call = price_mvmd_mc(vanilla_model, BasketSpec((0.5, 0.5), "arithmetic", k, 1.0, 1, 0.05),
                         paths=300_000, seed=7)
    put = price_mvmd_mc(vanilla_model, BasketSpec((0.5, 0.5), "arithmetic", k, 1.0, -1, 0.05),
                        paths=300_000, seed=7)
    forward = sum(0.5 * a.spot * np.exp(a.drift * 1.0) for a in vanilla_model.assets)
    expect = np.exp(-0.05) * (forward - k)
    se = np.sqrt(call.std_error**2 + put.std_error**2)
    assert abs((call.price - put.price) - expect) < 3 * se


def test_kernel_refuses_specs_of_different_maturities(vanilla_model):
    from mvmix.pricing import _tuple_mc_prices

    specs = (BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0), BasketSpec((0.5, 0.5), "arithmetic", 1.0, 0.5))
    with pytest.raises(ValueError, match="share a maturity"):
        _tuple_mc_prices(vanilla_model, truncate(vanilla_model, 0.0), specs, 100, 0, 1)


def three_asset_model():
    return make_model(
        (1.0, 0.9, 1.1), (0.05, 0.03, 0.04), ((0.6, 0.4), (0.5, 0.5), (0.7, 0.3)),
        ((0.3, 0.2), (0.25, 0.4), (0.15, 0.3)), 0.4,
    )


def geometric_price_from_price_matrix(model, spec, paths, seed):
    """The kernel's geometric price recomputed on its draws, each level as exp(log(prices) @ g)."""
    tuple_set = truncate(model, 0.0)
    loadings, means, offsets = _component_columns(model, spec.maturity)
    g = np.asarray(spec.weights) / sum(spec.weights)
    total = 0.0
    for b, start, stop in path_blocks(paths):
        z = substream(seed, b).standard_normal((stop - start, model.n * loadings.shape[1]))
        log_prices = _column_log_prices(model, loadings, means, z, np.empty((len(means), stop - start))).T
        for row, w in zip(tuple_set.index_array, tuple_set.weight_array):
            level = np.exp(np.log(np.exp(log_prices[:, offsets + row])) @ g)
            total += w * np.maximum(spec.omega * (level - spec.strike), 0.0).sum()
    return np.exp(-spec.rate * spec.maturity) * total / paths


@pytest.mark.parametrize("omega", [1, -1], ids=["call", "put"])
@pytest.mark.parametrize("n", [2, 3])
def test_geometric_kernel_reads_levels_from_the_draw(vanilla_model, n, omega):
    model = vanilla_model if n == 2 else three_asset_model()
    spec = BasketSpec(tuple(np.linspace(0.5, 1.5, n)), "geometric", 1.0, 1.0, omega, 0.05)
    price = price_mvmd_mc(model, spec, paths=20_000, seed=12).price
    assert price == pytest.approx(geometric_price_from_price_matrix(model, spec, 20_000, 12), rel=1e-12)


def test_spot_bumps_price_as_rescaled_basket_weights():
    # The identity greeks_mvmd prices its arithmetic bumps by: weights w * S'/S on the base
    # model give the price and error of the bumped model priced alone.
    model = three_asset_model()
    tuple_set = truncate(model, 0.0)
    specs = tuple(BasketSpec((0.5, 0.3, 0.2), "arithmetic", k, 1.0, o, 0.05) for k in (0.9, 1.1) for o in (1, -1))
    for bump in ((0.01, 0, 0), (0, -0.02, 0.01), (-0.05, 0, 0)):
        spots = model.spots + bump
        alone = MultiAssetModel(tuple(replace(a, spot=x) for a, x in zip(model.assets, spots)), model.corr)
        rescaled = tuple(replace(s, weights=tuple(np.asarray(s.weights) * spots / model.spots)) for s in specs)
        price, se = pricing._tuple_mc_prices(model, tuple_set, rescaled, 20_000, 13, None)
        price_alone, se_alone = pricing._tuple_mc_prices(alone, tuple_set, specs, 20_000, 13, None)
        assert price == pytest.approx(price_alone, rel=1e-12)
        assert se == pytest.approx(se_alone, rel=1e-12)


def test_geometric_only_draw_forms_no_price_matrix(vanilla_model, monkeypatch):
    # The price matrix is exp of the (C, paths) log-price matrix, taken in that matrix's own buffer.
    log_prices, shapes = [], []
    column_log_prices = pricing._column_log_prices

    def recording(*args):
        log_prices.append(column_log_prices(*args))
        return log_prices[-1]

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            if any(x is log_price for log_price in log_prices):
                shapes.append(np.shape(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(pricing, "_column_log_prices", recording)
    monkeypatch.setattr(pricing, "np", CountingNumpy())
    geometric = tuple(BasketSpec((0.5, 0.5), "geometric", k, 1.0, o) for k in (0.9, 1.1) for o in (1, -1))
    pricing._mvmd_estimates(vanilla_model, geometric, 0.0, 20_000, 14, None)
    assert log_prices and not shapes
    arithmetic = BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0)
    pricing._mvmd_estimates(vanilla_model, (*geometric, arithmetic), 0.0, 20_000, 14, None)
    assert {rows for rows, _ in shapes} == {4} and sum(paths for _, paths in shapes) == 20_000


ENTRY_POINTS = {
    "component": lambda model, w: one_tuple_price(model, (0, 1), BasketSpec(w, "arithmetic", 1.0, 1.0), 100, 0),
    "mc": lambda model, w: price_mvmd_mc(model, BasketSpec(w, "arithmetic", 1.0, 1.0), paths=100),
    "greeks": lambda model, w: greeks_mvmd(model, BasketSpec(w, "arithmetic", 1.0, 1.0), 0.01, paths=100),
    "greeks-geometric": lambda model, w: greeks_mvmd(model, BasketSpec(w, "geometric", 1.0, 1.0), 0.01),
    "geometric": lambda model, w: price_geometric_mvmd(model, BasketSpec(w, "geometric", 1.0, 1.0)),
    "geometric-tuple": lambda model, w: tuple_geometric_price(model, (0, 1), BasketSpec(w, "geometric", 1.0, 1.0)),
}


@pytest.mark.parametrize("weights", [(1.0,), (0.4, 0.3, 0.3)], ids=["one", "three"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_basket_needs_one_weight_per_asset(vanilla_model, entry, weights):
    # one weight used to be broadcast over both assets; three failed inside numpy
    with pytest.raises(ValueError, match=f"one basket weight per asset, got {len(weights)} for 2 assets"):
        ENTRY_POINTS[entry](vanilla_model, weights)


def test_geometric_closed_form_checks_the_spec_before_enumerating(vanilla_model):
    # kappa 0.9 removes every tuple, so truncate would raise first
    with pytest.raises(ValueError, match="spec must be geometric"):
        price_geometric_mvmd(vanilla_model, BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0), kappa=0.9)


def test_basket_spec_validation():
    with pytest.raises(ValueError):
        BasketSpec((1.0, -1.0), "geometric", 1.0, 1.0, 1, 0.05)
    with pytest.raises(ValueError):
        BasketSpec((0.0, 0.0), "arithmetic", 1.0, 1.0, 1, 0.05)
    with pytest.raises(ValueError):
        BasketSpec((1.0,), "arithmetic", -0.5, 1.0, 1, 0.05)
    with pytest.raises(ValueError):
        BasketSpec((1.0,), "arithmetic", 1.0, 1.0, 2, 0.05)
    with pytest.raises(ValueError):
        BasketSpec((1.0,), "european", 1.0, 1.0, 1, 0.05)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["weights", "strike", "maturity", "rate"])
def test_basket_spec_rejects_non_finite_values(field, bad):
    args = {"weights": (0.5, 0.5), "kind": "arithmetic", "strike": 1.0, "maturity": 1.0, "rate": 0.05}
    args[field] = (0.5, bad) if field == "weights" else bad
    with pytest.raises(ValueError, match="finite"):
        BasketSpec(**args)


def test_greeks_linear_payoff_delta_is_weight():
    # near-zero vols make the zero-strike basket payoff deterministic and
    # linear in the spots: delta = w, gamma = 0
    model = make_model((1.0, 1.3), (0.05, 0.05), ((1.0,), (1.0,)), ((1e-8,), (1e-8,)), 0.3)
    spec = BasketSpec((0.4, 0.6), "arithmetic", 0.0, 1.0, 1, 0.05)
    delta, gamma = greeks_mvmd(model, spec, bump=1e-4, paths=20_000, seed=8)
    assert delta == pytest.approx([0.4, 0.6], abs=1e-6)
    assert np.allclose(gamma, 0.0, atol=1e-5)


def test_greeks_geometric_matches_analytic_delta(vanilla_model):
    spec = BasketSpec((1.0, 1.0), "geometric", 1.0, 1.0, 1, 0.05)
    # geometric pricing is closed form, so the Monte Carlo settings are inert
    delta, _ = greeks_mvmd(vanilla_model, spec, bump=1e-4, paths=1000, seed=9)

    # analytic delta of the composite lognormal closed form, per tuple
    def analytic_delta(i):
        total = 0.0
        tuple_set = truncate(vanilla_model, 0.0)
        for w, means, xi in zip(tuple_set.weight_array, *tuple_laws(vanilla_model, tuple_set.index_array, 1.0)):
            xw = np.asarray(spec.weights)
            p = 1.0 / xw.sum()
            m = float(p * (xw @ means))
            s = np.sqrt(float(p**2 * (xw @ xi @ xw)))
            d1 = (m - np.log(spec.strike)) / s + s
            dmdx = p * xw[i] / vanilla_model.assets[i].spot
            total += w * np.exp(-0.05) * np.exp(m + 0.5 * s * s) * norm.cdf(d1) * dmdx
        return total

    for i in range(2):
        assert delta[i] == pytest.approx(analytic_delta(i), rel=1e-4)


def test_greeks_convex_combination_identity(vanilla_model):
    spec = BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0, 1, 0.05)
    bump = 1e-4
    delta, _ = greeks_mvmd(vanilla_model, spec, bump=bump, paths=50_000, seed=10)
    tuple_set = truncate(vanilla_model, 0.0)

    def tuple_delta(indices, i):
        import dataclasses
        spots_up = list(vanilla_model.assets)
        spots_dn = list(vanilla_model.assets)
        spots_up[i] = dataclasses.replace(spots_up[i], spot=spots_up[i].spot + bump)
        spots_dn[i] = dataclasses.replace(spots_dn[i], spot=spots_dn[i].spot - bump)
        from mvmix import MultiAssetModel
        up = one_tuple_price(MultiAssetModel(tuple(spots_up), vanilla_model.corr), indices, spec, 50_000, 10)[0]
        dn = one_tuple_price(MultiAssetModel(tuple(spots_dn), vanilla_model.corr), indices, spec, 50_000, 10)[0]
        return (up - dn) / (2 * bump)

    for i in range(2):
        resum = sum(w * tuple_delta(row, i) for row, w in zip(tuple_set.index_array, tuple_set.weight_array))
        assert delta[i] == pytest.approx(resum, abs=1e-12)


def test_greeks_bump_validation(vanilla_model):
    spec = BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0, 1, 0.05)
    with pytest.raises(ValueError):
        greeks_mvmd(vanilla_model, spec, bump=0.0, paths=1000, seed=1)
    with pytest.raises(ValueError):
        greeks_mvmd(vanilla_model, spec, bump=-0.1, paths=1000, seed=1)


@pytest.mark.parametrize(
    "bump", [np.nan, np.inf, 1.0, 2.5, (0.01, np.nan)], ids=["nan", "inf", "spot", "above-spot", "per-asset-nan"]
)
def test_greeks_rejects_bumps_that_leave_the_model(vanilla_model, bump):
    spec = BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0, 1, 0.05)
    with pytest.raises(ValueError, match="bump"):
        greeks_mvmd(vanilla_model, spec, bump=bump, paths=1000, seed=1)
