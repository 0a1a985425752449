import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, norm

from mvmix import (
    AssetMixture,
    MixtureComponent,
    VolCurve,
    analytic_moment,
    black_scholes,
    component_pdf,
    inverse_cdf,
    local_vol,
    mixture_cdf,
    mixture_pdf,
    simulate_md_euler,
)
from mvmix.univariate import _nu2, _nu2_schedule

# Lognormal mixture densities evaluated from first principles, kept separate
# from the package code so the tests stay an independent oracle.


def oracle_pdf(x, spot, drift, lams, sigs, t):
    total = np.zeros_like(np.asarray(x, dtype=float))
    for lam, s in zip(lams, sigs):
        v = s * np.sqrt(t)
        m = np.log(spot) + drift * t - 0.5 * v * v
        total += lam * np.exp(-0.5 * ((np.log(x) - m) / v) ** 2) / (np.sqrt(2 * np.pi) * v * x)
    return total


@pytest.mark.parametrize(
    "call",
    [
        lambda a, t: mixture_pdf(a, t, 1.0),
        lambda a, t: component_pdf(a, 0, t, 1.0),
        lambda a, t: mixture_cdf(a, t, 1.0),
        lambda a, t: inverse_cdf(a, t, 0.5),
    ],
    ids=["mixture_pdf", "component_pdf", "mixture_cdf", "inverse_cdf"],
)
def test_laws_reject_an_infinite_time(vanilla_asset1, call):
    with pytest.raises(ValueError, match="density needs finite t > 0, got t = inf"):
        call(vanilla_asset1, np.inf)


@pytest.mark.parametrize(
    "call",
    [
        lambda a, x: mixture_pdf(a, 1.0, x),
        lambda a, x: component_pdf(a, 0, 1.0, x),
        lambda a, x: mixture_cdf(a, 1.0, x),
        lambda a, x: local_vol(a, 0.5, x),
    ],
    ids=["mixture_pdf", "component_pdf", "mixture_cdf", "local_vol"],
)
@pytest.mark.parametrize("x", [np.nan, [1.0, np.nan]], ids=["scalar", "array"])
def test_laws_reject_a_nan_price(vanilla_asset1, call, x):
    with pytest.raises(ValueError, match="x must not contain NaN"):
        call(vanilla_asset1, x)


@pytest.mark.parametrize("k", [-1, 2, 5, 0.5, True])
def test_component_pdf_rejects_a_component_index_outside_the_asset(vanilla_asset1, k):
    with pytest.raises(ValueError, match=rf"component index k must be an integer in \[0, 2\), got {k}"):
        component_pdf(vanilla_asset1, k, 1.0, 1.0)


def test_component_pdf_at_log_mean_point():
    # S0=1, mu=0, sigma=0.2, t=1: density at x=exp(m) is 1/(sqrt(2pi)*V*x)
    asset = AssetMixture.from_arrays(1.0, 0.0, [1.0], [0.2])
    x = np.exp(-0.02)
    assert component_pdf(asset, 0, 1.0, x) == pytest.approx(2.035007245294357, rel=1e-13)


def test_component_pdf_edges(vanilla_asset1):
    assert component_pdf(vanilla_asset1, 0, 1.0, 1e9) == pytest.approx(0.0, abs=1e-30)
    assert component_pdf(vanilla_asset1, 0, 1.0, -1.0) == 0.0
    assert component_pdf(vanilla_asset1, 0, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        component_pdf(vanilla_asset1, 0, 0.0, 1.0)


def test_component_pdf_normalizes(vanilla_asset1):
    total, _ = quad(lambda x: component_pdf(vanilla_asset1, 1, 1.0, x), 1e-9, 50.0, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_mixture_pdf_normalizes(vanilla_asset1):
    total, _ = quad(lambda x: mixture_pdf(vanilla_asset1, 1.0, x), 1e-9, 50.0, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_single_component_mixture_equals_component(vanilla_asset1):
    single = AssetMixture.from_arrays(1.0, 0.05, [1.0], [0.3])
    xs = np.array([0.5, 1.0, 2.0])
    assert mixture_pdf(single, 1.0, xs) == pytest.approx(
        [component_pdf(single, 0, 1.0, x) for x in xs], rel=1e-14
    )


def test_mixture_cdf_limits_and_oracle_value(vanilla_asset1):
    assert mixture_cdf(vanilla_asset1, 1.0, 0.0) == 0.0
    assert mixture_cdf(vanilla_asset1, 1.0, -3.0) == 0.0
    assert mixture_cdf(vanilla_asset1, 1.0, np.inf) == 1.0
    assert mixture_cdf(vanilla_asset1, 1.0, 1e8) == pytest.approx(1.0, abs=1e-12)
    # frozen from quadrature of the mixture pdf over (0, 1)
    assert mixture_cdf(vanilla_asset1, 1.0, 1.0) == pytest.approx(0.47216368493569344, abs=2e-11)


def test_mixture_cdf_matches_quadrature_on_grid(vanilla_asset1):
    for x in (0.4, 0.8, 1.3, 2.5):
        ref, _ = quad(
            lambda y: oracle_pdf(y, 1.0, 0.05, [0.6, 0.4], [0.3, 0.2], 1.0),
            1e-12,
            x,
            limit=300,
            epsabs=1e-12,
        )
        assert mixture_cdf(vanilla_asset1, 1.0, x) == pytest.approx(ref, abs=1e-10)


def test_inverse_cdf_roundtrip(vanilla_asset1):
    for x in (0.5, 0.9, 1.0, 1.4, 2.2):
        u = mixture_cdf(vanilla_asset1, 1.0, x)
        assert inverse_cdf(vanilla_asset1, 1.0, u) == pytest.approx(x, abs=1e-8)
    for u in (0.01, 0.2, 0.5, 0.8, 0.99):
        x = inverse_cdf(vanilla_asset1, 1.0, u)
        assert mixture_cdf(vanilla_asset1, 1.0, x) == pytest.approx(u, abs=1e-10)


def test_inverse_cdf_lognormal_median():
    single = AssetMixture.from_arrays(1.0, 0.05, [1.0], [0.3])
    expect = np.exp(np.log(1.0) + 0.05 - 0.5 * 0.09)
    assert inverse_cdf(single, 1.0, 0.5) == pytest.approx(expect, rel=1e-12)


def test_inverse_cdf_zero_weight_component():
    # the bracket spans both component quantiles, but the root sits on the
    # weighted component's own quantile, one endpoint of the bracket
    padded = AssetMixture.from_arrays(1.0, 0.05, [1.0, 0.0], [0.3, 0.2])
    for u in (0.01, 0.3, 0.5, 0.9):
        expect = np.exp(0.05 - 0.5 * 0.09 + 0.3 * norm.ppf(u))
        assert inverse_cdf(padded, 1.0, u) == pytest.approx(expect, rel=1e-12)


def test_inverse_cdf_against_bisection_oracle(vanilla_asset2):
    # frozen from bisection on the quadrature-based cdf of asset 2
    assert inverse_cdf(vanilla_asset2, 1.0, 0.975) == pytest.approx(1.760024145216903, abs=1e-8)


def test_inverse_cdf_roundtrip_in_the_tails(vanilla_asset1):
    x = inverse_cdf(vanilla_asset1, 1.0, 1e-12)
    assert mixture_cdf(vanilla_asset1, 1.0, x) == pytest.approx(1e-12, rel=1e-12, abs=0)
    x = inverse_cdf(vanilla_asset1, 1.0, 1.0 - 1e-12)
    assert mixture_cdf(vanilla_asset1, 1.0, x) == pytest.approx(1.0 - 1e-12, abs=1e-15)


def test_inverse_cdf_roundtrip_time_varying_vol():
    asset = AssetMixture.from_arrays(
        1.0, 0.02, [0.5, 0.5], [VolCurve((0.0, 0.5), (0.2, 0.4)), VolCurve((0.0, 0.25), (0.1, 0.3))]
    )
    for t in (0.3, 1.0):
        for u in (1e-6, 0.05, 0.5, 0.95):
            x = inverse_cdf(asset, t, u)
            assert mixture_cdf(asset, t, x) == pytest.approx(u, rel=1e-12, abs=0)


def test_inverse_cdf_domain(vanilla_asset1):
    for u in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            inverse_cdf(vanilla_asset1, 1.0, u)


def test_local_vol_constant_across_states_when_components_identical():
    asset = AssetMixture.from_arrays(1.0, 0.02, [0.5, 0.5], [0.25, 0.25])
    xs = np.array([0.2, 1.0, 7.0])
    assert local_vol(asset, 0.7, xs) == pytest.approx([0.25] * 3, rel=1e-14)


def test_local_vol_hand_value(vanilla_asset1):
    # direct evaluation of the two-density ratio at x = S0 * exp(mu)
    assert local_vol(vanilla_asset1, 1.0, np.exp(0.05)) == pytest.approx(
        0.254797714382041, rel=1e-12
    )


def test_local_vol_bounds(vanilla_asset1):
    rng = np.random.default_rng(5)
    t = rng.uniform(0.05, 3.0, 200)
    x = rng.lognormal(0.0, 1.5, 200)
    for ti, xi in zip(t, x):
        nu = local_vol(vanilla_asset1, ti, xi)
        assert 0.2 - 1e-12 <= nu <= 0.3 + 1e-12


def test_local_vol_extreme_tails_pick_fattest_component(vanilla_asset1):
    # deep tails are dominated by the highest-vol component (sigma = 0.3)
    assert local_vol(vanilla_asset1, 1.0, 1e-12) == pytest.approx(0.3, rel=1e-9)
    assert local_vol(vanilla_asset1, 1.0, 1e12) == pytest.approx(0.3, rel=1e-9)


def test_local_vol_time_zero_limit(vanilla_asset1):
    expect = np.sqrt(0.6 * 0.09 + 0.4 * 0.04)
    assert local_vol(vanilla_asset1, 0.0, 1.0) == pytest.approx(expect, rel=1e-14)


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_one_component_local_vol_is_its_vol_exactly(t):
    asset = AssetMixture.from_arrays(1.0, 0.01, [1.0], [0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nu = local_vol(asset, t, [5e-324, 1.0, np.inf])
    assert nu.tolist() == [0.3, 0.3, 0.3]


def test_zero_weight_component_is_inert_at_an_infinite_price():
    # the zero-weight vol 0.8 exceeds the reference's 0.3, so its slot's d_k used to read inf - inf at y = inf
    asset = AssetMixture.from_arrays(1.0, 0.05, [0.5, 0.5, 0.0], [0.2, 0.3, 0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert local_vol(asset, 0.5, np.inf) == 0.3


LOCAL_VOL_TIMES = (1.0 / 360.0, 0.5, 3.0)


def local_vol_assets():
    vanilla = AssetMixture.from_arrays(1.0, 0.05, [0.6, 0.4], [0.3, 0.2])
    # the largest integrated variance moves from component 0 (t = 1/360) to
    # 1 (t = 0.5) to 2 (t = 3); the spot sits far from 1
    switching = AssetMixture.from_arrays(
        40.0,
        0.03,
        [0.3, 0.5, 0.2],
        [VolCurve((0.0, 0.25), (0.5, 0.1)), 0.4, VolCurve((0.0, 1.0), (0.2, 0.6))],
    )
    # the zero-weight component has the largest vol and must stay inert
    zero_weight = AssetMixture.from_arrays(1.0, 0.05, [0.5, 0.0, 0.5], [0.2, 0.5, 0.3])
    return {"vanilla": vanilla, "switching": switching, "zero-weight": zero_weight}


def _nu2_with_fills(y, coefs, bufs):
    """Reference nu^2: every component added to a zeroed numerator and a unit denominator."""
    ref, terms = coefs
    out, den, e = bufs
    out.fill(0.0)
    den.fill(1.0)
    for gk, bk, ak, dk in zip(*terms):
        np.multiply(gk, y, out=e)
        e += bk
        e *= y
        e += ak
        np.exp(e, out=e)
        den += e
        e *= dk
        out += e
    out /= den
    out += ref
    return out


@pytest.mark.parametrize(
    "names",
    [("single",), ("vanilla",), ("switching",), ("zero-weight",), ("single", "vanilla", "switching", "zero-weight")],
)
def test_nu2_kernel_keeps_the_bits_of_the_filled_form(names):
    assets = dict(local_vol_assets(), single=AssetMixture.from_arrays(2.0, 0.01, [1.0], [0.3]))
    assets = [assets[name] for name in names]
    y = np.random.default_rng(8).normal(0.0, 0.8, (len(assets), 501))
    y[:, :3] = [-40.0, 0.0, 40.0]
    for coefs in _nu2_schedule(assets, (0.0,) + LOCAL_VOL_TIMES):
        got = _nu2(y, coefs, np.full((3,) + y.shape, np.nan))
        assert np.array_equal(got, _nu2_with_fills(y, coefs, np.full((3,) + y.shape, np.nan)))


def test_switching_asset_changes_its_largest_variance_component():
    asset = local_vol_assets()["switching"]
    assert [int(np.argmax(asset.law(t)[1])) for t in LOCAL_VOL_TIMES] == [0, 1, 2]


@pytest.mark.parametrize("name", sorted(local_vol_assets()))
@pytest.mark.parametrize("t", LOCAL_VOL_TIMES)
def test_local_vol_matches_density_ratio_oracle(name, t):
    asset = local_vol_assets()[name]
    x = np.logspace(-6, 6, 4001)
    lam, sig = asset.weights, np.array([c.vol.value(t) for c in asset.components])
    pdfs = np.array([component_pdf(asset, k, t, x) for k in range(asset.n_components)])
    num, den = (lam * sig**2) @ pdfs, lam @ pdfs
    # where every density underflows (or is subnormal) the ratio is not an oracle
    defined = den > 1e-250
    assert defined.sum() >= 10
    oracle = np.sqrt(num[defined] / den[defined])
    assert local_vol(asset, t, x[defined]) == pytest.approx(oracle, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", sorted(local_vol_assets()))
@pytest.mark.parametrize("t", LOCAL_VOL_TIMES)
def test_local_vol_at_extreme_log_prices(name, t):
    asset = local_vol_assets()[name]
    sig = np.array([c.vol.value(t) for c in asset.components])[asset.weights > 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nu = local_vol(asset, t, np.exp([-700.0, 700.0]))
    assert np.all(np.isfinite(nu))
    assert np.all((sig.min() <= nu) & (nu <= sig.max()))


def test_euler_gbm_matches_exact_lognormal_law():
    # constant vol: log-Euler is exact, so terminal samples follow the GBM law
    asset = AssetMixture.from_arrays(1.0, 0.05, [1.0], [0.3])
    samples = simulate_md_euler(asset, 1.0, 12, 100_000, seed=7)
    res = kstest(np.log(samples), "norm", args=(0.05 - 0.045, 0.3))
    assert res.pvalue > 0.01


def test_euler_terminal_law_matches_mixture(vanilla_asset1):
    samples = simulate_md_euler(vanilla_asset1, 1.0, 360, 100_000, seed=11)
    res = kstest(samples, lambda x: mixture_cdf(vanilla_asset1, 1.0, x))
    assert res.statistic < 0.006
    assert res.pvalue > 0.01


def test_euler_deterministic_and_worker_independent(vanilla_asset1, monkeypatch):
    monkeypatch.setenv("MVMIX_WORKERS", "1")
    a = simulate_md_euler(vanilla_asset1, 1.0, 30, 40_000, seed=3)
    b = simulate_md_euler(vanilla_asset1, 1.0, 30, 40_000, seed=3)
    monkeypatch.setenv("MVMIX_WORKERS", "4")
    c = simulate_md_euler(vanilla_asset1, 1.0, 30, 40_000, seed=3)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    assert np.all(a > 0)


def test_martingale_and_analytic_moment(vanilla_asset1):
    samples = simulate_md_euler(vanilla_asset1, 1.0, 120, 100_000, seed=13)
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - np.exp(0.05)) < 3 * se
    assert analytic_moment(vanilla_asset1, 1.0, 1) == pytest.approx(np.exp(0.05), rel=1e-14)


def test_option_price_linearity(vanilla_asset1):
    # mixture option price is the weight-average of component prices, and the
    # simulated dynamics reproduces it
    t, k, r = 1.0, 1.1, 0.05
    price_mix = sum(
        c.weight * black_scholes(1.0, k, np.sqrt(c.vol.integral_sq(t)), r, t, 1)
        for c in vanilla_asset1.components
    )
    samples = simulate_md_euler(vanilla_asset1, t, 360, 100_000, seed=17)
    payoff = np.maximum(samples - k, 0.0)
    mc = np.exp(-r * t) * payoff.mean()
    se = np.exp(-r * t) * payoff.std(ddof=1) / np.sqrt(samples.size)
    assert abs(mc - price_mix) < 3 * se


def test_asset_validation():
    with pytest.raises(ValueError):
        AssetMixture.from_arrays(1.0, 0.0, [0.6, 0.5], [0.2, 0.3])  # weights sum != 1
    with pytest.raises(ValueError):
        AssetMixture.from_arrays(-1.0, 0.0, [1.0], [0.2])  # negative spot
    with pytest.raises(ValueError):
        AssetMixture.from_arrays(1.0, 0.0, [], [])  # no components
    with pytest.raises(ValueError):
        MixtureComponent(-0.1, VolCurve.constant(0.2))  # negative weight


@pytest.mark.parametrize(
    "spot,drift,weight", [(1.0, np.nan, 1.0), (np.inf, 0.0, 1.0), (1.0, 0.0, np.nan)]
)
def test_asset_rejects_non_finite_values(spot, drift, weight):
    with pytest.raises(ValueError, match="finite"):
        AssetMixture.from_arrays(spot, drift, [weight], [0.2])


def test_piecewise_vol_dynamics_reproduce_mixture_law():
    # time-dependent step vols flow through the densities and the simulator
    curve_a = VolCurve((0.0, 0.5), (0.35, 0.15))
    curve_b = VolCurve((0.0, 0.25), (0.1, 0.3))
    asset = AssetMixture.from_arrays(1.0, 0.03, [0.5, 0.5], [curve_a, curve_b])
    total, _ = quad(lambda x: mixture_pdf(asset, 1.0, x), 1e-9, 50.0, limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)
    assert analytic_moment(asset, 1.0, 1) == pytest.approx(np.exp(0.03), rel=1e-14)
    samples = simulate_md_euler(asset, 1.0, 360, 100_000, seed=19)
    res = kstest(samples, lambda x: mixture_cdf(asset, 1.0, x))
    assert res.pvalue > 0.01


def test_zero_weight_component_is_inert():
    # a 0-weight component may appear in configs; it must not perturb results
    degenerate = AssetMixture.from_arrays(1.0, 0.05, [1.0, 0.0], [0.3, 0.2])
    single = AssetMixture.from_arrays(1.0, 0.05, [1.0], [0.3])
    xs = np.array([0.5, 1.0, 2.0])
    assert local_vol(degenerate, 1.0, xs) == pytest.approx([0.3] * 3, rel=1e-12)
    assert mixture_pdf(degenerate, 1.0, xs) == pytest.approx(
        mixture_pdf(single, 1.0, xs), rel=1e-14
    )
    assert np.array_equal(
        simulate_md_euler(degenerate, 1.0, 12, 2000, seed=1),
        simulate_md_euler(single, 1.0, 12, 2000, seed=1),
    )
