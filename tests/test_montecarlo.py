import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from mvmix import (
    BasketSpec,
    SimulationConfig,
    VolCurve,
    estimate,
    mixture_cdf,
    sample_muvm_terminal,
    sample_mvmd_terminal,
    simulate_md_euler,
    simulate_scmd,
)

from conftest import make_model


def gbm_model(rho=0.5):
    return make_model((1.0, 1.2), (0.05, 0.03), ((1.0,), (1.0,)), ((0.3,), (0.25,)), rho)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(0, 10, 1.0, 1)
    with pytest.raises(ValueError):
        SimulationConfig(10, 0, 1.0, 1)
    with pytest.raises(ValueError):
        SimulationConfig(10, 10, -1.0, 1)


@pytest.mark.parametrize("paths, steps, named", [(2.5, 10, "paths"), (10, 2.5, "steps"), (10, 3.0, "steps"), (True, 10, "paths")])
def test_config_wants_whole_paths_and_steps(vanilla_asset1, paths, steps, named):
    with pytest.raises(ValueError, match=f"whole number of {named}"):
        SimulationConfig(paths, steps, 1.0, 1)
    with pytest.raises(ValueError, match=f"whole number of {named}"):
        simulate_md_euler(vanilla_asset1, 1.0, steps, paths, 1)


def test_samplers_reject_an_infinite_maturity(vanilla_model):
    with pytest.raises(ValueError, match="maturity must be positive and finite, got inf"):
        SimulationConfig(10, 10, np.inf, 1)
    with pytest.raises(ValueError, match="maturity must be positive and finite, got inf"):
        simulate_md_euler(vanilla_model.assets[0], np.inf, 10, 10, 1)
    with pytest.raises(ValueError, match="need finite t > 0, got t = inf"):
        sample_mvmd_terminal(vanilla_model, np.inf, 10, 1)
    with pytest.raises(ValueError, match="need finite t > 0, got t = inf"):
        sample_muvm_terminal(vanilla_model, np.inf, 10, 1)


def test_md_euler_is_the_one_asset_scmd(vanilla_asset1):
    model = make_model((1.0,), (0.05,), ((0.6, 0.4),), ((0.3, 0.2),), 1.0)
    scmd = simulate_scmd(model, SimulationConfig(20_000, 30, 1.0, 15)).values
    assert np.array_equal(simulate_md_euler(vanilla_asset1, 1.0, 30, 20_000, 15), scmd[:, 0])


def test_scmd_single_component_is_exact_gbm():
    model = gbm_model(0.5)
    sample = simulate_scmd(model, SimulationConfig(100_000, 4, 1.0, 23))
    logs = np.log(sample.values)
    # marginals: exact lognormal law regardless of step count
    r1 = kstest(logs[:, 0], "norm", args=(0.05 - 0.045, 0.3))
    r2 = kstest(logs[:, 1], "norm", args=(np.log(1.2) + 0.03 - 0.03125, 0.25))
    assert r1.pvalue > 0.01 and r2.pvalue > 0.01
    corr = np.corrcoef(logs[:, 0], logs[:, 1])[0, 1]
    assert abs(corr - 0.5) < 0.01


def test_scmd_terminal_marginals_match_mixture(vanilla_model):
    sample = simulate_scmd(vanilla_model, SimulationConfig(100_000, 360, 1.0, 29))
    for i, asset in enumerate(vanilla_model.assets):
        res = kstest(sample.values[:, i], lambda x: mixture_cdf(asset, 1.0, x))
        assert res.pvalue > 0.01


def test_scmd_mixed_component_counts_match_mixture():
    # one single-component asset next to a three-component one with a
    # time-varying vol: the (assets, paths) kernel pads the first
    model = make_model(
        (1.0, 0.8),
        (0.05, 0.02),
        ((1.0,), (0.5, 0.3, 0.2)),
        ((0.25,), (0.15, VolCurve((0.0, 0.5), (0.5, 0.2)), 0.45)),
        0.5,
    )
    sample = simulate_scmd(model, SimulationConfig(50_000, 120, 1.0, 42))
    for i, asset in enumerate(model.assets):
        res = kstest(sample.values[:, i], lambda x: mixture_cdf(asset, 1.0, x))
        assert res.pvalue > 0.01


def test_scmd_deterministic_across_workers(vanilla_model):
    cfg = SimulationConfig(40_000, 24, 1.0, 31)
    a = simulate_scmd(vanilla_model, cfg)
    b = simulate_scmd(vanilla_model, cfg, workers=3)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values > 0)
    assert a.scheme == "scmd-euler" and a.seed == 31


def test_mvmd_terminal_marginals_and_determinism(vanilla_model, monkeypatch):
    monkeypatch.setenv("MVMIX_WORKERS", "1")
    s1 = sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=37)
    monkeypatch.setenv("MVMIX_WORKERS", "4")
    s2 = sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=37)
    assert np.array_equal(s1.values, s2.values)
    for i, asset in enumerate(vanilla_model.assets):
        res = kstest(s1.values[:, i], lambda x: mixture_cdf(asset, 1.0, x))
        assert res.pvalue > 0.01


def selection_model():
    # component vols so far apart that the drawn component is identifiable
    # from the terminal value itself
    return make_model(
        (1.0, 1.0), (0.0, 0.0), ((0.6, 0.4), (0.7, 0.3)), ((1e-4, 3.0), (1e-4, 3.0)), 0.4
    )


def classify(values):
    # small-vol component concentrates within ~5e-4 of exp(-V^2/2) ~ 1
    return (np.abs(np.log(values)) > 1e-2).astype(int)


def test_mvmd_tuple_selection_frequencies():
    model = selection_model()
    sample = sample_mvmd_terminal(model, 1.0, 100_000, seed=41)
    picks = classify(sample.values)
    m = len(sample.values)
    for k1, l1 in enumerate((0.6, 0.4)):
        for k2, l2 in enumerate((0.7, 0.3)):
            p = l1 * l2
            freq = np.mean((picks[:, 0] == k1) & (picks[:, 1] == k2))
            assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / m)


def test_muvm_independent_scenario_frequencies():
    model = selection_model()
    sample = sample_muvm_terminal(model, 1.0, 100_000, seed=43)
    picks = classify(sample.values)
    m = len(sample.values)
    # per-asset marginals and joint products (independence of the draws)
    assert abs(np.mean(picks[:, 0]) - 0.4) < 3 * np.sqrt(0.24 / m)
    assert abs(np.mean(picks[:, 1]) - 0.3) < 3 * np.sqrt(0.21 / m)
    for k1, l1 in enumerate((0.6, 0.4)):
        for k2, l2 in enumerate((0.7, 0.3)):
            p = l1 * l2
            freq = np.mean((picks[:, 0] == k1) & (picks[:, 1] == k2))
            assert abs(freq - p) < 3 * np.sqrt(p * (1 - p) / m)


def test_muvm_equals_mvmd_in_law(vanilla_model):
    a = sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=47)
    b = sample_muvm_terminal(vanilla_model, 1.0, 100_000, seed=48)
    for i in range(2):
        res = ks_2samp(a.values[:, i], b.values[:, i])
        assert res.pvalue > 0.01


def test_muvm_samples_past_tuple_enumeration(monkeypatch):
    # 3**12 = 531,441 tuples: each asset picks its own column, so no tuple is ever listed
    from mvmix import analytic_moment, multivariate

    def refuse(*args, **kwargs):
        raise AssertionError("sample_muvm_terminal enumerated the tuples")

    monkeypatch.setattr(multivariate, "truncate", refuse)
    monkeypatch.setattr("mvmix.montecarlo.truncate", refuse)
    gen = np.random.default_rng(12)
    vols = [tuple(gen.uniform(0.1, 0.5, size=3)) for _ in range(12)]
    model = make_model(tuple(gen.uniform(0.8, 1.2, size=12)), (0.03,) * 12, ((0.5, 0.3, 0.2),) * 12, vols, 0.3)
    sample = sample_muvm_terminal(model, 1.0, 40_000, seed=53).values
    se = sample.std(axis=0, ddof=1) / np.sqrt(len(sample))
    exact = np.array([analytic_moment(asset, 1.0) for asset in model.assets])
    assert np.all(np.abs(sample.mean(axis=0) - exact) < 5 * se)


def test_single_component_samplers_agree_in_law():
    model = gbm_model(0.7)
    a = sample_mvmd_terminal(model, 1.0, 50_000, seed=51)
    b = sample_muvm_terminal(model, 1.0, 50_000, seed=52)
    c = simulate_scmd(model, SimulationConfig(50_000, 180, 1.0, 53))
    for i in range(2):
        assert ks_2samp(a.values[:, i], b.values[:, i]).pvalue > 0.01
        assert ks_2samp(a.values[:, i], c.values[:, i]).pvalue > 0.01


def test_forward_consistency(vanilla_model):
    for sample in (
        sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=57),
        sample_muvm_terminal(vanilla_model, 1.0, 100_000, seed=58),
        simulate_scmd(vanilla_model, SimulationConfig(100_000, 120, 1.0, 59)),
    ):
        for i, asset in enumerate(vanilla_model.assets):
            vals = sample.values[:, i]
            se = vals.std(ddof=1) / np.sqrt(len(sample.values))
            assert abs(vals.mean() - np.exp(0.05)) < 3 * se


def test_estimate_constant_payoff(vanilla_model):
    sample = sample_mvmd_terminal(vanilla_model, 1.0, 1000, seed=61)
    est = estimate(sample, lambda v: np.full(v.shape[0], 2.5), 0.05, 1.0)
    assert est.price == pytest.approx(2.5 * np.exp(-0.05), rel=1e-14)
    assert est.std_error == 0.0
    assert est.samples == 1000
    assert est.method == "mvmd-terminal"


def test_estimate_martingale_basket(vanilla_model):
    spec = BasketSpec((0.5, 0.5), "arithmetic", 0.0, 1.0, 1, 0.05)
    sample = sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=63)
    est = estimate(sample, spec.payoff, 0.05, 1.0)
    # drift equals the rate, so the discounted basket is a martingale
    assert abs(est.price - 1.0) < 3 * est.std_error


def test_estimate_empty_sample_rejected():
    with pytest.raises(ValueError):
        estimate(np.empty((0, 2)), lambda v: v[:, 0], 0.0, 1.0)


@pytest.mark.parametrize("rate, maturity", [(np.nan, 1.0), (np.inf, 1.0), (0.05, np.nan), (0.05, -1.0)])
def test_estimate_needs_a_finite_rate_and_maturity(rate, maturity):
    # a negative maturity used to compound: 1.0513 on a payoff of 1
    with pytest.raises(ValueError, match="need a finite rate and a finite maturity >= 0"):
        estimate(np.ones((10, 2)), lambda v: v[:, 0], rate, maturity)


def test_estimate_needs_one_payoff_value_per_path():
    # an (m, n) payoff used to be averaged over m * n entries with samples = m
    with pytest.raises(ValueError, match=r"payoff must return one value per path: shape \(10,\), got \(10, 2\)"):
        estimate(np.ones((10, 2)), lambda v: v, 0.05, 1.0)
    assert estimate(np.ones((10, 2)), lambda v: v[:, 0], 0.05, 0.0).price == 1.0


def test_mvmd_cutoff_sampling(vanilla_model):
    # kappa = 0.2 keeps tuples (0,0) and (1,0): asset 2 always draws its
    # first component, so its marginal is that single lognormal
    sample = sample_mvmd_terminal(vanilla_model, 1.0, 50_000, seed=68, kappa=0.2)
    logs = np.log(sample.values[:, 1])
    res = kstest(logs, "norm", args=(0.05 - 0.5 * 0.0625, 0.25))
    assert res.pvalue > 0.01


def test_scheme_agreement_across_benchmark_configs():
    # mixture sampling and uncertain-vol sampling price every benchmark
    # payoff the same way (within combined error bars)
    from mvmix.benchmarks import MATURITY, RATE, STRIKES, TABLES, benchmark_model, benchmark_spec

    for table, info in TABLES.items():
        for product in info["products"]:
            model = benchmark_model(product, info["rho"])
            mv = sample_mvmd_terminal(model, MATURITY, 50_000, seed=300 + table)
            mu = sample_muvm_terminal(model, MATURITY, 50_000, seed=600 + table)
            for strike in STRIKES:
                spec = benchmark_spec(product, strike)
                a = estimate(mv, spec.payoff, RATE, MATURITY)
                b = estimate(mu, spec.payoff, RATE, MATURITY)
                se = np.sqrt(a.std_error**2 + b.std_error**2)
                assert abs(a.price - b.price) < 3 * se


def test_pairwise_two_sample_ks_across_samplers(vanilla_model):
    mv = sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=91)
    mu = sample_muvm_terminal(vanilla_model, 1.0, 100_000, seed=92)
    sc = simulate_scmd(vanilla_model, SimulationConfig(100_000, 360, 1.0, 93))
    for i in range(2):
        assert ks_2samp(mv.values[:, i], mu.values[:, i]).pvalue > 0.01
        assert ks_2samp(mv.values[:, i], sc.values[:, i]).pvalue > 0.01
        assert ks_2samp(mu.values[:, i], sc.values[:, i]).pvalue > 0.01


def test_pricing_from_terminal_sampler_matches_reference(vanilla_model):
    # the exact terminal sampler prices the deep strike to the reference cell
    sample = sample_mvmd_terminal(vanilla_model, 1.0, 100_000, seed=644)
    spec = BasketSpec((0.5, 0.5), "arithmetic", 0.7, 1.0, 1, 0.05)
    est = estimate(sample, spec.payoff, 0.05, 1.0)
    assert abs(est.price - 0.3380) < 3 * np.sqrt(0.0007**2 + est.std_error**2)
