"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [criterion N] PASS line when its assertions hold; run
with `pytest -s tests/test_acceptance.py` to see the lines as they come.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from mvmix import (
    BasketSpec,
    SimulationConfig,
    analytic_moment,
    black_scholes,
    copula_value,
    density_count,
    empirical_copula,
    estimate,
    geometric_pair_k0,
    kendall_tau_empirical,
    kendall_tau_mvmd,
    margrabe,
    mixture_cdf,
    price_geometric_mvmd,
    price_mvmd_mc,
    sample_muvm_terminal,
    sample_mvmd_terminal,
    simulate_md_euler,
    simulate_scmd,
    truncate,
)
from mvmix.benchmarks import MATURITY, RATE, STRIKES, TABLES, benchmark_model, benchmark_spec
from mvmix.multivariate import marginal_moment
from mvmix.runner import reproduce_tables

from conftest import make_model, one_tuple_price

PATHS = 100_000


def report(n, text):
    print(f"\n[criterion {n}] PASS: {text}")


@pytest.fixture(scope="session")
def tables_one_worker(tmp_path_factory):
    """One timed reproduce_tables run at PATHS, shared by criteria 1 and 8."""
    outdir = tmp_path_factory.mktemp("tables") / "one"
    start = time.time()
    results = reproduce_tables(outdir, paths=PATHS)
    return outdir, results, time.time() - start


def test_criterion_1_table_reproduction(tables_one_worker):
    _, results, elapsed = tables_one_worker
    cells = 0
    worst = 0.0
    for name, rows in results.items():
        if name == "table1_parameters":
            continue
        for row in rows:
            assert row["ref_price"] != "", f"missing reference for {row}"
            gap = abs(row["price"] - row["ref_price"])
            bound = 3.0 * np.sqrt(row["ref_se"] ** 2 + row["std_error"] ** 2)
            assert gap <= bound, (name, row, gap, bound)
            worst = max(worst, gap / bound)
            cells += 1
    assert cells == 42
    assert elapsed < 600.0
    report(1, f"{cells} table cells within 3 combined SEs "
              f"(worst ratio {worst:.2f}, {elapsed:.0f}s)")


def test_criterion_2_projection_equivalence():
    checked = 0
    for product in TABLES[2]["products"]:
        model = benchmark_model(product, TABLES[2]["rho"])
        mv = sample_mvmd_terminal(model, MATURITY, PATHS, seed=101)
        mu = sample_muvm_terminal(model, MATURITY, PATHS, seed=202)
        for i in range(model.n):
            assert ks_2samp(mv.values[:, i], mu.values[:, i]).pvalue > 0.01
        for strike in STRIKES:
            spec = benchmark_spec(product, strike)
            a = estimate(mv, spec.payoff, RATE, MATURITY)
            b = estimate(mu, spec.payoff, RATE, MATURITY)
            se = np.sqrt(a.std_error**2 + b.std_error**2)
            assert abs(a.price - b.price) < 3 * se
            checked += 1
    report(2, f"mixture and uncertain-volatility terminal samplers agree "
              f"(marginal KS and {checked} payoff expectations)")


def test_criterion_3_marginal_consistency():
    model = benchmark_model("vanilla", 0.6)
    scmd = simulate_scmd(model, SimulationConfig(PATHS, 360, MATURITY, 303))
    mvmd = sample_mvmd_terminal(model, MATURITY, PATHS, seed=304)
    for i, asset in enumerate(model.assets):
        cdf = lambda x: mixture_cdf(asset, MATURITY, x)
        assert kstest(scmd.values[:, i], cdf).pvalue > 0.01
        assert kstest(mvmd.values[:, i], cdf).pvalue > 0.01
    for product in ("vanilla", "spread"):
        m = benchmark_model(product, 0.6)
        for i, asset in enumerate(m.assets):
            for order in (1, 2, 3, 4):
                tuple_sum = marginal_moment(m, i, MATURITY, order)
                direct = analytic_moment(asset, MATURITY, order)
                assert tuple_sum == pytest.approx(direct, rel=1e-12)
    report(3, "path-wise and single-step marginals pass KS vs the analytic "
              "mixture; moments 1..4 match to 1e-12")


def test_criterion_4_closed_form_cross_checks():
    # exchange option vs single-step MC at 1e6
    x1, x2, s1, s2, rho = 0.7, 1.7, 0.2, 0.4, 0.6
    model = make_model((x1, x2), (RATE, RATE), ((1.0,), (1.0,)), ((s1,), (s2,)), rho)
    spec = BasketSpec((-1.0, 1.0), "arithmetic", 0.0, MATURITY, 1, RATE)
    price, se = one_tuple_price(model, (0, 0), spec, 1_000_000, 404)
    closed = margrabe(x1, x2, s1, s2, rho, MATURITY, 1)
    assert abs(price - closed) < 3 * se

    # zero-strike and general-strike geometric closed forms vs MC at 1e6
    gmodel = benchmark_model("geometric", 0.6)
    for strike in (0.0, 1.0):
        spec = BasketSpec((1.0, 1.0), "geometric", strike, MATURITY, 1, RATE)
        exact = price_geometric_mvmd(gmodel, spec)
        mc = price_mvmd_mc(gmodel, spec, paths=1_000_000, seed=405)
        assert exact.std_error == 0.0
        assert abs(mc.price - exact.price) < 3 * mc.std_error
        if strike == 0.0:
            full = truncate(gmodel, 0.0)
            pair = sum(
                w * geometric_pair_k0(
                    1.0, 1.0,
                    gmodel.assets[0].components[k0].vol.value(0.0),
                    gmodel.assets[1].components[k1].vol.value(0.0),
                    0.6, 1.0, 1.0, RATE, MATURITY,
                )
                for (k0, k1), w in zip(full.index_array, full.weight_array)
            )
            assert exact.price == pytest.approx(pair, rel=1e-13)

    # put-call parity of the lognormal pricer
    rng = np.random.default_rng(406)
    for _ in range(200):
        s, k = rng.uniform(0.3, 3.0, 2)
        v, r, t = rng.uniform(0.01, 1.0), rng.uniform(0.0, 0.1), rng.uniform(0.1, 5.0)
        c = black_scholes(s, k, v, r, t, 1)
        p = black_scholes(s, k, v, r, t, -1)
        assert abs((c - p) - (s - k * np.exp(-r * t))) < 1e-12
    report(4, "exchange-option and geometric closed forms match single-step "
              "MC at 1e6; put-call parity holds to 1e-12")


def test_criterion_5_local_vol_dynamics():
    model = benchmark_model("vanilla", 0.6)
    for asset in model.assets:
        samples = simulate_md_euler(asset, MATURITY, 360, PATHS, seed=505)
        res = kstest(samples, lambda x: mixture_cdf(asset, MATURITY, x))
        assert res.pvalue > 0.01
    report(5, "Euler simulation under the state-dependent mixture vol "
              "reproduces the analytic terminal law (KS at 1%)")


def test_criterion_6_dependence_suite():
    for rho in (-0.6, 0.0, 0.6, 0.9):
        model = benchmark_model("vanilla", rho)
        tau_cf = kendall_tau_mvmd(model, MATURITY)
        sample = sample_mvmd_terminal(model, MATURITY, PATHS, seed=606)
        tau_emp = kendall_tau_empirical(sample.values[:, 0], sample.values[:, 1])
        assert abs(tau_cf - tau_emp) < 0.01
        degenerate = make_model(
            (1.0, 1.0), (0.05, 0.05), ((1.0, 0.0), (1.0, 0.0)), ((0.3, 0.2), (0.25, 0.35)), rho
        )
        assert abs(kendall_tau_mvmd(degenerate, MATURITY) - 2 / np.pi * np.arcsin(rho)) < 0.01

    model = benchmark_model("vanilla", 0.6)
    sample = sample_mvmd_terminal(model, MATURITY, PATHS, seed=607)
    grid = np.arange(1, 6) / 6
    for u in (0.1, 0.45, 0.8):
        assert copula_value(model, MATURITY, [u, 1.0]) == pytest.approx(u, abs=1e-8)
        assert copula_value(model, MATURITY, [1.0, u]) == pytest.approx(u, abs=1e-8)
    for u1 in grid:
        for u2 in grid:
            c = copula_value(model, MATURITY, [u1, u2])
            assert max(u1 + u2 - 1.0, 0.0) - 1e-12 <= c <= min(u1, u2) + 1e-12
            assert abs(c - empirical_copula(sample.values, np.array([u1, u2]))) < 0.01
    report(6, "closed-form tau matches empirical tau within 0.01 across "
              "correlations; copula passes bounds, margins and the 5x5 "
              "empirical grid")


def test_criterion_7_truncation_convergence():
    for product in ("vanilla", "spread"):
        model = benchmark_model(product, 0.6)
        spec = benchmark_spec(product, 1.0)
        full = price_mvmd_mc(model, spec, kappa=0.0, paths=PATHS, seed=707)
        gaps = []
        for kappa in (0.1, 0.01):
            est = price_mvmd_mc(model, spec, kappa=kappa, paths=PATHS, seed=707)
            gaps.append(abs(est.price - full.price))
        assert gaps[0] >= gaps[1]  # |P(0.1)-P(0)| >= |P(0.01)-P(0)|
        assert gaps[1] <= max(full.std_error, 1e-15)
        # a cutoff that actually drops tuples still converges from above
        harder = abs(price_mvmd_mc(model, spec, kappa=0.2, paths=PATHS, seed=707).price
                     - full.price)
        assert harder >= gaps[0]
    count = density_count(0.05, 8, 3.0)
    assert count == pytest.approx(80.0, abs=10.0)
    counts = {n: density_count(0.05, n, 3.0) for n in range(1, 13)}
    assert max(counts, key=counts.get) == 8
    report(7, f"cutoff prices converge monotonically to the full mixture; "
              f"surviving-tuple estimate peaks at {count:.0f} for n=8")


def test_criterion_8_determinism(tmp_path, tables_one_worker, monkeypatch):
    model = benchmark_model("vanilla", 0.6)
    cfg = SimulationConfig(10_000, 60, MATURITY, 808)
    monkeypatch.setenv("MVMIX_WORKERS", "1")
    a = sample_mvmd_terminal(model, MATURITY, 10_000, seed=808)
    c = sample_muvm_terminal(model, MATURITY, 10_000, seed=808)
    e = simulate_scmd(model, cfg)
    monkeypatch.setenv("MVMIX_WORKERS", "3")
    b = sample_mvmd_terminal(model, MATURITY, 10_000, seed=808)
    assert np.array_equal(a.values, b.values)
    d = sample_muvm_terminal(model, MATURITY, 10_000, seed=808)
    assert np.array_equal(c.values, d.values)
    f = simulate_scmd(model, cfg, workers=3)
    assert np.array_equal(e.values, f.values)

    one = tables_one_worker[0]
    reproduce_tables(tmp_path / "two", paths=PATHS)
    for i in [1, 2, 3, 4, 5, 6]:
        name = "table1_parameters.csv" if i == 1 else f"table{i}.csv"
        assert (one / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    report(8, "samplers and the table pipeline are byte-identical across "
              "runs and worker counts")
