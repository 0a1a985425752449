# Pricing European baskets three ways: single-step semi-analytic mixture
# combination, path-wise correlated simulation, and exact closed forms.

import time

import numpy as np

from mvmix import (
    BasketSpec,
    SimulationConfig,
    estimate,
    greeks_mvmd,
    margrabe,
    price_geometric_mvmd,
    price_mvmd_mc,
    simulate_scmd,
    truncate,
)
from mvmix.benchmarks import benchmark_model, benchmark_spec

rate, maturity = 0.05, 1.0

print("vanilla basket (w = [0.5, 0.5], rho = 0.6):")
model = benchmark_model("vanilla", 0.6)
t0 = time.perf_counter()
for strike in (0.7, 1.0, 1.3):
    est = price_mvmd_mc(model, benchmark_spec("vanilla", strike), paths=100_000, seed=1)
    print(f"  K={strike}: semi-analytic {est.price:.4f} (se {est.std_error:.4f})")
semi_t = time.perf_counter() - t0

t0 = time.perf_counter()
sample = simulate_scmd(model, SimulationConfig(100_000, 360, maturity, 1))
for strike in (0.7, 1.0, 1.3):
    est = estimate(sample, benchmark_spec("vanilla", strike).payoff, rate, maturity)
    print(f"  K={strike}: path-wise      {est.price:.4f} (se {est.std_error:.4f})")
path_t = time.perf_counter() - t0
print(f"  single-step pricing took {semi_t:.2f}s vs {path_t:.2f}s for 360-step paths")

print("\nspread option (w = [-1, 1]) and its zero-strike closed form:")
spread = benchmark_model("spread", 0.6)
for strike in (0.0, 1.0):
    est = price_mvmd_mc(spread, BasketSpec((-1.0, 1.0), "arithmetic", strike, maturity, 1, rate),
                        paths=100_000, seed=2)
    print(f"  K={strike}: {est.price:.4f} (se {est.std_error:.4f})")
full = truncate(spread, 0.0)
exch = sum(
    w * margrabe(0.7, 1.7,
                 spread.assets[0].components[k0].vol.value(0.0),
                 spread.assets[1].components[k1].vol.value(0.0),
                 0.6, maturity, 1)
    for (k0, k1), w in zip(full.index_array, full.weight_array)
)
print(f"  K=0 closed form (weighted exchange options): {exch:.4f}")

print("\ngeometric average basket: exact for every strike (zero error bar):")
geo = benchmark_model("geometric", 0.6)
for strike in (0.7, 1.0, 1.3):
    exact = price_geometric_mvmd(geo, benchmark_spec("geometric", strike))
    print(f"  K={strike}: {exact.price:.4f}")

print("\nGreeks by central differences with shared draws (vanilla, K=1):")
delta, gamma = greeks_mvmd(model, benchmark_spec("vanilla", 1.0), bump=1e-3,
                           paths=100_000, seed=3)
print(f"  delta = {np.round(delta, 4)}")
print(f"  gamma = {np.round(gamma, 3).tolist()}")
