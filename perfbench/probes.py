"""Layer probes: direct calls of single public mvmix functions on generated inputs.

Each probe times one call (repeated `reps` times, median taken) and turns
the time into its per-layer metric, so every layer has a steady number
even where its traced spans are short.  Probes look functions up through
their modules, so a traced round of probes is recorded like a job.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

import workloads
from mvmix import benchmarks, dependence, montecarlo, multivariate, pricing, rng, univariate

EULER_STEPS = 30


@dataclass
class Probe:
    metric: str
    call: Callable[[], object]
    reps: int
    value: Callable[[float], float]  # seconds per call -> metric value
    check: Callable[[object], str | None] = lambda out: None


def _kept_check(n: int, expected: int):
    return lambda out: None if len(out) == expected else f"truncate n={n} kept {len(out)} tuples, expected {expected}"


def _finite_price(out) -> str | None:
    return None if np.isfinite(out.price) else f"non-finite price {out.price}"


def build(seed: int) -> list[Probe]:
    gen = np.random.default_rng([len(workloads.WORKLOADS), seed])
    model2 = benchmarks.benchmark_model("vanilla", benchmarks.TABLES[2]["rho"])
    asset = model2.assets[0]
    vanilla = benchmarks.benchmark_spec("vanilla", 1.0)
    wide = {n: workloads.wide_model(n, gen) for n in (4, 6, 8)}
    wide_spec = {
        (n, kind): pricing.BasketSpec((1.0 / n,) * n, kind, 1.0, benchmarks.MATURITY, 1, benchmarks.RATE)
        for n in (6, 8)
        for kind in ("arithmetic", "geometric")
    }
    kept = {n: len(multivariate.truncate(wide[n], workloads.WIDE_KAPPA)) for n in (6, 8)}
    s = int(gen.integers(1, 2**31 - 1))
    block_gen = rng.substream(s, 0)
    prices = np.exp(gen.normal(0.0, 0.3, size=rng.BLOCK_SIZE))
    u_inv = float(gen.uniform(0.05, 0.95))
    pairs = montecarlo.sample_mvmd_terminal(model2, 1.0, workloads.MVMD_PATHS, s).values
    a, b, r = gen.normal(0.0, 1.0), gen.normal(0.0, 1.0), gen.uniform(-0.9, 0.9)
    z3, r3 = workloads.MVN3_PANEL[1]
    corr3 = np.full((3, 3), r3)
    np.fill_diagonal(corr3, 1.0)
    z3 = np.asarray(z3) + gen.uniform(-0.02, 0.02, size=3)
    u2 = tuple(gen.uniform(0.2, 0.8, size=2))
    model3 = workloads.dependence_model3()
    sim = montecarlo.SimulationConfig(workloads.EULER_PATHS, EULER_STEPS, 1.0, s)
    euler_units = len(rng.path_blocks(workloads.EULER_PATHS)) * EULER_STEPS
    us, ms = 1e6, 1e3

    return [
        Probe("rng.draw_us", lambda: block_gen.standard_normal((rng.BLOCK_SIZE, 2)), 30, lambda t: t * us),
        Probe("univariate.nu_us", lambda: univariate.local_vol(asset, 0.5, prices), 30, lambda t: t * us),
        Probe("univariate.inverse_cdf_ms", lambda: univariate.inverse_cdf(asset, 1.0, u_inv), 5, lambda t: t * ms),
        Probe("montecarlo.euler_step_us", lambda: montecarlo.simulate_scmd(model2, sim), 3, lambda t: t / euler_units * us),
        Probe(
            "montecarlo.sample_mvmd_ms",
            lambda: montecarlo.sample_mvmd_terminal(model2, 1.0, workloads.MVMD_PATHS, s),
            3,
            lambda t: t * ms,
        ),
        Probe(
            "montecarlo.sample_muvm_ms",
            lambda: montecarlo.sample_muvm_terminal(model2, 1.0, workloads.MVMD_PATHS, s),
            3,
            lambda t: t * ms,
        ),
        Probe("multivariate.truncate_ms_n4", lambda: multivariate.truncate(wide[4], workloads.WIDE_KAPPA), 5, lambda t: t * ms),
        Probe(
            "multivariate.truncate_ms_n6",
            lambda: multivariate.truncate(wide[6], workloads.WIDE_KAPPA),
            5,
            lambda t: t * ms,
            _kept_check(6, 314),
        ),
        Probe(
            "multivariate.truncate_ms_n8",
            lambda: multivariate.truncate(wide[8], workloads.WIDE_KAPPA),
            3,
            lambda t: t * ms,
            _kept_check(8, 45),
        ),
        Probe(
            "pricing.tuple_paths_per_s_n2",
            lambda: pricing.price_mvmd_mc(model2, vanilla, 0.0, workloads.MVMD_PATHS, s),
            5,
            lambda t: 4 * workloads.MVMD_PATHS / t,
            _finite_price,
        ),
        *(
            Probe(
                f"pricing.tuple_paths_per_s_n{n}",
                lambda n=n: pricing.price_mvmd_mc(
                    wide[n], wide_spec[n, "arithmetic"], workloads.WIDE_KAPPA, workloads.WIDE_PATHS, s
                ),
                3,
                lambda t, n=n: kept[n] * workloads.WIDE_PATHS / t,
                _finite_price,
            )
            for n in (6, 8)
        ),
        Probe(
            "pricing.greeks_ms",
            lambda: pricing.greeks_mvmd(model2, vanilla, 0.01, 0.0, workloads.MVMD_PATHS, s),
            3,
            lambda t: t * ms,
        ),
        Probe(
            "pricing.geometric_ms_n6",
            lambda: pricing.price_geometric_mvmd(wide[6], wide_spec[6, "geometric"], workloads.WIDE_KAPPA),
            3,
            lambda t: t * ms,
            _finite_price,
        ),
        Probe("dependence.bvn_us", lambda: dependence.bivariate_normal_cdf(a, b, r), 50, lambda t: t * us),
        Probe("dependence.mvn3_ms", lambda: dependence.multivariate_normal_cdf(z3, corr3), 3, lambda t: t * ms),
        Probe(
            "dependence.tau_empirical_ms",
            lambda: dependence.kendall_tau_empirical(pairs[:, 0], pairs[:, 1]),
            2,
            lambda t: t * ms,
        ),
        Probe("dependence.copula_ms_n2", lambda: dependence.copula_value(model2, 1.0, u2), 5, lambda t: t * ms),
        Probe(
            "dependence.copula_ms_n3", lambda: dependence.copula_value(model3, 1.0, (0.5, 0.5, 0.5)), 2, lambda t: t * ms
        ),
    ]


def measure(probes: list[Probe]) -> tuple[dict, dict]:
    """Untraced timings: metric -> value from the median call time, and metric -> problem or None."""
    values, problems = {}, {}
    for probe in probes:
        times = []
        for _ in range(probe.reps):
            start = perf_counter()
            out = probe.call()
            times.append(perf_counter() - start)
        values[probe.metric] = probe.value(statistics.median(times))
        problems[probe.metric] = probe.check(out)
    return values, problems
