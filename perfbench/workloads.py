"""The benchmark's four workloads: inputs from a seed, job lists and output checks.

A workload is built into a work directory: its inputs are drawn from the
seed and every config-driven job gets a JSON config file there.  A job's
`run` calls one public mvmix entry point and returns what it produced;
`check` returns the list of problems with that output (empty when it is
correct) and `digest` the bytes that must repeat exactly on every
execution, whatever the worker count.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import multivariate_normal

from mvmix import benchmarks, cli, config, dependence, montecarlo, multivariate, pricing, rng
from mvmix.multivariate import CorrelationMatrix, MultiAssetModel
from mvmix.univariate import AssetMixture

# A priced cell fails when it sits more than Z_BOUND combined standard errors
# from its reference.  Three bundled reference cells are themselves 2.9-3.4
# of their own SEs from the exact price (see mvmix.benchmarks), and the
# driver's runs make about 10^3 cell comparisons per workload, so the bound
# keeps the false-alarm rate per cell near 1e-4 rather than at 3 sigma.
Z_BOUND = 5.0

EULER_PATHS = 2 * rng.BLOCK_SIZE  # two blocks, so two workers have work to share
MVMD_PATHS = 100_000
WIDE_PATHS = 20_000
WIDE_KAPPA = 1e-3
WIDE_WEIGHTS = (0.5, 0.3, 0.2)
DEP_PAIRS = 100_000
COPULA_GRID_N2 = 4
COPULA_GRID_N3 = 1
BVN_CALLS = 200
MVN3_CALLS = 12
CDF_TOL = 1e-9  # scipy's bivariate routine is exact to rounding; asked for 1e-12 here

# (product, rho, table) for the seven scmd-euler experiments of tables 2-6.
EULER_EXPERIMENTS = (
    ("vanilla", 0.6, 2),
    ("spread", 0.6, 2),
    ("vanilla", 1.0, 3),
    ("spread", 1.0, 3),
    ("geometric", 0.6, 4),
    ("geometric", -0.6, 5),
    ("geometric", 1.0, 6),
)

WORKLOADS = ("tables-euler", "tables-mvmd", "wide-basket", "dependence")


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], bytes] = lambda out: repr(out).encode()


@dataclass
class Workload:
    name: str
    jobs: list
    workdir: Path


# -- helpers ---------------------------------------------------------------


def _cli_job(name: str, argv: list, out_path: Path, check_rows) -> Job:
    """A job that runs `mvmix <argv> --out-path out_path` and checks its CSV rows."""

    def run():
        code = cli.main(argv + ["--out-path", str(out_path)])
        return code, out_path.read_text() if code == 0 else ""

    def check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return ["no output rows"]
        return check_rows(rows)

    return Job(name, run, check, lambda out: _without_column(out[1], "wall_time_s").encode())


def _without_column(text: str, column: str) -> str:
    """CSV text with one column dropped; the rest must match byte for byte."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or column not in rows[0]:
        return text
    drop = rows[0].index(column)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([r[:drop] + r[drop + 1 :] for r in rows])
    return buf.getvalue()


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def within(price: float, se: float, target: float, target_se: float = 0.0) -> bool:
    """|price - target| within Z_BOUND combined standard errors."""
    return _finite(price, se) and abs(price - target) <= Z_BOUND * math.hypot(se, target_se)


def _check_cells(rows, requested_paths: int, oracle=None) -> list:
    """Check priced CSV cells: finite, `paths` as requested, near the oracle.

    oracle(row) -> (target price, target SE, label); None checks only the
    first two.
    """
    problems = []
    for row in rows:
        where = f"{row['product']} {row['scheme']} K={row['strike']}"
        price, se = float(row["price"]), float(row["std_error"])
        if int(row["paths"]) != requested_paths:
            problems.append(f"{where}: paths {row['paths']} != {requested_paths}")
        if oracle is None:
            if not _finite(price, se):
                problems.append(f"{where}: price {price} se {se} not finite")
            continue
        target, target_se, label = oracle(row)
        if not within(price, se, target, target_se):
            problems.append(f"{where}: price {price} se {se} vs {label} {target} (se {target_se})")
    return problems


def _reference(table: int):
    def oracle(row):
        key = (table, row["product"], row["scheme"], float(row["strike"]))
        ref, ref_se = benchmarks.REFERENCE[key]
        return ref, ref_se, "reference"

    return oracle


def _geometric_oracle(model: MultiAssetModel, spec_for, kappa: float = 0.0):
    """Closed-form geometric price per strike, from price_geometric_mvmd."""
    cache: dict = {}

    def oracle(row):
        strike = float(row["strike"])
        if strike not in cache:
            cache[strike] = pricing.price_geometric_mvmd(model, spec_for(strike), kappa).price
        return cache[strike], 0.0, "closed form"

    return oracle


def _seeds(name: str, seed: int, count: int) -> list[int]:
    gen = np.random.default_rng([WORKLOADS.index(name), seed])
    return [int(s) for s in gen.integers(1, 2**31 - 1, size=count)]


def _price_result(est) -> tuple:
    return (est.price, est.std_error, est.samples)


def _estimate_job(name, sampler, model, spec, paths) -> Job:
    """Draw a terminal sample, price the geometric spec off it, check against the closed form."""
    exact = functools.cache(lambda: pricing.price_geometric_mvmd(model, spec).price)

    def run():
        sample = sampler()
        return _price_result(montecarlo.estimate(sample, spec.payoff, spec.rate, spec.maturity))

    def check(out):
        price, se, samples = out
        problems = [] if samples == paths else [f"samples {samples} != {paths}"]
        if not within(price, se, exact()):
            problems.append(f"price {price} se {se} vs closed form {exact()}")
        return problems

    return Job(name, run, check)


def _expect_error(fn):
    """The message of the ValueError fn raises, or None if it returns."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


# -- workloads -------------------------------------------------------------


def tables_euler(seed: int, workdir: Path) -> Workload:
    """The seven path-wise Euler experiments of tables 2-6, run through `mvmix price`."""
    jobs = []
    for (product, rho, table), job_seed in zip(EULER_EXPERIMENTS, _seeds("tables-euler", seed, 7)):
        cfg = benchmarks.benchmark_config(product, rho, job_seed, EULER_PATHS, schemes=("scmd-euler",))
        path = workdir / f"euler_{product}_{rho}.json"
        config.dump_config([cfg], path)
        check = (lambda rows, t=table: _check_cells(rows, EULER_PATHS, _reference(t)))
        jobs.append(
            _cli_job(f"euler-{product}-{rho}", ["price", "--config", str(path)], path.with_suffix(".csv"), check)
        )
    return Workload("tables-euler", jobs, workdir)


def tables_mvmd(seed: int, workdir: Path) -> Workload:
    """The five tables' mvmd-terminal experiments plus the n=2 module calls."""
    seeds = iter(_seeds("tables-mvmd", seed, 9))
    jobs = []
    for table, info in benchmarks.TABLES.items():
        table_seed = next(seeds)
        cfgs = [
            benchmarks.benchmark_config(p, info["rho"], table_seed, MVMD_PATHS, schemes=("mvmd-terminal",))
            for p in info["products"]
        ]
        path = workdir / f"mvmd_table{table}.json"
        config.dump_config(cfgs, path)
        arithmetic = _reference(table)
        geometric = _geometric_oracle(cfgs[0].model, cfgs[0].spec)

        def check(rows, arithmetic=arithmetic, geometric=geometric):
            geo = [r for r in rows if r["product"] == "geometric"]
            ari = [r for r in rows if r["product"] != "geometric"]
            return _check_cells(ari, MVMD_PATHS, arithmetic) + _check_cells(geo, MVMD_PATHS, geometric)

        jobs.append(_cli_job(f"mvmd-table{table}", ["price", "--config", str(path)], path.with_suffix(".csv"), check))

    geo_model = benchmarks.benchmark_model("geometric", benchmarks.TABLES[4]["rho"])
    geo_spec = benchmarks.benchmark_spec("geometric", 1.0)
    ref, ref_se = benchmarks.REFERENCE[(4, "geometric", "mvmd", 1.0)]
    jobs.append(
        Job(
            "geometric-closed-form",
            lambda: _price_result(pricing.price_geometric_mvmd(geo_model, geo_spec)),
            lambda out: [] if within(out[0], 0.0, ref, ref_se) else [f"price {out[0]} vs reference {ref}"],
        )
    )

    van_model = benchmarks.benchmark_model("vanilla", benchmarks.TABLES[2]["rho"])
    van_spec = benchmarks.benchmark_spec("vanilla", 1.0)
    greeks_seed = next(seeds)

    def greeks():
        delta, gamma = pricing.greeks_mvmd(van_model, van_spec, 0.01, 0.0, MVMD_PATHS, greeks_seed)
        return tuple(delta.tolist()), tuple(gamma.ravel().tolist())

    def check_greeks(out):
        delta, gamma = np.array(out[0]), np.array(out[1]).reshape(2, 2)
        weights = np.array(van_spec.weights)
        problems = [] if _finite(*delta, *gamma.ravel()) else ["non-finite Greeks"]
        # Each path's payoff is increasing and convex in the spots with slope
        # at most w_i S_i(T)/S_i(0), whose discounted mean is w_i.
        if np.any(delta < 0) or np.any(delta > 1.1 * weights):
            problems.append(f"delta {delta} outside [0, 1.1 w]")
        if np.any(np.diag(gamma) < -1e-9):
            problems.append(f"negative gamma diagonal {np.diag(gamma)}")
        return problems

    jobs.append(Job("greeks-vanilla", greeks, check_greeks))
    mvmd_seed, muvm_seed = next(seeds), next(seeds)
    jobs.append(
        _estimate_job(
            "sample-mvmd-estimate",
            lambda: montecarlo.sample_mvmd_terminal(geo_model, geo_spec.maturity, MVMD_PATHS, mvmd_seed),
            geo_model,
            geo_spec,
            MVMD_PATHS,
        )
    )
    jobs.append(
        _estimate_job(
            "sample-muvm-estimate",
            lambda: montecarlo.sample_muvm_terminal(geo_model, geo_spec.maturity, MVMD_PATHS, muvm_seed),
            geo_model,
            geo_spec,
            MVMD_PATHS,
        )
    )
    return Workload("tables-mvmd", jobs, workdir)


def wide_model(n: int, gen: np.random.Generator) -> MultiAssetModel:
    """n assets with component weights WIDE_WEIGHTS; vols and equicorrelation from gen."""
    assets = tuple(
        AssetMixture.from_arrays(1.0, benchmarks.RATE, WIDE_WEIGHTS, tuple(gen.uniform(0.1, 0.5, size=3)))
        for _ in range(n)
    )
    rho = float(gen.uniform(0.1, 0.6))
    corr = np.full((n, n), rho)
    np.fill_diagonal(corr, 1.0)
    return MultiAssetModel(assets, CorrelationMatrix(corr))


def _config_doc(name: str, model: MultiAssetModel, kind: str, basket_weights, paths: int, seed: int, kappa: float) -> dict:
    """Config document pricing a 1.0-strike call on a model with constant component vols."""
    return {
        "name": name,
        "model": {
            "assets": [
                {
                    "spot": a.spot,
                    "drift": a.drift,
                    "weights": a.weights.tolist(),
                    "vols": [c.vol.values[0] for c in a.components],
                }
                for a in model.assets
            ],
            "correlation": model.corr.values.tolist(),
        },
        "product": {
            "kind": kind,
            "weights": list(basket_weights),
            "strikes": [1.0],
            "maturity": benchmarks.MATURITY,
            "direction": "call",
            "rate": benchmarks.RATE,
        },
        "engine": {"schemes": ["mvmd-terminal"], "paths": paths, "seed": seed, "kappa": kappa},
    }


def wide_basket(seed: int, workdir: Path) -> Workload:
    """Many tuples, few paths: n=6 and n=8 baskets, plus the n=10 cutoff failure."""
    gen = np.random.default_rng([WORKLOADS.index("wide-basket"), seed])
    jobs = []
    for n in (6, 8):
        model = wide_model(n, gen)
        price_seed = int(gen.integers(1, 2**31 - 1))
        cfgs = config.load_config(
            [
                _config_doc(f"{kind}-n{n}", model, kind, [1.0 / n] * n, WIDE_PATHS, price_seed, WIDE_KAPPA)
                for kind in ("arithmetic", "geometric")
            ]
        )
        path = workdir / f"wide_n{n}.json"
        config.dump_config(cfgs, path)
        geo_spec = cfgs[1].spec(1.0)
        exact = functools.cache(lambda m=model, s=geo_spec: pricing.price_geometric_mvmd(m, s, WIDE_KAPPA).price)

        def check(rows, exact=exact, n=n):
            by_kind = {r["product"].split("-")[0]: r for r in rows}
            oracle = lambda row: (exact(), 0.0, "closed form")  # noqa: E731
            problems = _check_cells([by_kind["geometric"]], WIDE_PATHS, oracle)
            problems += _check_cells([by_kind["arithmetic"]], WIDE_PATHS)
            arith, geo = float(by_kind["arithmetic"]["price"]), float(by_kind["geometric"]["price"])
            # Same draws and tuples: the arithmetic mean dominates the geometric path by path.
            if not arith >= geo - 1e-12:
                problems.append(f"n={n}: arithmetic call {arith} below geometric call {geo}")
            return problems

        jobs.append(_cli_job(f"wide-n{n}", ["price", "--config", str(path)], path.with_suffix(".csv"), check))

        def closed_form(model=model, spec=geo_spec):
            return _price_result(pricing.price_geometric_mvmd(model, spec, WIDE_KAPPA))

        jobs.append(
            Job(
                f"geometric-closed-form-n{n}",
                closed_form,
                lambda out: [] if _finite(out[0]) and 0.0 < out[0] < 1.0 else [f"price {out[0]} outside (0, 1)"],
            )
        )

    model10 = wide_model(10, gen)
    jobs.append(
        Job(
            "truncate-n10",
            lambda: _expect_error(lambda: multivariate.truncate(model10, WIDE_KAPPA)),
            lambda out: [] if out and "removed all components" in out else [f"expected 'removed all components', got {out!r}"],
        )
    )
    return Workload("wide-basket", jobs, workdir)


def dependence_model3() -> MultiAssetModel:
    """The fixed 3-asset, 2-component model of the n=3 copula grid."""
    assets = (
        AssetMixture.from_arrays(1.0, 0.05, (0.6, 0.4), (0.3, 0.2)),
        AssetMixture.from_arrays(1.0, 0.05, (0.7, 0.3), (0.25, 0.35)),
        AssetMixture.from_arrays(1.0, 0.05, (0.5, 0.5), (0.2, 0.4)),
    )
    return MultiAssetModel(assets, CorrelationMatrix([[1.0, 0.6, 0.4], [0.6, 1.0, 0.5], [0.4, 0.5, 1.0]]))


def _empirical_copula(sample: np.ndarray, u) -> float:
    ranks = np.argsort(np.argsort(sample, axis=0), axis=0) + 1
    return float(np.mean(np.all(ranks / sample.shape[0] <= np.asarray(u)[None, :], axis=1)))


def _copula_check(sample: np.ndarray):
    """Copula values within the Frechet bounds and near the sample's empirical copula."""
    m = sample.shape[0]
    tol = Z_BOUND * 0.5 / math.sqrt(m) + 1.0 / m

    def check(rows):
        problems = []
        for row in rows:
            u = [float(row[k]) for k in row if k.startswith("u")]
            c = float(row["copula"])
            lower = max(sum(u) - (len(u) - 1), 0.0)
            if not (_finite(c) and lower - 1e-12 <= c <= min(u) + 1e-12):
                problems.append(f"C({u}) = {c} outside the Frechet bounds")
            elif abs(c - _empirical_copula(sample, u)) > tol:
                problems.append(f"C({u}) = {c} vs empirical {_empirical_copula(sample, u)}")
        return problems

    return check


# z-points of the n=3 normal-CDF batch: a fixed panel that spans the QMC
# rule's convergence levels (its cost per call ranges over 10x), jittered by
# the seed, so the batch's cost does not swing with the seed.
MVN3_PANEL = (
    ((0.0, 0.0, 0.0), 0.2),
    ((-1.0, 0.5, 1.0), 0.5),
    ((0.3, -0.4, 1.5), 0.7),
    ((-2.0, -1.0, 0.0), 0.3),
)


def dependence_workload(seed: int, workdir: Path) -> Workload:
    """Kendall tau, copula grids and normal CDFs: the dependence analytics."""
    gen = np.random.default_rng([WORKLOADS.index("dependence"), seed])
    t = benchmarks.MATURITY
    model2 = benchmarks.benchmark_model("vanilla", benchmarks.TABLES[2]["rho"])
    model3 = dependence_model3()
    s2, s3 = (int(s) for s in gen.integers(1, 2**31 - 1, size=2))
    sample2 = montecarlo.sample_mvmd_terminal(model2, t, DEP_PAIRS, s2).values
    sample3 = montecarlo.sample_mvmd_terminal(model3, t, DEP_PAIRS, s3).values

    tau_exact = functools.cache(lambda: dependence.kendall_tau_mvmd(model2, t))
    tau_tol = lambda: Z_BOUND * math.sqrt(2.0 * (1.0 - tau_exact() ** 2) / DEP_PAIRS)  # noqa: E731
    jobs = [
        Job(
            "tau-closed-form",
            lambda: dependence.kendall_tau_mvmd(model2, t),
            lambda out: [] if _finite(out) and -1.0 < out < 1.0 else [f"tau {out} outside (-1, 1)"],
        ),
        Job(
            "tau-empirical",
            lambda: dependence.kendall_tau_empirical(sample2[:, 0], sample2[:, 1]),
            lambda out: [] if abs(out - tau_exact()) <= tau_tol() else [f"tau {out} vs closed form {tau_exact()}"],
        ),
    ]

    cfg2 = benchmarks.benchmark_config("vanilla", benchmarks.TABLES[2]["rho"], s2, DEP_PAIRS, schemes=("mvmd-terminal",))
    (cfg3,) = config.load_config(_config_doc("three-asset", model3, "arithmetic", [1.0] * 3, DEP_PAIRS, s3, 0.0))
    for name, cfg, grid, sample in (
        ("copula-n2", cfg2, COPULA_GRID_N2, sample2),
        ("copula-n3", cfg3, COPULA_GRID_N3, sample3),
    ):
        path = workdir / f"{name}.json"
        config.dump_config([cfg], path)
        argv = ["copula", "--config", str(path), "--grid", str(grid)]
        jobs.append(_cli_job(name, argv, path.with_suffix(".csv"), _copula_check(sample)))

    bvn_points = np.column_stack(
        [gen.normal(0.0, 1.5, size=(BVN_CALLS, 2)), gen.uniform(-0.95, 0.95, size=BVN_CALLS)]
    )
    bvn_exact = functools.cache(
        lambda: [
            multivariate_normal.cdf([a, b], cov=[[1.0, r], [r, 1.0]], abseps=1e-12, releps=1e-12)
            for a, b, r in bvn_points
        ]
    )

    def check_bvn(out):
        bad = [i for i, (v, e) in enumerate(zip(out, bvn_exact())) if not abs(v - e) <= CDF_TOL]
        return [f"{len(bad)} bivariate CDF values off scipy by > {CDF_TOL}, first at {bvn_points[bad[0]]}"] if bad else []

    jobs.append(
        Job(
            "bvn-batch",
            lambda: [dependence.bivariate_normal_cdf(a, b, r) for a, b, r in bvn_points],
            check_bvn,
        )
    )

    mvn3_inputs = []
    for i in range(MVN3_CALLS):
        z, r = MVN3_PANEL[i % len(MVN3_PANEL)]
        corr = np.full((3, 3), r)
        np.fill_diagonal(corr, 1.0)
        mvn3_inputs.append((np.asarray(z) + gen.uniform(-0.02, 0.02, size=3), corr))
    mvn3_exact = functools.cache(
        lambda: [multivariate_normal.cdf(z, cov=c, abseps=1e-10, releps=1e-10) for z, c in mvn3_inputs]
    )

    def check_mvn3(out):
        problems = []
        for (value, err), exact, (z, _) in zip(out, mvn3_exact(), mvn3_inputs):
            # the QMC rule targets a 3-sigma error of 1e-6 and reports its estimate
            if not abs(value - exact) <= 2.0 * max(err, 1e-6):
                problems.append(f"P(Z <= {z}) = {value} (err {err}) vs scipy {exact}")
        return problems

    jobs.append(
        Job(
            "mvn3-batch",
            lambda: [dependence.multivariate_normal_cdf(z, c, full_output=True) for z, c in mvn3_inputs],
            check_mvn3,
        )
    )
    return Workload("dependence", jobs, workdir)


BUILDERS = {
    "tables-euler": tables_euler,
    "tables-mvmd": tables_mvmd,
    "wide-basket": wide_basket,
    "dependence": dependence_workload,
}
