"""Sampling engines for the multi-asset mixture models.

Two ways to reach the maturity-T joint law:

* ``simulate_scmd`` — path-wise log-Euler on each asset's own univariate
  mixture dynamics, with instantaneously correlated Brownian shocks.
* one single-step terminal sampler: pick a component tuple per path, then
  draw that tuple's multivariate lognormal.  No time discretization is
  needed because the terminal law is known.  It has two ways to pick the
  tuple: ``sample_mvmd_terminal`` picks it with its (cutoff-renormalized)
  product weight; ``sample_muvm_terminal``, the uncertain-volatility
  reading, lets each asset pick its own component independently.  The two
  have the same one-time law, which the tests exercise.

``SCHEMES`` maps each scheme tag of the experiment configs to the way that
scheme prices a basket.  All samplers consume randomness through
fixed-size path blocks keyed by (seed, block), so results are
byte-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from . import pricing
from .multivariate import MultiAssetModel, TupleSet, psd_factor, truncate
from .pricing import PriceEstimate
from .rng import path_blocks, run_blocks, substream
from .univariate import _log_euler

__all__ = [
    "SCHEMES",
    "SimulationConfig",
    "TerminalSample",
    "simulate_scmd",
    "sample_mvmd_terminal",
    "sample_muvm_terminal",
    "estimate",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Size, horizon and seed of a path-wise simulation."""

    paths: int
    steps: int
    maturity: float
    seed: int

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("need at least one path")
        if self.steps < 1:
            raise ValueError("path-wise scheme needs steps >= 1")
        if not self.maturity > 0:
            raise ValueError("maturity must be positive")


@dataclass(frozen=True, eq=False)
class TerminalSample:
    """Terminal prices, one row per path, one column per asset."""

    values: np.ndarray
    scheme: str
    seed: int

    @property
    def paths(self) -> int:
        return self.values.shape[0]


def simulate_scmd(
    model: MultiAssetModel, config: SimulationConfig, workers: int | None = None
) -> TerminalSample:
    """Path-wise Euler simulation of the simply correlated mixture dynamics.

    Log-Euler on each asset with its own state-dependent mixture vol; the
    Brownian shocks are correlated through a factorization of R, so the
    per-step covariance is nu_i nu_j rho_ij.
    """
    n = model.n
    corr_factor = model.corr.factor().T  # z @ corr_factor gives correlated shocks
    log_spots = np.log(model.spots)
    out = np.empty((config.paths, n))

    def run_block(b: int, start: int, stop: int) -> None:
        gen = substream(config.seed, b)
        logs = np.tile(log_spots, (stop - start, 1))
        out[start:stop] = _log_euler(
            model.assets, logs, model.drifts, config.maturity, config.steps,
            lambda step: gen.standard_normal((stop - start, n)) @ corr_factor,
        )

    run_blocks(run_block, path_blocks(config.paths), workers)
    return TerminalSample(out, "scmd-euler", config.seed)


def _terminal_sample(
    tuple_set: TupleSet, pick, maturity: float, paths: int, seed: int, workers: int | None
) -> np.ndarray:
    """Single-step terminal draw: pick a tuple per path, then its lognormal.

    `pick(gen, m)` draws the block's selection uniforms and returns m indices
    into `tuple_set`; the normal draws come after it on the same substream.
    """
    means = [tp.log_means(maturity) for tp, _ in tuple_set]
    factors = [psd_factor(tp.integrated_covariance(maturity)).T for tp, _ in tuple_set]
    out = np.empty((paths, len(means[0])))

    def run_block(b: int, start: int, stop: int) -> None:
        gen = substream(seed, b)
        sel = pick(gen, stop - start)
        z = gen.standard_normal((stop - start, out.shape[1]))
        block = out[start:stop]
        for k in np.flatnonzero(np.bincount(sel, minlength=len(tuple_set))):
            rows = sel == k
            block[rows] = np.exp(means[k] + z[rows] @ factors[k])

    run_blocks(run_block, path_blocks(paths), workers)
    return out


def sample_mvmd_terminal(
    model: MultiAssetModel,
    maturity: float,
    paths: int,
    seed: int,
    kappa: float = 0.0,
    workers: int | None = None,
) -> TerminalSample:
    """Exact draw from the mixture dynamics' terminal law at maturity.

    Per path: pick a component tuple with its (cutoff-renormalized) product
    weight, then draw the tuple's correlated lognormal terminal value.
    """
    tuple_set = truncate(model, kappa)
    cum = np.cumsum(tuple_set.weight_array)
    cum[-1] = 1.0

    def pick(gen: np.random.Generator, m: int) -> np.ndarray:
        return np.searchsorted(cum, gen.random(m), side="right")

    sample = _terminal_sample(tuple_set, pick, maturity, paths, seed, workers)
    return TerminalSample(sample, "mvmd-terminal", seed)


def sample_muvm_terminal(
    model: MultiAssetModel,
    maturity: float,
    paths: int,
    seed: int,
    workers: int | None = None,
) -> TerminalSample:
    """Terminal draw under the uncertain-volatility reading of the mixture.

    Each asset independently picks one of its volatility curves with its
    component probability; conditionally on the picks, the assets follow
    correlated constant-parameter lognormals to maturity.  Because pricing
    only needs the maturity law, the scenario is applied over the whole
    horizon and no early-time regularization enters.
    """
    cums = [np.cumsum(asset.weights) for asset in model.assets]
    for c in cums:
        c[-1] = 1.0
    # truncate(model, 0) lists the tuples in itertools.product order, last
    # asset fastest, so the per-asset picks are the digits of a mixed-radix index.
    counts = model.component_counts()
    radix = np.array([math.prod(counts[i + 1 :]) for i in range(model.n)])

    def pick(gen: np.random.Generator, m: int) -> np.ndarray:
        u = gen.random((m, model.n))
        picks = [np.searchsorted(c, u[:, i], side="right") for i, c in enumerate(cums)]
        return np.column_stack(picks) @ radix

    sample = _terminal_sample(truncate(model, 0.0), pick, maturity, paths, seed, workers)
    return TerminalSample(sample, "muvm-terminal", seed)


def estimate(
    sample: TerminalSample | np.ndarray,
    payoff: Callable[[np.ndarray], np.ndarray],
    rate: float,
    maturity: float,
) -> PriceEstimate:
    """Discounted sample mean of payoff(terminal prices) with its standard error."""
    if isinstance(sample, TerminalSample):
        values, method = sample.values, sample.scheme
    else:
        values, method = np.asarray(sample, dtype=float), "samples"
    if values.size == 0:
        raise ValueError("empty sample")
    pay = np.asarray(payoff(values), dtype=float)
    m = pay.shape[0]
    disc = np.exp(-rate * maturity)
    se = 0.0 if m == 1 else float(disc * pay.std(ddof=1) / np.sqrt(m))
    return PriceEstimate(float(disc * pay.mean()), se, m, method)


def _sampled(draw):
    """Route of a sampling scheme: every spec prices off one sample, drawn on first use."""

    def route(exp, workers):
        sample = cache(lambda: draw(exp, workers))
        return lambda spec: estimate(sample(), spec.payoff, spec.rate, spec.maturity)

    return route


# Scheme tag -> route(experiment, workers), which returns the function that
# prices a BasketSpec of that experiment (a config.ExperimentConfig).  The
# mixture prices semi-analytically, per-tuple single-step Monte Carlo.
SCHEMES = {
    "scmd-euler": _sampled(
        lambda e, w: simulate_scmd(e.model, SimulationConfig(e.paths, e.steps, e.maturity, e.seed), w)
    ),
    "mvmd-terminal": lambda e, w: (
        lambda spec: pricing.price_mvmd_mc(e.model, spec, e.kappa, e.paths, e.seed, w)
    ),
    "muvm-terminal": _sampled(
        lambda e, w: sample_muvm_terminal(e.model, e.maturity, e.paths, e.seed, w)
    ),
}
