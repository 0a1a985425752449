"""Sampling engines for the multi-asset mixture models.

Two ways to reach the maturity-T joint law:

* ``simulate_scmd`` — path-wise log-Euler on each asset's own univariate
  mixture dynamics, with instantaneously correlated Brownian shocks.  It
  is the one Euler driver; ``simulate_md_euler`` is its one-asset case.
* one single-step terminal sampler: pick a component per asset and path,
  then read the picked columns of the block's log-price matrix, which holds
  every (asset, component) column of the terminal law at once
  (``multivariate._component_columns``).  No time discretization is needed
  because the terminal law is known.  It has two ways to pick: by tuple,
  ``sample_mvmd_terminal`` picks a component tuple with its
  (cutoff-renormalized) product weight; ``sample_muvm_terminal``, the
  uncertain-volatility reading, lets each asset pick its own component
  independently and enumerates no tuple.  The two have the same one-time
  law, which the tests exercise.

``SCHEMES`` maps each scheme tag of the experiment configs to a pair
``(key, price)``: ``key(exp)`` is the experiment's draw key, and
``price(exp, specs)`` prices the given basket specs off the one draw of
``exp``'s key (for the mixture, in one kernel pass), one estimate per spec.
Samplers and pricers read their worker count from the MVMIX_WORKERS
environment variable; only ``simulate_scmd`` also takes ``workers=``.  All
samplers consume randomness through fixed-size path blocks keyed by
(seed, block), so results are byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import pricing
from .multivariate import MultiAssetModel, _column_log_prices, _component_columns, truncate
from .pricing import PriceEstimate
from .rng import path_blocks, run_blocks, substream
from .univariate import AssetMixture, _nu2, _nu2_schedule

__all__ = [
    "SCHEMES",
    "SimulationConfig",
    "TerminalSample",
    "simulate_scmd",
    "simulate_md_euler",
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
        # bools are not counts, and 2.5 steps would run 3
        if isinstance(self.paths, bool) or not (isinstance(self.paths, (int, np.integer)) and self.paths >= 1):
            raise ValueError(f"need a whole number of paths >= 1, got {self.paths!r}")
        if isinstance(self.steps, bool) or not (isinstance(self.steps, (int, np.integer)) and self.steps >= 1):
            raise ValueError(f"path-wise scheme needs a whole number of steps >= 1, got {self.steps!r}")
        if not 0 < self.maturity < np.inf:
            raise ValueError(f"maturity must be positive and finite, got {self.maturity}")


@dataclass(frozen=True, eq=False)
class TerminalSample:
    """Terminal prices, one row per path, one column per asset."""

    values: np.ndarray
    scheme: str
    seed: int


def simulate_scmd(
    model: MultiAssetModel, config: SimulationConfig, workers: int | None = None
) -> TerminalSample:
    """Path-wise log-Euler simulation of the simply correlated mixture dynamics.

    Each asset's log price moves with drift mu - nu^2/2 and its own mixture
    vol nu; each step's (m, n) standard normals are correlated through a
    factorization of R, so the per-step covariance is nu_i nu_j rho_ij.
    """
    n, dt = model.n, config.maturity / config.steps
    shock_factor = model.corr.factor() * np.sqrt(dt)  # shock_factor @ z.T: correlated, scaled shocks
    schedule = _nu2_schedule(model.assets, np.arange(config.steps) * dt)
    drift_dt = model.drifts[:, None] * dt
    out = np.empty((config.paths, n))

    def run_block(b: int, start: int, stop: int) -> None:
        gen, m = substream(config.seed, b), stop - start
        logs = np.zeros((n, m))  # log(S / S(0))
        bufs, shocks = np.empty((3, n, m)), np.empty((n, m))
        nu2, _, diffusion = bufs
        for coefs in schedule:
            _nu2(logs, coefs, bufs)
            np.sqrt(nu2, out=diffusion)
            diffusion *= np.matmul(shock_factor, gen.standard_normal((m, n)).T, out=shocks)
            nu2 *= -0.5 * dt
            nu2 += drift_dt
            nu2 += diffusion
            logs += nu2
        out[start:stop] = (model.spots[:, None] * np.exp(logs)).T

    run_blocks(run_block, path_blocks(config.paths), workers)
    return TerminalSample(out, "scmd-euler", config.seed)


def simulate_md_euler(
    asset: AssetMixture,
    maturity: float,
    steps: int,
    paths: int,
    seed: int,
) -> np.ndarray:
    """Terminal samples of one asset's mixture dynamics: the one-asset `simulate_scmd`."""
    config = SimulationConfig(paths, steps, maturity, seed)
    return simulate_scmd(MultiAssetModel((asset,), [[1.0]]), config).values[:, 0]


def _terminal_sample(model: MultiAssetModel, pick, maturity: float, paths: int, seed: int) -> np.ndarray:
    """Single-step terminal draw: pick a component per asset and path, then read its column.

    `pick(gen, m)` draws the block's selection uniforms and returns the
    (m, n) component picks; the normal draws come after it on the same
    substream and become the block's log-price matrix of every component
    column (`multivariate._component_columns`), from which each path takes
    its picked columns.
    """
    loadings, means, offsets = _component_columns(model, maturity)
    out = np.empty((paths, model.n))

    def run_block(b: int, start: int, stop: int) -> None:
        gen, m = substream(seed, b), stop - start
        picked = offsets + pick(gen, m)  # (m, n) columns
        z = gen.standard_normal((m, model.n * loadings.shape[1]))
        x = _column_log_prices(model, loadings, means, z, np.empty((len(means), m)))
        np.exp(np.take(x, picked * m + np.arange(m)[:, None]), out=out[start:stop])

    run_blocks(run_block, path_blocks(paths))
    return out


def sample_mvmd_terminal(
    model: MultiAssetModel,
    maturity: float,
    paths: int,
    seed: int,
    kappa: float = 0.0,
) -> TerminalSample:
    """Exact draw from the mixture dynamics' terminal law at maturity.

    Per path: pick a component tuple with its (cutoff-renormalized) product
    weight, then draw the tuple's correlated lognormal terminal value.
    """
    tuple_set = truncate(model, kappa)
    indices = tuple_set.index_array
    cum = np.cumsum(tuple_set.weight_array)
    cum[-1] = 1.0

    def pick(gen: np.random.Generator, m: int) -> np.ndarray:
        return np.take(indices, np.searchsorted(cum, gen.random(m), side="right"), axis=0)

    sample = _terminal_sample(model, pick, maturity, paths, seed)
    return TerminalSample(sample, "mvmd-terminal", seed)


def sample_muvm_terminal(
    model: MultiAssetModel,
    maturity: float,
    paths: int,
    seed: int,
) -> TerminalSample:
    """Terminal draw under the uncertain-volatility reading of the mixture.

    Each asset independently picks one of its volatility curves with its
    component probability; conditionally on the picks, the assets follow
    correlated constant-parameter lognormals to maturity.  Because pricing
    only needs the maturity law, the scenario is applied over the whole
    horizon and no early-time regularization enters.  No tuple is
    enumerated: each asset's pick selects its own column.
    """
    cums = [np.cumsum(asset.weights) for asset in model.assets]
    for c in cums:
        c[-1] = 1.0

    def pick(gen: np.random.Generator, m: int) -> np.ndarray:
        u = gen.random((m, model.n))
        return np.column_stack([np.searchsorted(c, u[:, i], side="right") for i, c in enumerate(cums)])

    sample = _terminal_sample(model, pick, maturity, paths, seed)
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
    if not (-np.inf < rate < np.inf and 0 <= maturity < np.inf):  # NaN fails too
        raise ValueError(f"need a finite rate and a finite maturity >= 0, got {rate} and {maturity}")
    m = values.shape[0]
    pay = np.asarray(payoff(values), dtype=float)
    if pay.shape != (m,):
        raise ValueError(f"payoff must return one value per path: shape ({m},), got {pay.shape}")
    disc = np.exp(-rate * maturity)
    se = 0.0 if m == 1 else float(disc * pay.std(ddof=1) / np.sqrt(m))
    return PriceEstimate(float(disc * pay.mean()), se, m, method)


def _sampled(draw):
    """Pricer of a sampling scheme: `draw(exp)` once, then `estimate` per spec."""

    def price(exp, specs) -> list[PriceEstimate]:
        sample = draw(exp)
        return [estimate(sample, spec.payoff, spec.rate, spec.maturity) for spec in specs]

    return price


# Scheme tag -> (key, price).  `key(exp)` is the draw key of an experiment
# (config.ExperimentConfig): all that the scheme's draw depends on and
# nothing of the basket, strike, direction or rate.  `price(exp, specs)`
# returns one PriceEstimate per BasketSpec of `specs`, in order, all priced
# off the one draw of `exp`'s key.  The mixture prices semi-analytically.
SCHEMES = {
    "scmd-euler": (
        lambda e: (e.model, e.maturity, e.paths, e.steps, e.seed),
        _sampled(lambda e: simulate_scmd(e.model, SimulationConfig(e.paths, e.steps, e.maturity, e.seed))),
    ),
    "mvmd-terminal": (
        lambda e: (e.model, e.kappa, e.paths, e.seed, e.maturity),
        lambda e, specs: pricing._mvmd_estimates(e.model, specs, e.kappa, e.paths, e.seed),
    ),
    "muvm-terminal": (
        lambda e: (e.model, e.maturity, e.paths, e.seed),
        _sampled(lambda e: sample_muvm_terminal(e.model, e.maturity, e.paths, e.seed)),
    ),
}
