"""Pinned random streams of every sampler.

Each sampler runs at a small size on a benchmark model and on a three-asset
model with a zero-weight component and a time-varying vol.  Its output is
hashed after formatting each value to 12 significant digits, so a change
to which draw feeds which path, or to the order of the arithmetic, shows
here, while last-ulp differences between math libraries do not.  Changing
a hash is a change to the randomness contract and must be declared.
"""

import hashlib

import numpy as np
import pytest

from mvmix import (
    SimulationConfig,
    VolCurve,
    sample_muvm_terminal,
    sample_mvmd_terminal,
    simulate_md_euler,
    simulate_scmd,
)
from mvmix.benchmarks import benchmark_model

from conftest import make_model

PATHS = 20_000  # two path blocks, the second one partial
STEPS = 30


def _models():
    spread = benchmark_model("spread", 0.6)
    three = make_model(
        (1.0, 0.9, 1.1),
        (0.05, 0.03, 0.04),
        ((0.6, 0.4), (0.5, 0.5, 0.0), (0.7, 0.3)),
        ((0.3, 0.2), (VolCurve((0.0, 0.5), (0.2, 0.35)), 0.25, 0.4), (0.15, 0.3)),
        0.4,
    )
    return {"spread": spread, "three": three}


def _samplers():
    out = {}
    for name, model in _models().items():
        out[f"mvmd-{name}"] = lambda m=model: sample_mvmd_terminal(m, 1.0, PATHS, 11).values
        out[f"mvmd-kappa-{name}"] = lambda m=model: sample_mvmd_terminal(m, 1.0, PATHS, 12, kappa=0.2).values
        out[f"muvm-{name}"] = lambda m=model: sample_muvm_terminal(m, 1.0, PATHS, 13).values
        out[f"scmd-{name}"] = lambda m=model: simulate_scmd(m, SimulationConfig(PATHS, STEPS, 1.0, 14)).values
        out[f"md-euler-{name}"] = lambda m=model: simulate_md_euler(m.assets[1], 1.0, STEPS, PATHS, 15)
    return out


SAMPLERS = _samplers()

# Computed before the terminal samplers and the Euler loops were merged.
EXPECTED = {
    "md-euler-spread": "072d55afddb7435c136598b57709699794a06b537d59b76a49bd6d53d216b312",
    "md-euler-three": "a72537b510086451ef09b704916ec8c57dce94bb75639138f1edb5de6e1924af",
    "muvm-spread": "d3e0aeeec5a35220e5ef8bbc81a6d81d6243812d57aba417d6f2e391b537e9ae",
    "muvm-three": "a3fa75e1c0e74a0c5fec935ee946927f08379b3506420afa548c567b97c1aab6",
    "mvmd-kappa-spread": "f25247b29fde50471077fe5fb907d18a2718dd8aa895e3dbb74eddf9d4c90a0d",
    "mvmd-kappa-three": "7a2c7a5cef29dd1616c3765919b66ed749ed6d4ea99ae8f52639e8ea98d41a04",
    "mvmd-spread": "a8e3dcda4a0bfda17e0c9e28aa2ded4f87d38334d75702a7f34bedf61f7c29ac",
    "mvmd-three": "bdcc5a55611a4f5543815f017d09a1e85bfb3827de2ce97426594dd010f4d218",
    "scmd-spread": "8d93d1933a5cfd113661a71f46f4501493c87030b5de2040534f5815776ea511",
    "scmd-three": "c2fe4bfe08ab1cea1801db567d94fa09218e7edcdc3fc9ee25e7b4983d08bcce",
}


def digest(values: np.ndarray) -> str:
    text = "\n".join(format(v, ".12g") for v in np.asarray(values).ravel())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_sampler_stream_is_pinned(name):
    assert digest(SAMPLERS[name]()) == EXPECTED[name]
