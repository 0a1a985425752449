"""Pinned random streams of every sampler and Monte Carlo pricer.

Each sampler runs at a small size on a benchmark model and on a three-asset
model with a zero-weight component and a time-varying vol; the one-asset
Euler path also runs on a one-component asset.  Its output is hashed after
formatting each value to 12 significant digits, so a change to which draw
feeds which path, or to the order of the arithmetic, shows here, while
last-ulp differences between math libraries do not.  Changing a hash is a
change to the randomness contract and must be declared.
"""

import hashlib
import warnings

import numpy as np
import pytest

from mvmix import (
    AssetMixture,
    BasketSpec,
    SimulationConfig,
    VolCurve,
    sample_muvm_terminal,
    sample_mvmd_terminal,
    simulate_md_euler,
    simulate_scmd,
)
from mvmix.benchmarks import RATE, benchmark_model, benchmark_spec
from mvmix.pricing import greeks_mvmd, price_mvmd_mc
from mvmix.rng import BLOCK_SIZE, substream

from conftest import make_model, one_tuple_price

PATHS = 20_000  # two path blocks, the second one partial
THREE_BLOCKS = 2 * BLOCK_SIZE + 1  # the last block holds one path, so 3 workers start two helpers
STEPS = 30
WIDE_KAPPA = 1e-3  # keeps 314 of the 729 tuples of the n=6 wide basket


def _wide_model(n: int = 6, seed: int = 3):
    """The benchmark's wide basket: weights (0.5, 0.3, 0.2) per asset, vols and equicorrelation drawn from seed."""
    gen = np.random.default_rng(seed)
    vols = [tuple(gen.uniform(0.1, 0.5, size=3)) for _ in range(n)]
    return make_model((1.0,) * n, (RATE,) * n, ((0.5, 0.3, 0.2),) * n, vols, float(gen.uniform(0.1, 0.6)))


def _wide_spec(kind: str, n: int = 6) -> BasketSpec:
    return BasketSpec((1.0 / n,) * n, kind, 1.0, 1.0, rate=RATE)


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


# Arithmetic basket and one component tuple priced on each model.
SPECS = {
    "spread": (benchmark_spec("spread", 1.0), (1, 0)),
    "three": (BasketSpec((0.5, 0.3, 0.2), "arithmetic", 1.0, 1.0, rate=0.05), (0, 2, 1)),
}


def _estimate(est) -> np.ndarray:
    return np.array([est.price, est.std_error])


def _samplers():
    out = {}
    for name, model in _models().items():
        out[f"mvmd-{name}"] = lambda m=model: sample_mvmd_terminal(m, 1.0, PATHS, 11).values
        out[f"mvmd-kappa-{name}"] = lambda m=model: sample_mvmd_terminal(m, 1.0, PATHS, 12, kappa=0.2).values
        out[f"muvm-{name}"] = lambda m=model: sample_muvm_terminal(m, 1.0, PATHS, 13).values
        out[f"scmd-{name}"] = lambda m=model: simulate_scmd(m, SimulationConfig(PATHS, STEPS, 1.0, 14)).values
        out[f"md-euler-{name}"] = lambda m=model: simulate_md_euler(m.assets[1], 1.0, STEPS, PATHS, 15)
        spec, indices = SPECS[name]
        out[f"price-mvmd-{name}"] = lambda m=model, s=spec: _estimate(price_mvmd_mc(m, s, paths=PATHS, seed=16))
        out[f"price-component-{name}"] = lambda m=model, s=spec, k=indices: np.array(one_tuple_price(m, k, s, PATHS, 17))
    single = AssetMixture.from_arrays(1.1, 0.04, [1.0], [VolCurve((0.0, 0.5), (0.2, 0.35))])
    out["md-euler-single"] = lambda: simulate_md_euler(single, 1.0, STEPS, PATHS, 15)  # nu is sigma(t) exactly
    spread, spread_spec = _models()["spread"], SPECS["spread"][0]
    out["price-mvmd-spread-3blocks"] = lambda: _estimate(price_mvmd_mc(spread, spread_spec, paths=THREE_BLOCKS, seed=16))
    out["scmd-spread-3blocks"] = lambda: simulate_scmd(spread, SimulationConfig(THREE_BLOCKS, STEPS, 1.0, 14)).values
    wide = _wide_model()
    out["mvmd-wide"] = lambda: sample_mvmd_terminal(wide, 1.0, PATHS, 20, kappa=WIDE_KAPPA).values
    # 20,000 paths end in a 3,616-path block and 16,385 in a 1-path block.
    for paths in (PATHS, 16_385):
        for kind in ("arithmetic", "geometric"):
            out[f"price-mvmd-wide-{kind}-{paths}"] = lambda k=kind, p=paths: _estimate(
                price_mvmd_mc(wide, _wide_spec(k), WIDE_KAPPA, paths=p, seed=21)
            )
    # 16,384 paths are one block of four tiles, the n=6 basket's 18 columns making a tile 4,096 paths
    out["price-mvmd-wide-arithmetic-16384"] = lambda: _estimate(
        price_mvmd_mc(wide, _wide_spec("arithmetic"), WIDE_KAPPA, paths=BLOCK_SIZE, seed=21)
    )
    return out


def _greeks(model, spec, bump, kappa, seed) -> np.ndarray:
    delta, gamma = greeks_mvmd(model, spec, bump, kappa, paths=PATHS, seed=seed)
    return np.concatenate([delta, gamma.ravel()])


def _greek_pins():
    models = _models()
    put = BasketSpec((0.5, 0.3, 0.2), "arithmetic", 1.0, 1.0, omega=-1, rate=0.05)
    geo_put = BasketSpec((0.5, 0.3, 0.2), "geometric", 1.0, 1.0, omega=-1, rate=0.05)
    return {
        "greeks-spread": lambda: _greeks(models["spread"], SPECS["spread"][0], 0.01, 0.0, 18),
        # kappa drops the zero-weight tuples and the 0.06 ones; the bumps differ
        # per asset, so every cross-gamma term has its own denominator.
        "greeks-kappa-put-three": lambda: _greeks(models["three"], put, (0.01, 0.02, 0.015), 0.07, 19),
        "greeks-geometric": lambda: _greeks(_wide_model(), _wide_spec("geometric"), 0.01, WIDE_KAPPA, 0),
        "greeks-geometric-put-three": lambda: _greeks(models["three"], geo_put, (0.01, 0.02, 0.015), 0.07, 0),
        # 73 bumps of the n=6 wide basket, each priced as a spec on the base model
        "greeks-wide6": lambda: _greeks(_wide_model(), _wide_spec("arithmetic"), 0.01, WIDE_KAPPA, 22),
    }


SAMPLERS = _samplers() | _greek_pins()

# Computed before the terminal samplers and the Euler loops were merged; the
# price-* entries before the pricers read each tuple's law from ComponentTuple.
# md-euler-spread, scmd-spread and scmd-three were re-pinned when nu^2 moved
# to the quadratic-form kernel, which changes Euler paths at the rounding
# level (md-euler-three keeps its digest at 12 significant digits).  The
# greeks-* entries were computed while greeks_mvmd repriced each bump with
# its own price_mvmd_mc call; greeks-geometric* and the *-wide* entries while
# each tuple's law came from its own ComponentTuple calls and the geometric
# Greeks repriced every bumped model with price_geometric_mvmd.
# greeks-spread and greeks-kappa-put-three were re-pinned when the kernel
# folded each tuple's log-means into the level weights, which moves the
# arithmetic Greeks at the rounding level (<= 2.7e-12 relative).
# When every tuple came to be drawn from the model's component columns,
# greeks-spread (<= 2.7e-12 relative) and mvmd-wide (<= 6.7e-16) moved at the
# rounding level, and the *-three entries other than greeks-geometric-put-three
# were re-rolled: the three-asset model has a piecewise vol, so its paths now
# draw one normal n-vector per piece.
# md-euler-spread and md-euler-three were re-rolled when simulate_md_euler
# became the one-asset simulate_scmd: an asset's normals are now drawn per
# step, (paths, 1) at a time, instead of per path block as (paths, steps).
# greeks-wide6 was computed while the kernel priced each bumped model on its
# own row of a models axis, before the bumps became basket weights.
# greeks-geometric was re-pinned when the geometric Greeks came to shift each
# tuple's log-mean of the average by g . log(S'/S) instead of rebuilding the
# bumped models' log-means, which moves them at the rounding level.
# The *-3blocks entries were computed while run_blocks' helpers lived in one
# process-wide pool, before each call came to start and join its own.
# price-mvmd-wide-arithmetic-16384 was computed while each path block was one
# unit of work, before a block's tiles came to be handed out one by one.
EXPECTED = {
    "greeks-geometric": "a2eb557d814d39ed96b3181b19e9118a265b05db4f4f9db36288e19a08daf5b6",
    "greeks-geometric-put-three": "6af031777b22a5f7eded454148b494aac8ff94739d11ae71e4e1a7eebe75ebfd",
    "greeks-kappa-put-three": "90af0370ff0d9c5c402913be4c161929cef70adbd5478bee749dd7358bedef01",
    "greeks-spread": "80cdefd60a3e735e6f097744a1df3456c2c37565763267bdad0d3a3e07be7205",
    "greeks-wide6": "3b04384f93a83b24c0d09047f226eb376c09bc2130aefca63862b91da59698bb",
    "md-euler-single": "8fe22ed75e48e3e4a7dc7c74bcbd281bedeaf601a96f2a85d7724682d0634bde",
    "md-euler-spread": "ff9d5f262a0459ff08af64f3a8de10cf363cc1083b10086346197f6e5de34941",
    "md-euler-three": "255dcbabce11bfc06ccd80332c472ce45d72fc714e753cad31f76a51c66e1bbc",
    "muvm-spread": "d3e0aeeec5a35220e5ef8bbc81a6d81d6243812d57aba417d6f2e391b537e9ae",
    "muvm-three": "0726ee13f08e09cee408e942f99a93af7887a2db4ff02b5660cecec9f3118f8d",
    "price-component-spread": "a3379e3e8d4184b42e0d8b555e890816de1a3d6116b668b1c9648dbd2257f42b",
    "price-component-three": "abe34ca78e55bf1971727c26abd9d68b788c994b28dee3de5a0e839b36deac59",
    "price-mvmd-spread": "1c52eb726d69f805da153b921d15c29d417634c90b05b420eaa3ff144800c811",
    "price-mvmd-spread-3blocks": "fb523979d0eeeece7d4016b9a737661d05243da29011948ac125d99aa433cbcd",
    "price-mvmd-three": "adcaadb893fb0d9e1a45b84ffaf7889aaebc2a841130bffb605fdf0ab9ad5a26",
    "mvmd-kappa-spread": "f25247b29fde50471077fe5fb907d18a2718dd8aa895e3dbb74eddf9d4c90a0d",
    "mvmd-kappa-three": "7c365a276bda59dbbd295392d4f1d23346242c4f315784a106b3718d9d8e1d14",
    "mvmd-spread": "a8e3dcda4a0bfda17e0c9e28aa2ded4f87d38334d75702a7f34bedf61f7c29ac",
    "mvmd-three": "99a45fe79d07f88670551b538ef62daeec6147dc90856e4774bf0f2e5dea39f7",
    "mvmd-wide": "c525365d39bd30cb9e23249cbf5f1e61e0f224e58d8e6ac0918fb023c3c1b28d",
    "price-mvmd-wide-arithmetic-16384": "de4d1ebc9822eaf5ae8b10c26c11ba9a8e86e7222fa81beeda60af5c1ec06043",
    "price-mvmd-wide-arithmetic-16385": "82dd0cc0477766d2e87b0821bb8c557c63141b93957e1cca3b98a1e205c12324",
    "price-mvmd-wide-arithmetic-20000": "33108a87b02e62601eec245e7f7f3e21195772790c63e7b0d5e887e60d29688b",
    "price-mvmd-wide-geometric-16385": "eda72f2bf39d0a2819ba38e1adf2dddfca1771a594e14493ab35f15bca85aeab",
    "price-mvmd-wide-geometric-20000": "fdf71ad5ff67f46af58e36c8ff81550cb98361e91f5e5e2657e66e58e541826f",
    "scmd-spread": "8f35c992ee4062b28adce8b83fa486e8d26c25b6d7d37adb001145f2ef76683a",
    "scmd-spread-3blocks": "d67559af9945e920bb92e4f47cb8df7953b94b5c41ea46b7b63bf8e2fcc4c9fb",
    "scmd-three": "c31e3f3d850fa076fedd227fc1c95d610b76f21cf8fee941a1ec951237c938b9",
}


def digest(values: np.ndarray) -> str:
    text = "\n".join(format(v, ".12g") for v in np.asarray(values).ravel())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_sampler_stream_is_pinned(name):
    assert digest(SAMPLERS[name]()) == EXPECTED[name]


@pytest.mark.parametrize("seed", [0, 642, 2**53 + 1, 2**63 - 1])
def test_substream_keeps_the_streams_of_seeds_below_2_63(seed):
    # the key as two Python ints, as it was handed to Philox before it became a uint64 array
    old = np.random.Generator(np.random.Philox(key=(seed, 3)))
    assert np.array_equal(substream(seed, 3).random(8), old.random(8))


def test_substream_gives_every_64_bit_seed_its_own_stream():
    seeds = (0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no key may pass through a float cast
        draws = {substream(seed, 0).random(4).tobytes() for seed in seeds}
    assert len(draws) == len(seeds)


@pytest.mark.parametrize("seed, index", [(-1, 0), (-5, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_substream_rejects_keys_outside_64_bits(seed, index):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        substream(seed, index)
