import numpy as np
import pytest

from mvmix import AssetMixture, CorrelationMatrix, MultiAssetModel, TupleSet
from mvmix.pricing import _tuple_mc_prices


def make_model(spots, drifts, weights, vols, rho):
    assets = tuple(
        AssetMixture.from_arrays(s, d, w, v) for s, d, w, v in zip(spots, drifts, weights, vols)
    )
    corr = np.full((len(assets), len(assets)), rho)
    np.fill_diagonal(corr, 1.0)
    return MultiAssetModel(assets, CorrelationMatrix(corr))


def one_tuple_price(model, indices, spec, paths, seed):
    """Price and standard error of the mixture kernel on the law of one tuple (a one-tuple `TupleSet`)."""
    single = TupleSet(model, [indices], (1.0,))
    price, se = _tuple_mc_prices(model, single, (spec,), paths, seed, None)
    return float(price[0]), float(se[0])


@pytest.fixture
def vanilla_asset1():
    return AssetMixture.from_arrays(1.0, 0.05, [0.6, 0.4], [0.3, 0.2])


@pytest.fixture
def vanilla_asset2():
    return AssetMixture.from_arrays(1.0, 0.05, [0.7, 0.3], [0.25, 0.35])


@pytest.fixture
def vanilla_model(vanilla_asset1, vanilla_asset2):
    return MultiAssetModel((vanilla_asset1, vanilla_asset2), CorrelationMatrix([[1, 0.6], [0.6, 1]]))


@pytest.fixture
def spread_model():
    return make_model(
        (0.7, 1.7), (0.05, 0.05), ((0.6, 0.4), (0.7, 0.3)), ((0.2, 0.1), (0.4, 0.5)), 0.6
    )
