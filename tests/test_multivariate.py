import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mvmix import (
    AssetMixture,
    BasketSpec,
    CorrelationMatrix,
    MultiAssetModel,
    SingularCovarianceError,
    TupleSet,
    VolCurve,
    component_pdf,
    density_count,
    local_vol,
    mvmd_diffusion_squared,
    price_mvmd_mc,
    scmd_covariance,
    truncate,
    volume_estimate,
)
from mvmix import analytic_moment
from mvmix.multivariate import _component_columns, _tuple_logpdfs, marginal_moment, mixture_pdf, tuple_laws
from mvmix.univariate import mixture_pdf as mixture_pdf_1d

from conftest import make_model


def tuple_pdf(model, indices, t, x):
    """One tuple's multivariate lognormal density at one price vector x, from the batched log densities."""
    return float(np.exp(_tuple_logpdfs(model, [indices], t, np.asarray(x, dtype=float)[None, :])[0, 0]))


def test_correlation_matrix_validation():
    CorrelationMatrix([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        CorrelationMatrix([[1.0, 0.5], [0.4, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        CorrelationMatrix([[0.9, 0.5], [0.5, 1.0]])  # diagonal != 1
    with pytest.raises(ValueError):
        CorrelationMatrix([[1.0, 0.95], [0.95, 1.0], [0.0, 0.0]])  # not square
    with pytest.raises(ValueError):
        # equicorrelation -0.7 in 3d has eigenvalue 1+2*rho = -0.4 < 0
        CorrelationMatrix([[1.0, -0.7, -0.7], [-0.7, 1.0, -0.7], [-0.7, -0.7, 1.0]])
    # |rho|=1 is admissible (rank deficient) and factors with zero columns
    cm = CorrelationMatrix([[1.0, 1.0], [1.0, 1.0]])
    f = cm.factor()
    assert np.allclose(f @ f.T, cm.values, atol=1e-12)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[0.99999, 0.5], [0.5, 1.0]], "unit diagonal"),
        ([[1.0, 0.5], [0.500004, 1.0]], "symmetric"),
        ([[0.99999, 0.5], [0.500004, 1.0]], "symmetric"),
        ([[1.0, np.nan], [np.nan, 1.0]], "finite"),
        ([[np.nan, 0.5], [0.5, 1.0]], "finite"),
        ([[1.0, 0.2, 0.1], [0.2, np.nan, 0.3], [0.1, 0.3, 1.0]], "finite"),
    ],
)
def test_correlation_matrix_tolerance_is_absolute(entries, message):
    # 1e-12 absolute: numpy's default relative tolerance of 1e-5 would accept these and rewrite them
    with pytest.raises(ValueError, match=message):
        CorrelationMatrix(entries)


def test_correlation_matrix_stores_an_exact_unit_diagonal():
    # a diagonal within 1e-12 of 1 is accepted, and stored as exact 1s, so the
    # covariance diagonal is the integrated variance that the log-means use
    entries = [[1.0 - 5e-13, 0.5], [0.5, 1.0]]
    corr = CorrelationMatrix(entries)
    assert np.diag(corr.values).tolist() == [1.0, 1.0] and corr[0, 1] == 0.5
    piecewise = VolCurve((0.0, 0.25, 0.5), (0.2, 0.4, 0.3))
    assets = tuple(AssetMixture.from_arrays(s, 0.04, [0.6, 0.4], [piecewise, 0.25]) for s in (1.0, 1.3))
    model = MultiAssetModel(assets, entries)
    for t in (0.3, 1.0):
        means, xi = tuple_laws(model, truncate(model, 0.0).index_array, t)
        assert np.array_equal(means, np.log(model.spots) + model.drifts * t - 0.5 * np.diagonal(xi, axis1=1, axis2=2))


def test_integrated_covariance_uncorrelated_constants(vanilla_model):
    model = make_model((1.0, 1.0), (0.05, 0.05), ((0.6, 0.4), (0.7, 0.3)), ((0.3, 0.2), (0.25, 0.35)), 0.0)
    xi = tuple_laws(model, [(0, 0)], 1.0)[1][0]
    assert np.allclose(xi, np.diag([0.09, 0.0625]), atol=1e-15)


def test_integrated_covariance_off_diagonal(vanilla_model):
    xi = tuple_laws(vanilla_model, [(0, 0)], 1.0)[1][0]
    assert xi[0, 1] == pytest.approx(0.6 * 0.3 * 0.25, abs=1e-15)
    assert xi[0, 1] == xi[1, 0]
    assert np.allclose(np.diag(xi), [0.09, 0.0625], atol=1e-15)


def _laws_by_loop(model, indices, t):
    """Each tuple's law written out one integral at a time: log S0 + mu t - int sigma^2 / 2, rho_ij int sigma_i sigma_j."""
    means, covs = [], []
    for row in indices:
        vols = [a.components[k].vol for a, k in zip(model.assets, row)]
        means.append([np.log(a.spot) + a.drift * t - 0.5 * v.integral_sq(t) for a, v in zip(model.assets, vols)])
        covs.append([[model.corr[i, j] * vi.integral_with(vj, t) for vj, j in zip(vols, range(model.n))] for i, vi in enumerate(vols)])
    return np.array(means), np.array(covs)


def _law_models():
    piecewise = VolCurve((0.0, 0.25, 0.5), (0.2, 0.4, 0.3))
    gen = np.random.default_rng(3)
    wide_vols = [tuple(gen.uniform(0.1, 0.5, size=3)) for _ in range(6)]
    return {
        "n1": make_model((1.2,), (0.03,), ((0.6, 0.4),), ((piecewise, 0.25),), 0.0),
        "n2-piecewise": make_model(
            (0.7, 1.7), (0.05, 0.02), ((0.6, 0.4), (0.7, 0.3)), ((piecewise, 0.1), (0.4, VolCurve((0.0, 0.6), (0.5, 0.2)))), -0.6
        ),
        "n3-zero-weight": make_model(
            (1.0, 0.9, 1.1),
            (0.05, 0.03, 0.04),
            ((0.6, 0.4), (0.5, 0.5, 0.0), (0.7, 0.3)),
            ((0.3, 0.2), (VolCurve((0.0, 0.5), (0.2, 0.35)), 0.25, 0.4), (0.15, 0.3)),
            0.4,
        ),
        "n6": make_model((1.0,) * 6, (0.05,) * 6, ((0.5, 0.3, 0.2),) * 6, wide_vols, 0.35),
        "n3-rho1": make_model((1.0, 0.8, 1.2), (0.05,) * 3, ((0.6, 0.4),) * 3, ((0.25, piecewise),) * 3, 1.0),
    }


@pytest.mark.parametrize("name", sorted(_law_models()))
def test_tuple_laws_equal_the_per_integral_loop(name):
    model = _law_models()[name]
    for t in (0.3, 1.0):
        indices = [tp.indices for tp in model.tuples()]
        means, xi = tuple_laws(model, indices, t)
        loop_means, loop_xi = _laws_by_loop(model, indices, t)
        assert np.array_equal(means, loop_means) and np.array_equal(xi, loop_xi)
        for k, row in enumerate(indices):  # the one-row calls read the same source
            one_means, one_xi = tuple_laws(model, [row], t)
            assert np.array_equal(one_means[0], means[k]) and np.array_equal(one_xi[0], xi[k])
        sub = indices[::-2]  # any subset, in any order
        assert np.array_equal(tuple_laws(model, sub, t)[1], loop_xi[::-2])


def test_tuple_laws_reject_bad_indices_and_times(vanilla_model):
    with pytest.raises(ValueError, match="out of range"):
        tuple_laws(vanilla_model, [(0, 2)], 1.0)
    with pytest.raises(ValueError, match="out of range"):
        tuple_laws(vanilla_model, [(-1, 0)], 1.0)
    with pytest.raises(ValueError, match="one component index per asset"):
        tuple_laws(vanilla_model, [(0, 0, 0)], 1.0)
    with pytest.raises(ValueError, match="t > 0"):
        tuple_laws(vanilla_model, [(0, 0)], 0.0)
    with pytest.raises(ValueError, match="need finite t > 0, got t = inf"):
        tuple_laws(vanilla_model, [(0, 0)], np.inf)


@pytest.mark.parametrize("rows, named", [([(0.7, 1.9)], "0.7"), ([(0, 0), (1, 1.5)], "1.5"), ([(0, np.nan)], "nan")])
def test_tuple_laws_and_tuple_sets_reject_indices_that_are_not_integers(vanilla_model, rows, named):
    with pytest.raises(ValueError, match=f"component index {named} is not an integer"):
        tuple_laws(vanilla_model, rows, 1.0)
    with pytest.raises(ValueError, match=f"component index {named} is not an integer"):
        TupleSet(vanilla_model, rows, (1.0 / len(rows),) * len(rows))
    whole = tuple_laws(vanilla_model, [(1.0, 0.0)], 1.0)  # integral floats name their tuple
    assert all(np.array_equal(a, b) for a, b in zip(whole, tuple_laws(vanilla_model, [(1, 0)], 1.0)))


@pytest.mark.parametrize(
    "call",
    [
        lambda m, x: scmd_covariance(m, 1.0, x),
        lambda m, x: mixture_pdf(m, 1.0, x),
        lambda m, x: mvmd_diffusion_squared(m, 1.0, x),
    ],
    ids=["scmd_covariance", "mixture_pdf", "mvmd_diffusion_squared"],
)
def test_multivariate_laws_reject_a_nan_price(vanilla_model, call):
    with pytest.raises(ValueError, match="x must not contain NaN"):
        call(vanilla_model, [1.0, np.nan])


def test_local_vols_reject_a_nan_time(vanilla_model):
    with pytest.raises(ValueError, match="time must be finite and nonnegative, got nan"):
        local_vol(vanilla_model.assets[0], np.nan, [0.9, 1.1])
    with pytest.raises(ValueError, match="time must be finite and nonnegative, got nan"):
        scmd_covariance(vanilla_model, np.nan, [0.9, 1.1])


@pytest.mark.parametrize("name", sorted(_law_models()))
def test_component_columns_carry_the_tuple_laws(name):
    """Each tuple's columns: sum_p u u^T * R is tuple_laws' Xi_k and the column means are its log-means."""
    model = _law_models()[name]
    indices = truncate(model, 0.0).index_array
    for t in (0.3, 1.0):
        loadings, means, offsets = _component_columns(model, t)
        law_means, xi = tuple_laws(model, indices, t)
        for row, mean, cov in zip(indices, law_means, xi):
            u = loadings[offsets + row]  # (n, P)
            np.testing.assert_allclose((u @ u.T) * model.corr.values, cov, rtol=1e-14, atol=0)
            assert np.array_equal(means[offsets + row], mean)


def test_component_columns_cut_pieces_at_every_breakpoint_below_t():
    model = _law_models()["n2-piecewise"]  # breakpoints 0.25, 0.5 and 0.6
    assert [_component_columns(model, t)[0].shape[1] for t in (0.2, 0.25, 0.3, 0.55, 1.0)] == [1, 1, 2, 3, 4]
    assert _component_columns(_law_models()["n6"], 1.0)[0].shape == (18, 1)


def test_truncate_weights_are_the_product_weights_in_product_order():
    gen = np.random.default_rng(8)
    for n in range(1, 11):
        counts = gen.integers(1, 4, size=n)
        weights = [gen.dirichlet(np.ones(c)) for c in counts]
        weights = [w / w.sum() for w in weights]
        model = make_model((1.0,) * n, (0.0,) * n, weights, [(0.2,) * c for c in counts], 0.2)
        expect = [np.prod([w[k] for w, k in zip(weights, row)]) for row in itertools.product(*map(range, counts))]
        full = truncate(model, 0.0)
        assert full.weight_array.tolist() == expect
        kappa = float(np.median(expect))
        cut = truncate(model, kappa)
        kept = np.array([w for w in expect if w > kappa])
        assert cut.weight_array.tolist() == (kept / kept.sum()).tolist()
        rows = np.array(list(itertools.product(*map(range, counts))))
        assert np.array_equal(full.index_array, rows)
        assert np.array_equal(cut.index_array, rows[np.array(expect) > kappa])


def test_tuple_set_checks_its_rows_once_for_the_set(vanilla_model):
    def tuple_set(rows, weights=None):
        return TupleSet(vanilla_model, rows, weights if weights is not None else (1.0 / len(rows),) * len(rows))

    with pytest.raises(ValueError, match="component index 2 out of range"):
        tuple_set([(0, 0), (0, 2)])
    with pytest.raises(ValueError, match="component index -1 out of range"):
        tuple_set([(-1, 0)])
    with pytest.raises(ValueError, match="one component index per asset"):
        tuple_set([(0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="one component index per asset"):
        tuple_set([(0,), (1,)])
    with pytest.raises(ValueError, match="one weight per tuple"):
        tuple_set([(0, 0), (1, 1)], (1.0,))
    for bad in (np.nan, -0.25, np.inf):
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            tuple_set([(0, 0), (1, 1)], (0.5, bad))
    with pytest.raises(ValueError, match="at least one tuple"):
        TupleSet(vanilla_model, (), ())

    kept = tuple_set([(1, 0), (0, 1)], (0.25, 0.75))
    for name in ("index_array", "weight_array"):
        array = getattr(kept, name)
        assert getattr(kept, name) is array and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert kept.index_array.dtype == np.intp
    assert np.array_equal(kept.index_array, [[1, 0], [0, 1]]) and kept.weight_array.tolist() == [0.25, 0.75]
    assert not hasattr(kept, "tuples") and not hasattr(kept, "weights")


def test_tuple_set_copies_the_callers_index_array(vanilla_model):
    rows = np.array([[1, 0], [0, 1]], dtype=np.intp)
    kept = TupleSet(vanilla_model, rows, (0.25, 0.75))
    assert rows.flags.writeable
    rows[0] = (1, 1)
    assert kept.index_array.tolist() == [[1, 0], [0, 1]]


def test_perfect_correlation_is_flagged_singular():
    model = make_model((1.0, 1.0), (0.0, 0.0), ((1.0,), (1.0,)), ((0.3,), (0.3,)), 1.0)
    with pytest.raises(SingularCovarianceError) as err:
        tuple_pdf(model, (0, 0), 1.0, np.array([1.0, 1.0]))
    assert err.value.indices == (0, 0)


def test_mixture_pdf_names_a_later_singular_tuple():
    # rho = 1: tuple (0, 0) pairs a piecewise curve with a constant one and is
    # regular; (1, 0) pairs two equal constants, so its Xi has rank 1.
    piecewise = VolCurve((0.0, 0.5), (0.2, 0.4))
    model = make_model((1.0, 1.0), (0.0, 0.0), ((0.6, 0.4), (1.0,)), ((piecewise, 0.3), (0.3,)), 1.0)
    x = np.array([1.0, 1.1])
    assert tuple_pdf(model, (0, 0), 1.0, x) > 0.0
    with pytest.raises(SingularCovarianceError) as err:
        mixture_pdf(model, 1.0, x)
    assert err.value.indices == (1, 0)


def test_mvln_pdf_reduces_to_univariate():
    asset = AssetMixture.from_arrays(1.0, 0.05, [1.0], [0.3])
    model = MultiAssetModel((asset,), CorrelationMatrix([[1.0]]))
    for x in (0.5, 1.0, 2.0):
        assert tuple_pdf(model, (0,), 1.0, np.array([x])) == pytest.approx(
            component_pdf(asset, 0, 1.0, x), rel=1e-13
        )


def test_mvln_pdf_independence_factorizes(vanilla_model):
    model = make_model((1.0, 1.0), (0.05, 0.05), ((0.6, 0.4), (0.7, 0.3)), ((0.3, 0.2), (0.25, 0.35)), 0.0)
    x = np.array([0.9, 1.2])
    joint = tuple_pdf(model, (1, 0), 1.0, x)
    assert joint == pytest.approx(
        component_pdf(model.assets[0], 1, 1.0, 0.9) * component_pdf(model.assets[1], 0, 1.0, 1.2),
        rel=1e-12,
    )


def test_mvln_pdf_hand_quadratic_form(vanilla_model):
    # frozen: 2-D Gaussian in log coordinates, tuple (0,0), rho=0.6, x=(1,1)
    assert tuple_pdf(vanilla_model, (0, 0), 1.0, np.array([1.0, 1.0])) == pytest.approx(
        2.643474050258349, rel=1e-12
    )


def test_mixture_pdf_four_term_sum(vanilla_model):
    # frozen: sum of the 4 weighted bivariate lognormal values at (1,1)
    assert mixture_pdf(vanilla_model, 1.0, np.array([1.0, 1.0])) == pytest.approx(
        2.8855362902019666, rel=1e-12
    )


def test_single_tuple_mixture(vanilla_model):
    model = make_model((1.0, 1.0), (0.05, 0.05), ((1.0,), (1.0,)), ((0.3,), (0.25,)), 0.6)
    x = np.array([1.1, 0.8])
    assert mixture_pdf(model, 1.0, x) == pytest.approx(
        tuple_pdf(model, (0, 0), 1.0, x), rel=1e-14
    )


def test_marginalization_recovers_univariate(vanilla_model):
    # integrate the joint density over x2: Fubini on each lognormal component
    for x1 in (0.7, 1.0, 1.6):
        marg, _ = quad(
            lambda x2: mixture_pdf(vanilla_model, 1.0, np.array([x1, x2])),
            1e-9,
            60.0,
            limit=300,
            epsabs=1e-11,
        )
        assert marg == pytest.approx(
            mixture_pdf_1d(vanilla_model.assets[0], 1.0, x1), abs=1e-6
        )


def test_moments_match_univariate_mixture(vanilla_model):
    for i in range(2):
        for order in (1, 2, 3, 4):
            tuple_sum = marginal_moment(vanilla_model, i, 1.0, order)
            direct = analytic_moment(vanilla_model.assets[i], 1.0, order)
            assert tuple_sum == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("i", [-1, 2])
def test_marginal_moment_rejects_an_asset_index_out_of_range(vanilla_model, i):
    with pytest.raises(ValueError, match=f"asset index {i} out of range"):
        marginal_moment(vanilla_model, i, 1.0)


@pytest.mark.parametrize("i", [True, 1.5, np.float64(1.0)])
def test_marginal_moment_needs_an_integer_asset_index(vanilla_model, i):
    with pytest.raises(ValueError, match="asset index must be an integer"):
        marginal_moment(vanilla_model, i, 1.0)


@pytest.mark.parametrize("order", [np.nan, np.inf])
def test_moments_need_a_finite_order(vanilla_model, order):
    with pytest.raises(ValueError, match="moment order must be finite"):
        marginal_moment(vanilla_model, 0, 1.0, order)
    with pytest.raises(ValueError, match="moment order must be finite"):
        analytic_moment(vanilla_model.assets[0], 1.0, order)


@pytest.mark.parametrize(
    "x", [1.0, [1.0, 1.0, 1.0], np.ones((4, 3)), np.ones((2, 2, 2))], ids=["scalar", "three", "rows-of-three", "3-d"]
)
def test_mixture_pdf_rejects_points_of_the_wrong_shape(vanilla_model, x):
    with pytest.raises(ValueError, match="price vector dimension must match the model"):
        mixture_pdf(vanilla_model, 1.0, x)


def test_diffusion_matrix_single_component_is_state_free():
    model = make_model((1.0, 1.0), (0.05, 0.05), ((1.0,), (1.0,)), ((0.3,), (0.25,)), 0.6)
    v = np.outer([0.3, 0.25], [0.3, 0.25]) * model.corr.values  # V = R * s s^T of the one tuple
    for x in ([0.5, 0.5], [1.0, 2.0], [4.0, 0.2]):
        assert np.allclose(mvmd_diffusion_squared(model, 1.0, np.array(x)), v, atol=1e-14)


def test_diffusion_matrix_hand_weighted_sum(vanilla_model):
    # frozen: density-weighted 4-term sum of the V matrices at (1,1)
    expect = np.array(
        [
            [0.06513891845740125, 0.04105206283091781],
            [0.04105206283091781, 0.07651159497127959],
        ]
    )
    got = mvmd_diffusion_squared(vanilla_model, 1.0, np.array([1.0, 1.0]))
    assert np.allclose(got, expect, rtol=1e-12)


def test_diffusion_matrix_is_psd_and_bounded(vanilla_model):
    vols = [v for a in vanilla_model.assets for c in a.components for v in c.vol.values]
    lo, hi = min(vols), max(vols)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.lognormal(0.0, 0.8, 2)
        t = rng.uniform(0.05, 2.0)
        cct = mvmd_diffusion_squared(vanilla_model, t, x)
        eigs = np.linalg.eigvalsh(cct)
        assert eigs.min() > -1e-14
        diag = np.diag(cct)
        assert np.all(diag >= lo**2 - 1e-14) and np.all(diag <= hi**2 + 1e-14)
        assert np.max(np.abs(cct)) <= hi**2 + 1e-14


def test_diffusion_matrix_tail_limit(vanilla_model):
    # deep in one tuple's territory the matrix converges to that tuple's V
    x = np.array([1e-9, 1e9])
    got = mvmd_diffusion_squared(vanilla_model, 1.0, x)
    # fattest tails: component 0 (sigma .3) for asset 1, component 1 (.35) for asset 2
    v = np.outer([0.3, 0.35], [0.3, 0.35]) * vanilla_model.corr.values
    assert np.allclose(got, v, rtol=1e-8)


def test_scmd_covariance_composition(spread_model):
    x = np.array([0.7, 1.7])
    c = scmd_covariance(spread_model, 0.5, x)
    nu1 = local_vol(spread_model.assets[0], 0.5, 0.7)
    nu2 = local_vol(spread_model.assets[1], 0.5, 1.7)
    assert c[0, 0] == pytest.approx(nu1**2, rel=1e-14)
    assert c[1, 1] == pytest.approx(nu2**2, rel=1e-14)
    assert c[0, 1] == pytest.approx(0.6 * nu1 * nu2, rel=1e-14)
    assert c[0, 1] == c[1, 0]


def test_scmd_covariance_is_finite_at_an_infinite_price():
    # asset 0's padding slot (variance 1 against the reference's 0.045) used to read inf - inf at x = inf
    model = make_model((1.0, 1.0), (0.05, 0.05), ((0.6, 0.4), (0.3, 0.3, 0.4)), ((0.3, 0.2), (0.15, 0.25, 0.35)), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = scmd_covariance(model, 0.5, [np.inf, 1.0])
    nus = [0.3, local_vol(model.assets[1], 0.5, 1.0)]
    assert np.array_equal(c, np.outer(nus, nus) * model.corr.values)


def test_scmd_covariance_equals_the_per_asset_local_vols():
    # One nu^2 schedule for all assets, padded to the largest component count,
    # gives the same bits as one local_vol call per asset, t = 0 included.
    gen = np.random.default_rng(11)
    for _ in range(150):
        n = int(gen.integers(1, 5))
        assets = []
        for _ in range(n):
            vols = [
                VolCurve(np.r_[0.0, np.sort(gen.uniform(0.05, 1.5, size=j))], gen.uniform(0.1, 0.6, size=j + 1))
                for j in gen.integers(0, 3, size=int(gen.integers(1, 4)))
            ]
            weights = gen.dirichlet(np.ones(len(vols)))
            assets.append(AssetMixture.from_arrays(gen.uniform(0.5, 2.0), gen.uniform(-0.05, 0.1), weights, vols))
        corr = np.full((n, n), gen.uniform(-0.3, 0.9))
        np.fill_diagonal(corr, 1.0)
        model = MultiAssetModel(tuple(assets), CorrelationMatrix(corr))
        for t in (0.0, gen.uniform(0.01, 2.0)):
            x = gen.uniform(0.3, 3.0, size=n)
            nus = np.array([local_vol(a, t, xi) for a, xi in zip(model.assets, x)])
            assert np.array_equal(scmd_covariance(model, t, x), np.outer(nus, nus) * model.corr.values)
    with pytest.raises(ValueError, match="price must be positive"):
        scmd_covariance(model, 0.5, np.r_[x[:-1], 0.0])


def test_scmd_equals_mvmd_for_single_component():
    model = make_model((1.0, 1.5), (0.03, 0.04), ((1.0,), (1.0,)), ((0.3,), (0.25,)), 0.4)
    for x in ([1.0, 1.5], [0.6, 2.0]):
        a = scmd_covariance(model, 1.0, np.array(x))
        b = mvmd_diffusion_squared(model, 1.0, np.array(x))
        assert np.allclose(a, b, atol=1e-14)


def test_truncate_cutoffs(vanilla_model):
    full = truncate(vanilla_model, 0.0)
    assert len(full) == 4
    assert sum(full.weight_array) == pytest.approx(1.0, abs=1e-14)
    # products {0.42, 0.18, 0.28, 0.12}; kappa=0.2 keeps 0.42, 0.28 -> {0.6, 0.4}
    cut = truncate(vanilla_model, 0.2)
    assert sorted(map(tuple, cut.index_array.tolist())) == [(0, 0), (1, 0)]
    assert sorted(cut.weight_array) == pytest.approx([0.4, 0.6], abs=1e-14)
    assert sum(cut.weight_array) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        truncate(vanilla_model, 0.5)  # removes every tuple


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -0.1])
def test_truncate_rejects_a_non_finite_or_negative_cutoff(vanilla_model, kappa):
    with pytest.raises(ValueError, match="cutoff must be finite and nonnegative"):
        truncate(vanilla_model, kappa)
    spec = BasketSpec((0.5, 0.5), "arithmetic", 1.0, 1.0)
    with pytest.raises(ValueError, match="cutoff must be finite and nonnegative"):
        price_mvmd_mc(vanilla_model, spec, kappa, paths=10)


def test_truncate_refuses_a_cutoff_at_the_heaviest_tuple_without_enumerating(vanilla_model, monkeypatch):
    heaviest = 0.6 * 0.7  # computed as truncate computes tuple weights
    assert truncate(vanilla_model, np.nextafter(heaviest, 0.0)).weight_array.tolist() == [1.0]
    monkeypatch.setattr(MultiAssetModel, "tuples", lambda self: pytest.fail("enumerated the tuples"))
    with pytest.raises(ValueError, match="removed all components"):
        truncate(vanilla_model, heaviest)
    wide = make_model((1.0,) * 10, (0.0,) * 10, ((0.5, 0.3, 0.2),) * 10, ((0.2, 0.3, 0.4),) * 10, 0.3)
    with pytest.raises(ValueError, match="removed all components"):
        truncate(wide, 1e-3)  # 0.5**10 < 1e-3: none of the 3**10 tuples survives


def test_volume_recursion_closed_forms():
    k = 0.05
    assert volume_estimate(k, 1) == pytest.approx(1 - k, rel=1e-14)
    assert volume_estimate(k, 2) == pytest.approx(1 - k + k * np.log(k), rel=1e-14)
    # closed form: V_n = 1 - k * sum_{j<n} (-ln k)^j / j!
    for n in range(1, 12):
        expect = 1 - k * sum((-np.log(k)) ** j / math.factorial(j) for j in range(n))
        assert volume_estimate(k, n) == pytest.approx(expect, rel=1e-12)
    assert volume_estimate(0.0, 7) == 1.0


def test_volume_matches_a_high_precision_sum():
    # In floating point the sum 1 - k * sum_{j<n} (-ln k)^j / j! cancels
    # (at k = 0.05, n = 30 it gave 1.7e-16 for 4.1e-20); at 200 digits it
    # is exact.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(200):
        for k in (1e-3, 0.05, 0.5):
            log_k = -mpmath.log(k)
            for n in range(41):
                exact = 1 - k * mpmath.fsum(log_k**j / mpmath.factorial(j) for j in range(n))
                assert volume_estimate(k, n) == pytest.approx(float(exact), rel=1e-13)


def test_volume_keeps_its_digits_at_large_n():
    # reference values: the sum above at 200 digits (mpmath 1.3.0)
    assert volume_estimate(0.05, 30) == pytest.approx(4.1151355036151233e-20, rel=1e-13)
    assert volume_estimate(0.5, 20) == pytest.approx(1.3928630580808724e-22, rel=1e-13)
    assert volume_estimate(1e-3, 30) == pytest.approx(7.325879265714211e-11, rel=1e-13)
    assert volume_estimate(1.0, 3) == 0.0 and volume_estimate(1.0, 0) == 1.0
    with pytest.raises(ValueError, match="dimension n must be a whole number, got 2.5"):
        volume_estimate(0.05, 2.5)


def test_volume_refuses_a_bool_dimension():
    with pytest.raises(ValueError, match="dimension n must be a whole number, got True"):
        volume_estimate(0.1, True)


@pytest.mark.parametrize("rho_density", [-1.0, np.inf, np.nan])
def test_density_count_rejects_a_negative_or_non_finite_density(rho_density):
    with pytest.raises(ValueError, match="weight density must be finite and nonnegative"):
        density_count(0.1, 3, rho_density)


def test_density_count_peak_location():
    counts = {n: density_count(0.05, n, 3.0) for n in range(1, 13)}
    peak_n = max(counts, key=counts.get)
    assert peak_n == 8
    assert counts[8] == pytest.approx(80.0, abs=10.0)
