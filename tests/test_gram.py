import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmix import (
    FactorizationError,
    GridError,
    HurstRangeError,
    Panel,
    SamplingGrid,
    build_gram,
    xi_values,
)
from fracmix.gram import fbm_covariance, hurst_value

GRID4 = SamplingGrid((1.25, 2.5, 3.75, 5.0))


def random_grid(draw_times):
    """Strictly increasing positive times from a list of positive steps."""
    steps = np.asarray(draw_times, dtype=float)
    return SamplingGrid(np.cumsum(steps))


grid_strategy = st.lists(
    st.floats(min_value=0.05, max_value=3.0, allow_nan=False), min_size=1, max_size=16
).map(random_grid)


def quad_uy(gm, y):
    """u'V^{-1}y read through the slope of a one-row panel: xi * q."""
    return xi_values(Panel(grid=gm.grid, y=[y]), gm)[0] * gm.quad_uu


def test_hurst_validation():
    assert hurst_value(0.5) == 0.5
    assert type(hurst_value(np.float32(0.5))) is float
    for bad in (0.0, 1.0, -0.2, 1.7, float("nan"), float("inf")):
        with pytest.raises(HurstRangeError):
            hurst_value(bad)


def test_grid_validation():
    with pytest.raises(GridError):
        SamplingGrid((0.0, 1.0))  # origin is not an observation
    with pytest.raises(GridError):
        SamplingGrid((1.0, 1.0, 2.0))
    with pytest.raises(GridError):
        SamplingGrid((2.0, 1.0))
    with pytest.raises(GridError):
        SamplingGrid(())
    g = SamplingGrid.uniform(4, 5.0)
    assert np.allclose(g.times, [1.25, 2.5, 3.75, 5.0])
    assert g.horizon == 5.0
    assert g.is_uniform
    assert not SamplingGrid((1.0, 1.1, 3.0)).is_uniform


def test_brownian_two_point_grid():
    V = fbm_covariance(SamplingGrid((1.0, 2.0)), 0.5)
    assert np.allclose(V, [[1.0, 1.0], [1.0, 2.0]], atol=1e-14)


@pytest.mark.parametrize("h", [0.3, 0.7, 0.85])
def test_two_point_grid_closed_form(h):
    V = fbm_covariance(SamplingGrid((1.0, 2.0)), h)
    expected = np.array([[1.0, 2.0 ** (2 * h - 1)], [2.0 ** (2 * h - 1), 2.0 ** (2 * h)]])
    assert np.allclose(V, expected, rtol=1e-14)


def test_entries_match_scalar_formula():
    # independent elementwise evaluation of the covariance
    h = 0.85
    V = fbm_covariance(GRID4, h)
    t = GRID4.times
    for k in range(4):
        for l in range(4):
            ref = 0.5 * (t[k] ** (2 * h) + t[l] ** (2 * h) - abs(t[k] - t[l]) ** (2 * h))
            assert V[k, l] == pytest.approx(ref, rel=1e-14)


def test_symmetry_is_exact():
    V = fbm_covariance(GRID4, 0.62)
    assert np.array_equal(V, V.T)


@settings(max_examples=60, deadline=None)
@given(grid=grid_strategy)
def test_brownian_reduction(grid):
    V = fbm_covariance(grid, 0.5)
    t = grid.times
    assert np.max(np.abs(V - np.minimum(t[:, None], t[None, :]))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(grid=grid_strategy)
def test_markov_closed_form_quad_uu(grid):
    # for H=1/2 the time vector is the last column of V, so u'V^{-1}u = T
    gm = build_gram(grid, 0.5)
    assert gm.quad_uu == pytest.approx(grid.horizon, abs=1e-10 * max(1.0, grid.horizon))


def test_quad_uu_reference_grid():
    assert build_gram(GRID4, 0.5).quad_uu == pytest.approx(5.0, abs=1e-10)


def test_quad_uu_single_point():
    for h in (0.15, 0.5, 0.85):
        for t1 in (0.5, 1.0, 2.0):
            gm = build_gram(SamplingGrid((t1,)), h)
            assert gm.quad_uu == pytest.approx(t1 ** (2 - 2 * h), rel=1e-12)


def test_quad_uu_base_rate_backsolve():
    # the closed-form sd of the mean estimator at N=50 pins q on this grid
    q = build_gram(GRID4, 0.15).quad_uu
    assert np.sqrt(1 / 50 + 1 / (50 * q)) == pytest.approx(0.1456, abs=5e-5)


def test_quad_uy_substitutions():
    gm = build_gram(GRID4, 0.7)
    assert quad_uy(gm, GRID4.times) == pytest.approx(gm.quad_uu, rel=1e-12)
    assert quad_uy(gm, np.zeros(4)) == 0.0


def test_quad_uy_brownian_last_coordinate():
    gm = build_gram(GRID4, 0.5)
    y = np.array([0.3, -1.2, 2.5, 0.7])
    assert quad_uy(gm, y) == pytest.approx(y[-1], abs=1e-10)


def test_quad_uy_against_dense_inverse():
    gen = np.random.default_rng(5)
    for n in (3, 16, 64):
        times = np.cumsum(gen.uniform(0.05, 1.0, n))
        grid = SamplingGrid(times)
        for h in (0.15, 0.5, 0.85):
            gm = build_gram(grid, h)
            y = gen.standard_normal(n)
            ref = times @ np.linalg.inv(fbm_covariance(grid, h)) @ y
            assert quad_uy(gm, y) == pytest.approx(ref, rel=1e-8, abs=1e-8)


def test_quad_uy_dimension_mismatch():
    gm = build_gram(GRID4, 0.5)
    with pytest.raises(ValueError):
        quad_uy(gm, np.ones(3))
    short = Panel(grid=SamplingGrid((1.25, 2.5, 3.75)), y=[np.ones(3)])
    with pytest.raises(GridError):
        xi_values(short, gm)


@pytest.mark.parametrize("h,n", [(0.85, 8), (0.85, 256), (0.99, 1024)])
def test_gls_weights_read_only_and_unbiased(h, n):
    # c = V^{-1}u / q reads the slope of u itself as exactly 1
    gm = build_gram(SamplingGrid.uniform(n, 2.0), h)
    assert not gm.weights.flags.writeable
    assert abs(gm.grid.times @ gm.weights - 1.0) <= 32 * np.finfo(float).eps


def test_factor_reconstructs_v():
    for h in (0.05, 0.5, 0.95):
        grid = SamplingGrid.uniform(32, 5.0)
        gm = build_gram(grid, h)
        V = fbm_covariance(grid, h)
        recon = gm.factor @ gm.factor.T
        assert np.max(np.abs(recon - V)) <= 1e-10 * np.max(np.abs(V))


@pytest.mark.parametrize("h", [0.05, 0.15, 0.35, 0.5, 0.65, 0.85, 0.95])
def test_positive_definite_across_range(h):
    gm = build_gram(SamplingGrid.uniform(256, 5.0), h)
    assert np.all(np.diag(gm.factor) > 0.0)


def test_hurst_conditioning_guard():
    with pytest.raises(HurstRangeError):
        build_gram(GRID4, 0.005)
    with pytest.raises(HurstRangeError):
        build_gram(GRID4, 0.995)


def test_near_duplicate_times_fail_loudly():
    # near-duplicate rows at high H make the matrix numerically indefinite;
    # the failure surfaces instead of being patched with jitter
    grid = SamplingGrid((1.0, 1.0 + 1e-13, 2.0))
    with pytest.raises(FactorizationError):
        build_gram(grid, 0.99)
