import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import _solve_toeplitz, cholesky, solve_triangular, toeplitz

from fracmix import (
    EffectsLaw,
    ExperimentConfig,
    FactorizationError,
    GridError,
    HurstRangeError,
    Panel,
    RngStream,
    SamplingGrid,
    build_gram,
    estimate_effects,
    log_marginal_likelihood,
    run_experiment,
    simulate_panel,
    xi_values,
)
from fracmix import gram
from fracmix.fbm import noise_sampler
from fracmix.gram import cholesky_factor, fbm_covariance, hurst_value

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
    # a string is never parsed and a bool is not a number, wherever H enters
    law, stream = EffectsLaw(0.0, 1.0), RngStream(1)
    for bad in ("0.5", True, np.True_):
        message = f"^Hurst exponent: expected a real number, got {re.escape(repr(bad))}$"
        for call in (
            lambda: hurst_value(bad),
            lambda: build_gram(GRID4, bad),
            lambda: noise_sampler("fast", GRID4, bad),
            lambda: simulate_panel(2, GRID4, bad, law, stream, noise="fast"),
        ):
            with pytest.raises(HurstRangeError, match=message):
                call()


def test_grid_validation():
    with pytest.raises(GridError):
        SamplingGrid((0.0, 1.0))  # origin is not an observation
    with pytest.raises(GridError):
        SamplingGrid((1.0, 1.0, 2.0))
    with pytest.raises(GridError):
        SamplingGrid((2.0, 1.0))
    with pytest.raises(GridError):
        SamplingGrid(())
    for bad in ("5", True, np.True_, None):
        # not horizon 5.0 from "5", nor 1.0 from True
        with pytest.raises(GridError, match=f"^horizon: expected a real number, got {bad!r}$"):
            SamplingGrid.uniform(4, bad)
    g = SamplingGrid.uniform(4, 5.0)
    assert np.allclose(g.times, [1.25, 2.5, 3.75, 5.0])
    assert g.horizon == 5.0
    assert g.is_uniform
    assert not SamplingGrid((1.0, 1.1, 3.0)).is_uniform


@pytest.mark.parametrize("n", [2.5, 5.0, True, np.True_, "4"])
def test_uniform_grid_takes_an_integer_count_only(n):
    # not cut to [2, 4, 6] with horizon 6.0 at n = 2.5, nor one point at True
    with pytest.raises(GridError, match=f"^n: expected an integer, got {n!r}$"):
        SamplingGrid.uniform(n, 5.0)
    assert SamplingGrid.uniform(np.int64(4), 5.0) == SamplingGrid.uniform(4, 5.0)


def test_grids_are_values():
    a, b = SamplingGrid.uniform(8, 1.0), SamplingGrid.uniform(8, 1.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    assert SamplingGrid(a.times.copy()) == a and SamplingGrid(list(a.times)) == a
    others = (
        SamplingGrid.uniform(8, 2.0),
        SamplingGrid.uniform(7, 1.0),
        SamplingGrid(np.append(a.times[:-1], np.nextafter(1.0, 2.0))),  # one ulp off
    )
    for other in others:
        assert other != a and not other == a
    assert a != "grid"
    assert repr(a).startswith("SamplingGrid(times=array(") and "_key" not in repr(a)


def test_array_containers_compare_by_identity():
    grid = SamplingGrid((1.0, 1.7, 2.2, 4.0, 5.5))
    cfg = ExperimentConfig(
        h_list=(0.7,), subjects_list=(3,), n_obs_list=(8,), horizon=2.0,
        mu0=1.0, sigma20=0.5, replications=3,
    )
    pairs = [
        (build_gram(grid, 0.7), build_gram(grid, 0.7)),
        (build_gram(GRID4, 0.3), build_gram(GRID4, 0.3)),  # the Toeplitz backend
        (Panel(grid=GRID4, y=np.ones((2, 4))), Panel(grid=GRID4, y=np.ones((2, 4)))),
        (noise_sampler("exact", grid, 0.7), noise_sampler("exact", grid, 0.7)),
        (run_experiment(cfg)[0], run_experiment(cfg)[0]),
    ]
    cells = pairs[-1]
    pairs.append((cells[0].histograms["mu"], cells[1].histograms["mu"]))
    for a, b in pairs:
        assert a == a and not a == b and a != b, type(a).__name__
        assert hash(a) == hash(a) and len({a, b}) == 2


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
        L = cholesky_factor(gm.grid, gm.h)
        recon = L @ L.T
        assert np.max(np.abs(recon - V)) <= 1e-10 * np.max(np.abs(V))


@pytest.mark.parametrize("h", [0.05, 0.15, 0.35, 0.5, 0.65, 0.85, 0.95])
def test_positive_definite_across_range(h):
    gm = build_gram(SamplingGrid.uniform(256, 5.0), h)
    assert np.all(np.diag(cholesky_factor(gm.grid, gm.h)) > 0.0)


def test_hurst_conditioning_guard():
    with pytest.raises(HurstRangeError):
        build_gram(GRID4, 0.005)
    with pytest.raises(HurstRangeError):
        build_gram(GRID4, 0.995)


@pytest.mark.parametrize("horizon,h", [(1e-310, 0.5), (1e-200, 0.15), (1e300, 0.01), (1e308, 0.5)])
def test_grid_past_the_double_range_fails_loudly(horizon, h):
    # the weights overflow near the subnormal range, q underflows to 0 or
    # step^(2-2H) overflows, or V itself overflows: a FactorizationError
    # on both backends, and no numpy warning
    grid = SamplingGrid.uniform(16, horizon)
    with pytest.raises(FactorizationError):
        build_gram(grid, h)
        cholesky_factor(grid, h)
    with pytest.raises(FactorizationError):
        build_gram(SamplingGrid(grid.times * (1.0 + 1e-3 * np.arange(16) ** 2)), h)


def test_near_duplicate_times_fail_loudly():
    # near-duplicate rows at high H make the matrix numerically indefinite;
    # the failure surfaces instead of being patched with jitter
    grid = SamplingGrid((1.0, 1.0 + 1e-13, 2.0))
    with pytest.raises(FactorizationError):
        build_gram(grid, 0.99)


def test_quad_yy_past_the_double_range_fails_loudly():
    # q and log det stay finite at a tiny spacing, but spacing^(-2H) in
    # y'V^{-1}y does not: a named error, not a bare OverflowError
    grid = SamplingGrid.uniform(16, 1e-300)
    y = np.cumsum(np.random.default_rng(5).standard_normal((2, 16)), axis=1) * 1e-297
    gm = build_gram(grid, 0.99)
    with pytest.raises(FactorizationError, match=r"spacing 6\.25e-302.*H=0\.99"):
        log_marginal_likelihood(Panel(grid=grid, y=y), gm, EffectsLaw(0.0, 1.0))


@pytest.fixture
def factorizations(monkeypatch):
    """The factorizations on either path, the Schur pass on uniform grids
    and LAPACK on the others, by name as they start, and a weakref to
    each factor made."""
    schur, lapack, calls, refs = gram._schur, scipy.linalg.cholesky, [], []

    def recording(name, factor):
        def record(*args, **kwargs):
            calls.append(name)
            L = factor(*args, **kwargs)
            refs.append(weakref.ref(L))
            return L

        return record

    monkeypatch.setattr(gram, "_schur", recording("schur", schur))
    monkeypatch.setattr(scipy.linalg, "cholesky", recording("lapack", lapack))
    return calls, refs


ONE_CELL = ExperimentConfig(
    h_list=(0.7,), subjects_list=(3,), n_obs_list=(24,), horizon=3.5,
    mu0=-2.0, sigma20=1.0, replications=4,
)
NON_UNIFORM = SamplingGrid((1.0, 1.7, 2.2, 4.0, 5.5))


def test_v_is_factored_once_per_cell_not_per_replication(factorizations):
    run_experiment(ONE_CELL)
    assert factorizations[0] == ["schur"]


def test_schur_factors_uniform_grids_and_lapack_the_others(factorizations):
    calls, law = factorizations[0], EffectsLaw(-2.0, 1.0)
    simulate_panel(5, SamplingGrid.uniform(24, 3.5), 0.7, law, RngStream(2))
    assert calls == ["schur"]
    gm = build_gram(NON_UNIFORM, 0.7)  # the Cholesky backend factors V ...
    assert calls == ["schur", "lapack"]
    panel = simulate_panel(5, NON_UNIFORM, 0.7, law, RngStream(3))  # ... as the sampler does
    log_marginal_likelihood(panel, gm, law)  # which reads the backend's factor
    assert calls == ["schur", "lapack", "lapack"]


def test_cholesky_factor_is_read_only_and_a_value_of_the_times_and_h():
    for grid in (GRID4, NON_UNIFORM):
        L = cholesky_factor(grid, 0.7)
        assert not L.flags.writeable
        with pytest.raises(ValueError):
            L[0, 0] = 0.0
        again = cholesky_factor(SamplingGrid(grid.times.copy()), np.float64(0.7))
        assert again is not L and np.array_equal(again, L)


def test_cholesky_factor_failure_raises_on_every_call(factorizations):
    calls, bad = factorizations[0], SamplingGrid((1.0, 1.0 + 1e-13, 2.0))
    for count in (1, 2):
        with pytest.raises(FactorizationError):
            cholesky_factor(bad, 0.99)
        assert calls == ["lapack"] * count


def test_no_factor_outlives_its_caller(factorizations):
    calls, refs = factorizations
    law = EffectsLaw(-2.0, 1.0)
    for grid in (SamplingGrid.uniform(24, 3.5), NON_UNIFORM):
        panel = simulate_panel(5, grid, 0.7, law, RngStream(4), noise="exact")
        del panel
    run_experiment(ONE_CELL)
    assert calls == ["schur", "lapack", "schur"] and len(refs) == 3
    assert all(ref() is None for ref in refs)


# ------------------------------------------------ Toeplitz backend (uniform grids)
def dense_reference(grid, h):
    """quad_uu, log_det, weights and the Cholesky factor from V itself."""
    L = cholesky(fbm_covariance(grid, h), lower=True)
    wu = solve_triangular(L, grid.times, lower=True)
    q = wu @ wu
    weights = solve_triangular(L, wu / q, lower=True, trans="T")
    return q, 2.0 * np.sum(np.log(np.diag(L))), weights, L


def dense_log_likelihood(panel, h, law):
    """The marginal log-likelihood of effects.log_marginal_likelihood,
    with every V^{-1} read through the Cholesky factor."""
    q, log_det, weights, L = dense_reference(panel.grid, h)
    y_v_y = np.sum(solve_triangular(L, panel.y.T, lower=True) ** 2, axis=0)
    u_v_y = q * (panel.y @ weights)
    denom = q + 1.0 / law.sigma2
    quad = law.mu**2 / law.sigma2 + y_v_y - (u_v_y + law.mu / law.sigma2) ** 2 / denom
    n = len(panel.grid)
    return np.sum(
        -0.5 * n * np.log(2.0 * np.pi) - 0.5 * np.log(law.sigma2) - 0.5 * log_det
        - 0.5 * np.log(denom) - 0.5 * quad
    )


def assert_backends_agree(grid, h, rtol):
    """Compare build_gram with the dense reference at relative tolerance
    rtol; return the Gram matrix and the dense Cholesky factor."""
    gm = build_gram(grid, h)
    q, log_det, weights, L = dense_reference(grid, h)
    assert gm.quad_uu == pytest.approx(q, rel=rtol)
    assert abs(gm.log_det - log_det) <= rtol * max(1.0, abs(log_det))
    assert np.max(np.abs(gm.weights - weights)) <= rtol * np.max(np.abs(weights))
    law = EffectsLaw(-2.0, 1.0)
    panel = simulate_panel(4, grid, h, law, RngStream(11))
    got = log_marginal_likelihood(panel, gm, law)
    assert got == pytest.approx(dense_log_likelihood(panel, h, law), rel=rtol)
    return gm, L


@pytest.mark.parametrize("n", [1, 2, 3, 32, 256])
@pytest.mark.parametrize("h", [0.01, 0.15, 0.5, 0.85, 0.99])
def test_toeplitz_backend_matches_dense_reference(h, n):
    # the dense reference is backward stable, so its forward error is
    # bounded by a small multiple of eps * cond(V)
    grid = SamplingGrid.uniform(n, 5.0)
    V = fbm_covariance(grid, h)
    cond = np.linalg.cond(V)
    gm, L = assert_backends_agree(grid, h, 128 * np.finfo(float).eps * cond)
    # the exact sampler's factor (the Schur pass on a uniform grid) is a
    # lower triangular factor of V with a positive diagonal
    S = cholesky_factor(gm.grid, gm.h)
    assert S.shape == L.shape and np.array_equal(np.tril(S), S) and np.all(np.diag(S) > 0.0)
    # V = step^{2H} C R C' with C the cumulative-sum matrix: step^H C L_R, bit for bit
    L_R = gram._schur(gram.fgn_autocovariance(n, h))
    assert np.array_equal(S, np.float64(5.0 / n) ** h * np.cumsum(L_R, axis=0))
    assert np.max(np.abs(S @ S.T - V)) <= 16 * n * np.finfo(float).eps * np.max(np.abs(V))


@pytest.mark.parametrize("h", [0.01, 0.15, 0.5, 0.85, 0.99])
def test_toeplitz_backend_on_decimal_times(h):
    # 0.025 * j written in decimal: uniform within 1e-9 relative, but not
    # bitwise the times of SamplingGrid.uniform
    grid = SamplingGrid([float(f"{0.025 * j:.3f}") for j in range(1, 201)])
    assert grid.is_uniform
    assert not np.array_equal(grid.times, SamplingGrid.uniform(200, grid.horizon).times)
    assert_backends_agree(grid, h, 1e-8)


def test_toeplitz_slope_read_against_60_digit_oracle():
    mpmath = pytest.importorskip("mpmath")
    h, n = 0.99, 64
    grid = SamplingGrid.uniform(n, 5.0)  # spacing 5/64: exact in binary
    gen = np.random.default_rng(3)
    y = np.cumsum(gen.standard_normal(n)) - 2.0 * grid.times
    with mpmath.workdps(60):
        t = [mpmath.mpf(float(v)) for v in grid.times]
        two_h = 2 * mpmath.mpf(h)
        V = mpmath.matrix(n, n)
        for k in range(n):
            for l in range(n):
                V[k, l] = (t[k] ** two_h + t[l] ** two_h - abs(t[k] - t[l]) ** two_h) / 2
        v_inv_u = mpmath.lu_solve(V, mpmath.matrix(t))
        exact = float(
            mpmath.fsum(v_inv_u[j] * mpmath.mpf(float(y[j])) for j in range(n))
            / mpmath.fsum(v_inv_u[j] * t[j] for j in range(n))
        )
    xi = xi_values(Panel(grid=grid, y=[y]), build_gram(grid, h))[0]
    assert abs(xi / exact - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "acov",
    [
        lambda n, h: np.ones(n),  # rank one: the order-2 prediction error is 0
        lambda n, h: np.where(np.arange(n) == 1, 2.0, 1.0) * (np.arange(n) < 2),  # indefinite
    ],
    ids=["singular", "indefinite"],
)
def test_toeplitz_backend_rejects_non_positive_definite_autocovariance(monkeypatch, acov):
    monkeypatch.setattr(gram, "fgn_autocovariance", acov)
    with pytest.raises(FactorizationError):
        build_gram(SamplingGrid.uniform(8, 5.0), 0.5)


@pytest.mark.parametrize(
    "acov",
    [
        lambda n, h: np.ones(n),  # rank one: the first rotation has |rho| = 1
        lambda n, h: np.where(np.arange(n) == 1, 2.0, 1.0) * (np.arange(n) < 2),  # indefinite
    ],
    ids=["singular", "indefinite"],
)
def test_schur_pass_rejects_non_positive_definite_autocovariance(monkeypatch, acov):
    monkeypatch.setattr(gram, "fgn_autocovariance", acov)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a named error, and no numpy warning
        with pytest.raises(FactorizationError, match="not positive definite"):
            cholesky_factor(SamplingGrid.uniform(8, 5.0), 0.5)


def mp_cholesky(grid, h, mpmath):
    """The Cholesky factor of V at the grid's double times, to 40 digits."""
    n = len(grid)
    with mpmath.workdps(40):
        t = [mpmath.mpf(float(v)) for v in grid.times]
        two_h = 2 * mpmath.mpf(h)
        V = mpmath.matrix(n, n)
        for k in range(n):
            for l in range(n):
                V[k, l] = (t[k] ** two_h + t[l] ** two_h - abs(t[k] - t[l]) ** two_h) / 2
        L = mpmath.cholesky(V)
        return np.array([[float(L[k, l]) for l in range(n)] for k in range(n)])


@pytest.mark.parametrize("n", [24, 96])
@pytest.mark.parametrize("h", [0.15, 0.85, 0.99])
def test_schur_factor_against_40_digit_oracle(h, n):
    # spacing 1/16, exact in binary, so the grid is uniform to the last bit;
    # the error is the largest entry's, relative to the largest entry of L
    mpmath = pytest.importorskip("mpmath")
    grid = SamplingGrid.uniform(n, n / 16)
    exact = mp_cholesky(grid, h, mpmath)

    def error(L):
        return np.max(np.abs(L - exact)) / np.max(np.abs(exact))

    schur = error(cholesky_factor(grid, h))
    assert schur <= error(cholesky(fbm_covariance(grid, h), lower=True))  # LAPACK on V
    assert schur < 1e-12


def durbin_reference(r):
    """Durbin's recursion in Python on the symmetric Toeplitz R with first
    row r: the prediction error variances v and x = R^{-1}e_1."""
    n = r.size
    v = np.empty(n)
    b = np.empty(0)  # order-k predictor of x_k from x_0..x_{k-1}
    var = r[0]
    for k in range(n):
        if k:
            kappa = (r[k] - b @ r[1:k]) / var
            b = np.concatenate(([kappa], b - kappa * b[::-1]))
            var *= (1.0 - kappa) * (1.0 + kappa)
        if not var > 0.0:  # also catches NaN
            raise FactorizationError(f"not positive definite at order {k + 1} of {n}")
        v[k] = var
    return v, np.append(1.0, -b[::-1]) / var


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
@pytest.mark.parametrize("h", [0.01, 0.5, 0.99])
def test_levinson_matches_durbin_reference(h, n):
    # pins the layout of the private scipy solver's reflection coefficients
    r = gram.fgn_autocovariance(n + 1, h)
    s, x, v = gram._levinson(r)
    v_ref, x_ref = durbin_reference(r[:n])
    assert np.max(np.abs(v / v_ref - 1.0)) <= 1e-13
    log_det = np.sum(np.log(v_ref))
    assert abs(np.sum(np.log(v)) - log_det) <= 1e-13 * max(1.0, abs(log_det))
    assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))
    R = toeplitz(r[:n])
    assert np.max(np.abs(R @ s - 1.0)) <= 1e-13 * np.linalg.norm(R, np.inf) * np.max(np.abs(s))


@pytest.mark.parametrize(
    "r", [np.ones(8), np.array([1.0, 2.0, 0, 0, 0, 0, 0, 0])], ids=["singular", "indefinite"]
)
def test_levinson_rejects_what_durbin_rejects(r):
    with pytest.raises(FactorizationError):
        durbin_reference(r[:-1])
    with pytest.raises(FactorizationError):
        gram._levinson(r)


def complex_levinson(r):
    """``gram._levinson`` as one complex solve of R (phi + i s) = r_{1:n+1} + i:
    R is real, so its real and imaginary parts are the two real solves."""
    n = r.size - 1
    try:
        y, kappa = _solve_toeplitz.levinson(np.append(r[n - 1 : 0 : -1], r[:n]).astype(complex), r[1:] + 1j)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"Toeplitz covariance is singular (n={n})") from exc
    phi, k = y.real, kappa.real[1:]
    v = r[0] * np.cumprod(np.append(1.0, (1.0 - k) * (1.0 + k)))
    if not np.all(v > 0.0):
        raise FactorizationError(f"Toeplitz covariance is not positive definite (n={n})")
    return y.imag, np.append(1.0 / v[n - 1], -(phi[:-1] + k[-1] * phi[-2::-1]) / v[n]), v[:n]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 257, 1000, 2048])
def test_real_levinson_solves_equal_the_complex_solve(n):
    # s, x and v bit for bit, over H in [0.01, 0.99]
    for h in np.linspace(0.01, 0.99, 25):
        r = gram.fgn_autocovariance(n + 1, h)
        got, want = gram._levinson(r), complex_levinson(r)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], h


@pytest.mark.parametrize(
    "r", [np.ones(8), np.array([1.0, 2.0, 0, 0, 0, 0, 0, 0])], ids=["singular", "indefinite"]
)
def test_real_levinson_solves_reject_what_the_complex_solve_rejects(r):
    with pytest.raises(FactorizationError) as want:
        complex_levinson(r)
    with pytest.raises(FactorizationError) as got:
        gram._levinson(r)
    assert str(got.value) == str(want.value)
    assert type(got.value.__cause__) is type(want.value.__cause__)


def test_two_real_levinson_solves_per_uniform_build(monkeypatch):
    solve, calls = _solve_toeplitz.levinson, []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    def refuse(*args):
        raise AssertionError("a Toeplitz solve ran after build_gram")

    monkeypatch.setattr(_solve_toeplitz, "levinson", counting)
    law = EffectsLaw(-2.0, 1.0)
    for n in (2, 64, 300):
        grid = SamplingGrid.uniform(n, 5.0)
        gm = build_gram(grid, 0.7)
        assert len(calls) == 2 and not any(np.iscomplexobj(a) for args in calls for a in args)
        panel = simulate_panel(5, grid, 0.7, law, RngStream(n))
        est = estimate_effects(panel, gm)
        want = log_marginal_likelihood(panel, gm, law)
        # y'V^{-1}y reads only the stored first column of R^{-1}
        monkeypatch.setattr(_solve_toeplitz, "levinson", refuse)
        assert log_marginal_likelihood(panel, gm, law) == want
        assert estimate_effects(panel, gm) == est
        monkeypatch.setattr(_solve_toeplitz, "levinson", counting)
        calls.clear()
    build_gram(SamplingGrid((1.0, 1.5, 3.0)), 0.7)  # the Cholesky backend
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3, 256])
@pytest.mark.parametrize("h", [0.15, 0.5, 0.85])
def test_quad_yy_on_drift_dominated_rows(h, n):
    # on uniform grids y'V^{-1}y is a difference of two squared norms,
    # both of which a large drift inflates
    grid = SamplingGrid.uniform(n, 5.0)
    _, _, _, L = dense_reference(grid, h)
    noise = np.random.default_rng(9).standard_normal((6, n)) @ L.T
    drift = np.array([0.0, 1.0, -30.0, 1e2, -1e3, 1e3])
    y = np.vstack((drift[:, None] * grid.times + noise, 1e6 * grid.times))
    ref = np.sum(solve_triangular(L, y.T, lower=True) ** 2, axis=0)
    cond = np.linalg.cond(fbm_covariance(grid, h))
    got = build_gram(grid, h).quad_yy(y)
    assert np.all(np.abs(got - ref) <= 128 * np.finfo(float).eps * cond * ref)


def test_uniform_grid_estimation_allocates_no_n_by_n_array():
    # a dense V alone would take 8 n^2 bytes = 2.1 GB here
    n = 2**14
    grid = SamplingGrid.uniform(n, 5.0)
    y = np.cumsum(np.random.default_rng(4).standard_normal((4, n)), axis=1)
    panel = Panel(grid=grid, y=y)
    tracemalloc.start()
    try:
        gm = build_gram(grid, 0.85)
        est = estimate_effects(panel, gm)
        loglik = log_marginal_likelihood(panel, gm, EffectsLaw(est.mu_hat, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(loglik) and np.isfinite(est.sigma2_hat)
    assert peak < 16e6
