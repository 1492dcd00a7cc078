import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal, norm

from fracmix import (
    EffectsLaw,
    GridError,
    Panel,
    RngStream,
    SamplingGrid,
    build_gram,
    confidence_intervals,
    estimate_effects,
    estimate_mu,
    estimate_sigma2,
    exact_moments,
    log_marginal_likelihood,
    simulate_panel,
    xi_values,
)
from fracmix.effects import _abs_normal_quantile
from fracmix.gram import fbm_covariance

from exact_draws import exact_panels

GRID4 = SamplingGrid((1.25, 2.5, 3.75, 5.0))


def make_panel(y, grid=GRID4):
    return Panel(grid=grid, y=np.asarray(y, dtype=float))


def continuous_mu_tilde(panel):
    """Endpoint estimator mean_i Y^i(T) / T: the continuous-observation
    analogue of mu_hat, coinciding with it exactly at H = 1/2."""
    return float(np.mean(panel.y[:, -1]) / panel.grid.horizon)


# -------------------------------------------------------------------- xi
def test_xi_recovers_pure_slopes():
    gm = build_gram(GRID4, 0.7)
    panel = make_panel([c * GRID4.times for c in (-1.5, 0.0, 2.25)])
    assert np.allclose(xi_values(panel, gm), [-1.5, 0.0, 2.25], atol=1e-12)


def test_xi_brownian_is_endpoint_slope():
    gm = build_gram(GRID4, 0.5)
    gen = np.random.default_rng(0)
    panel = make_panel(gen.standard_normal((6, 4)))
    assert np.allclose(xi_values(panel, gm), panel.y[:, -1] / 5.0, atol=1e-10)


def test_xi_brownian_matches_dense_inverse():
    gm = build_gram(GRID4, 0.5)
    gen = np.random.default_rng(1)
    y = gen.standard_normal(4)
    panel = make_panel([y])
    u = GRID4.times
    vinv = np.linalg.inv(fbm_covariance(GRID4, 0.5))
    ref = (u @ vinv @ y) / (u @ vinv @ u)
    assert xi_values(panel, gm)[0] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("h,n", [(0.85, 8), (0.85, 256), (0.99, 1024)])
def test_xi_noise_free_panel_returns_effects(h, n):
    # without noise xi must equal phi exactly; the GLS weights keep the
    # rounding error to a few eps even where V is badly conditioned
    grid = SamplingGrid.uniform(n, 2.0)
    gm = build_gram(grid, h)
    p = simulate_panel(512, grid, h, EffectsLaw(1.0, 4.0), RngStream(5), noise="none")
    xi = xi_values(p, gm)
    assert np.allclose(xi, p.true_effects, atol=1e-10)
    assert np.max(np.abs(xi / p.true_effects - 1.0)) <= 128 * np.finfo(float).eps


def test_xi_grid_mismatch():
    gm = build_gram(SamplingGrid.uniform(4, 1.0), 0.5)
    with pytest.raises(GridError):
        xi_values(make_panel(np.zeros((1, 4))), gm)


@pytest.mark.parametrize("h", [0.3, 0.7])
def test_xi_takes_any_grid_equal_to_the_gram_grid(h):
    # GRID4 is uniform (Toeplitz backend); the other grid is not (Cholesky)
    for grid in (GRID4, SamplingGrid((1.0, 1.7, 2.2, 4.0))):
        gm = build_gram(grid, h)
        y = np.random.default_rng(4).standard_normal((3, 4))
        same = xi_values(make_panel(y, grid), gm)
        copy = xi_values(make_panel(y, SamplingGrid(grid.times.copy())), gm)
        assert copy.tobytes() == same.tobytes()
        moved = SamplingGrid(np.append(grid.times[:-1], np.nextafter(grid.horizon, 9.0)))
        with pytest.raises(GridError, match="does not match the Gram matrix grid"):
            xi_values(make_panel(y, moved), gm)


# property tests of the slope read: random panels on the 4-point grid
panels = st.tuples(
    st.sampled_from([0.15, 0.5, 0.85]),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
).map(lambda a: (a[0], np.random.default_rng(a[2]).normal(0.0, 3.0, (a[1], 4))))


@settings(max_examples=60, deadline=None)
@given(case=panels, c=st.floats(min_value=-1e3, max_value=1e3))
def test_xi_shifts_by_added_slope(case, c):
    # xi(Y + c u) = xi(Y) + c: the slope read is exactly linear in the drift
    h, y = case
    gm = build_gram(GRID4, h)
    base = xi_values(make_panel(y), gm)
    shifted = xi_values(make_panel(y + c * GRID4.times), gm)
    scale = np.max(np.abs(y)) + abs(c) * GRID4.horizon
    assert np.all(np.abs(shifted - (base + c)) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(case=panels, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_subject_permutation(case, seed):
    # xi follows the subjects; (mu_hat, sigma2_hat) do not see their order
    h, y = case
    gm = build_gram(GRID4, h)
    perm = np.random.default_rng(seed).permutation(y.shape[0])
    xi = xi_values(make_panel(y), gm)
    xi_perm = xi_values(make_panel(y[perm]), gm)
    eps, m = np.finfo(float).eps, np.max(np.abs(xi))
    assert np.all(np.abs(xi_perm - xi[perm]) <= 4 * eps * m)
    a, b = estimate_effects(make_panel(y), gm), estimate_effects(make_panel(y[perm]), gm)
    assert abs(a.mu_hat - b.mu_hat) <= 8 * eps * m
    assert abs(a.sigma2_hat - b.sigma2_hat) <= 16 * eps * (m * m + 1.0 / gm.quad_uu)


# ------------------------------------------------------------ mu / sigma2
def test_estimate_mu_trivia():
    assert estimate_mu(np.array([3.7])) == 3.7
    assert estimate_mu(np.array([1.0, 2.0, 3.0])) == 2.0


def test_estimate_sigma2_constant_sample_shows_negative_bias_term():
    xi = np.full(10, 4.0)
    assert estimate_sigma2(xi, 5.0) == pytest.approx(-0.2, abs=1e-15)


def test_estimate_sigma2_arithmetic():
    a = math.sqrt(1.2)
    xi = np.array([a, -a])  # population variance exactly 1.2
    assert estimate_sigma2(xi, 5.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("mu", [1e4, 1e6, 1e7])
def test_estimate_sigma2_exact_at_large_mean(mu):
    # a large common mean must not cancel the spread away
    xi = mu + RngStream(5).generator().standard_normal(500)
    exact = [Fraction(v) for v in xi]
    mean = sum(exact) / len(exact)
    ref = sum((v - mean) ** 2 for v in exact) / len(exact) - Fraction(1, 4)
    assert estimate_sigma2(xi, 4.0) == pytest.approx(float(ref), rel=1e-12)


def test_estimate_sigma2_needs_two_subjects():
    with pytest.raises(ValueError):
        estimate_sigma2(np.array([1.0]), 5.0)


@pytest.mark.parametrize("n_subjects", [2, 7, 500])
@pytest.mark.parametrize("panels", [1, 5, 400])
def test_estimators_reduce_each_row_of_a_matrix(panels, n_subjects):
    # an (R, N) matrix of reads gives R estimates, each bitwise its row's
    gen = RngStream(panels * 1000 + n_subjects).generator()
    xi = 3.0 + 1e4 * gen.standard_normal() + gen.standard_normal((panels, n_subjects))
    mu, sigma2 = estimate_mu(xi), estimate_sigma2(xi, 2.5)
    assert mu.shape == sigma2.shape == (panels,)
    assert mu.tobytes() == np.array([estimate_mu(row) for row in xi]).tobytes()
    assert sigma2.tobytes() == np.array([estimate_sigma2(row, 2.5) for row in xi]).tobytes()


def test_estimators_keep_their_float_and_errors_on_one_panel():
    assert type(estimate_mu(np.array([1.0, 2.0]))) is float
    assert type(estimate_mu([3.7])) is float
    assert type(estimate_sigma2(np.array([1.0, 2.0]), 5.0)) is float
    with pytest.raises(ValueError, match="^need at least one subject$"):
        estimate_mu(np.array([]))
    with pytest.raises(ValueError, match="^need at least two subjects, got 1$"):
        estimate_sigma2(np.array([1.0]), 5.0)
    with pytest.raises(ValueError, match="^q must be positive, got 0.0$"):
        estimate_sigma2(np.array([1.0, 2.0]), 0.0)
    # a matrix is checked per panel: N subjects, whatever R
    with pytest.raises(ValueError, match="^need at least two subjects, got 1$"):
        estimate_sigma2(np.ones((4, 1)), 5.0)


# ---------------------------------------------------------- exact moments
def test_exact_moments_reference_values():
    # q = 5 on the 4-point horizon-5 Brownian grid
    m50 = exact_moments(1.0, 50, 5.0)
    assert m50.std_mu == pytest.approx(math.sqrt(0.024), rel=1e-12)
    assert round(m50.std_mu, 4) == 0.1549
    assert m50.std_sigma2 == pytest.approx(math.sqrt(98) / 50 * 1.2, rel=1e-12)
    assert round(m50.std_sigma2, 4) == 0.2376
    m500 = exact_moments(1.0, 500, 5.0)
    assert round(m500.std_mu, 4) == 0.0490
    assert round(m500.std_sigma2, 4) == 0.0758


def test_exact_moments_mean_formula():
    m = exact_moments(1.0, 50, 5.0)
    assert m.mean_sigma2 == pytest.approx(49 / 50 - 1 / 250, rel=1e-14)


def test_exact_moments_validation():
    with pytest.raises(ValueError):
        exact_moments(1.0, 0, 5.0)
    with pytest.raises(ValueError):
        exact_moments(1.0, 10, 0.0)
    with pytest.raises(ValueError):
        exact_moments(-10.0, 10, 5.0)  # below -1/q


def test_exact_moments_zero_spread_panel_has_zero_mu_variance():
    # a panel of identical subjects has sigma2_hat = -1/q exactly, where
    # sigma2/N and 1/(N q) cancel to a few ulps of either sign
    below = []
    for q in np.linspace(0.5, 50.0, 400):
        for n in (3, 5, 7):
            sigma2 = -1.0 / q
            if sigma2 / n + 1.0 / (n * q) < 0.0:
                below.append((sigma2, n, q))
    assert below
    for sigma2, n, q in below:
        assert exact_moments(sigma2, n, q).std_mu == 0.0
    with pytest.raises(ValueError):
        exact_moments(-1.0001 / 5.0, 7, 5.0)  # below -1/q by more than rounding


# ------------------------------------------------- sampling distributions
def _estimates(h, n, reps, seed):
    """The Gram matrix, and mu_hat and sigma2_hat of each of the reps
    50-subject panels ``exact_panels`` draws on the uniform n-point grid."""
    gm = build_gram(SamplingGrid.uniform(n, 5.0), h)
    xis = [xi_values(p, gm) for p in exact_panels(50, gm.grid, h, seed, reps)]
    mus = np.array([estimate_mu(xi) for xi in xis])
    s2s = np.array([estimate_sigma2(xi, gm.quad_uu) for xi in xis])
    return gm, mus, s2s


@pytest.mark.parametrize("h,n", [(0.15, 4), (0.5, 8), (0.85, 4)])
def test_mu_estimator_unbiased(h, n):
    reps = 2000
    gm, mus, _ = _estimates(h, n, reps, seed=31)
    m = exact_moments(1.0, 50, gm.quad_uu)
    assert abs(mus.mean() + 2.0) <= 4.0 * m.std_mu / math.sqrt(reps)


@pytest.mark.parametrize("h", [0.15, 0.5, 0.85])
@pytest.mark.parametrize("n", [4, 32, 256])
def test_mu_estimator_variance_matches_exact(h, n):
    reps = 2000
    gm, mus, _ = _estimates(h, n, reps, seed=37)
    m = exact_moments(1.0, 50, gm.quad_uu)
    assert mus.std() == pytest.approx(m.std_mu, rel=0.10)


@pytest.mark.parametrize("h,n", [(0.5, 8), (0.85, 32)])
def test_sigma2_estimator_bias_formula(h, n):
    reps = 2000
    gm, _, s2s = _estimates(h, n, reps, seed=41)
    m = exact_moments(1.0, 50, gm.quad_uu)
    assert abs(s2s.mean() - m.mean_sigma2) <= 4.0 * m.std_sigma2 / math.sqrt(reps)


def test_mu_estimator_clt_shape():
    reps = 2000
    gm, mus, _ = _estimates(0.85, 32, reps, seed=43)
    m = exact_moments(1.0, 50, gm.quad_uu)
    z = (mus + 2.0) / m.std_mu
    skew = np.mean(z**3) - 3 * z.mean() * z.var() - z.mean() ** 3
    kurt = np.mean((z - z.mean()) ** 4) / z.var() ** 2 - 3.0
    assert abs(skew) < 0.2
    assert abs(kurt) < 0.4


# -------------------------------------------------------------- intervals
def test_interval_width_formula():
    est_level = 0.95
    grid = SamplingGrid.uniform(4, 5.0)
    gm = build_gram(grid, 0.5)
    p = simulate_panel(500, grid, 0.5, EffectsLaw(-2.0, 1.0), RngStream(51))
    est = estimate_effects(p, gm)
    (lo, hi), (lo2, hi2) = confidence_intervals(est, est_level)
    z = norm.ppf(0.975)
    assert hi - lo == pytest.approx(2 * z * math.sqrt(est.beta_hat / 500), rel=1e-12)
    assert hi2 - lo2 == pytest.approx(2 * z * est.beta_hat * math.sqrt(2 / 500), rel=1e-12)
    assert lo < est.mu_hat < hi


def test_interval_half_width_reference():
    # beta = 1.2, N = 500, 95%: half width 1.959964 * sqrt(1.2/500)
    z = norm.ppf(0.975)
    assert z * math.sqrt(1.2 / 500) == pytest.approx(0.09602, abs=5e-6)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_interval_quantile_is_normal_ppf_bitwise(level):
    # the default level keeps scipy's z bit for bit; at the others z is
    # within 4e-16 relative of 40 digits, which norm.ppf need not be
    panel = make_panel([[1.0, 2.0, 3.5, 4.0], [0.5, 1.5, 2.0, 3.0], [2.0, 2.5, 4.0, 6.5]])
    est = estimate_effects(panel, build_gram(GRID4, 0.7))
    n = est.n_subjects
    z = _abs_normal_quantile(level)
    if level == 0.95:
        assert z == float(norm.ppf(0.975)) == 1.959963984540054
    with mpmath.workdps(40):
        assert abs(z / (mpmath.sqrt(2) * mpmath.erfinv(level)) - 1) <= 4e-16
    half_mu = z * np.sqrt(est.beta_hat / n)
    half_s2 = z * est.beta_hat * np.sqrt(2.0 / n)
    assert confidence_intervals(est, level) == (
        (est.mu_hat - half_mu, est.mu_hat + half_mu),
        (est.sigma2_hat - half_s2, est.sigma2_hat + half_s2),
    )


def test_interval_level_to_zero_collapses():
    grid = SamplingGrid.uniform(4, 5.0)
    gm = build_gram(grid, 0.5)
    p = simulate_panel(10, grid, 0.5, EffectsLaw(0.0, 1.0), RngStream(52))
    est = estimate_effects(p, gm)
    (lo, hi), (lo2, hi2) = confidence_intervals(est, 1e-12)
    assert hi - lo < 1e-10
    assert hi2 - lo2 < 1e-10
    with pytest.raises(ValueError):
        confidence_intervals(est, 1.5)


def test_intervals_stay_finite_as_the_level_nears_one():
    # (1 + level) / 2 rounds to 1 at 1 - 2^-53, whose normal quantile is
    # infinite; P(|Z| <= z) = level has the root z = 8.2924
    est = estimate_effects(
        make_panel([[1.0, 2.0, 3.5, 4.0], [0.5, 1.5, 2.0, 3.0], [2.0, 2.5, 4.0, 6.5]]),
        build_gram(GRID4, 0.7),
    )
    (lo, hi), (lo2, hi2) = confidence_intervals(est, math.nextafter(1.0, 0.0))
    assert np.isfinite([lo, hi, lo2, hi2]).all()
    assert hi - lo == pytest.approx(2 * 8.292361075813596 * math.sqrt(est.beta_hat / 3), rel=1e-14)


def test_interval_coverage():
    reps, level = 400, 0.95
    grid = SamplingGrid.uniform(32, 5.0)
    gm = build_gram(grid, 0.5)
    hits = 0
    for p in exact_panels(500, grid, 0.5, 53, reps):
        est = estimate_effects(p, gm)
        (lo, hi), _ = confidence_intervals(est, level)
        hits += lo <= -2.0 <= hi
    assert 0.92 <= hits / reps <= 0.98


# ------------------------------------------------------------- likelihood
def quadrature_log_likelihood(panel, gm, mu, sigma2):
    """Direct 1-D integration of the conditional density against the
    effect law; the independent oracle for the closed form."""
    total = 0.0
    sd = math.sqrt(sigma2)
    V = fbm_covariance(gm.grid, gm.h)
    for yi in panel.y:
        f = lambda phi: multivariate_normal.pdf(yi, mean=phi * panel.grid.times, cov=V) * norm.pdf(phi, mu, sd)
        val, _ = quad(f, mu - 10 * sd, mu + 10 * sd, epsabs=1e-12, epsrel=1e-10, limit=200)
        total += math.log(val)
    return total


def test_likelihood_single_point_marginal():
    grid = SamplingGrid((1.0,))
    for h in (0.15, 0.5, 0.85):
        gm = build_gram(grid, h)
        y = np.array([[0.3], [-1.7], [2.2]])
        panel = Panel(grid=grid, y=y)
        got = log_marginal_likelihood(panel, gm, EffectsLaw(-0.5, 2.0))
        want = norm.logpdf(y[:, 0], loc=-0.5, scale=math.sqrt(2.0 + 1.0)).sum()
        assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("h,mu,s2", [(0.5, 0.0, 1.0), (0.85, -2.0, 1.0), (0.15, 1.5, 0.25)])
def test_likelihood_matches_quadrature(h, mu, s2):
    gm = build_gram(GRID4, h)
    p = simulate_panel(3, GRID4, h, EffectsLaw(mu, s2), RngStream(61))
    got = log_marginal_likelihood(p, gm, EffectsLaw(mu, s2))
    want = quadrature_log_likelihood(p, gm, mu, s2)
    assert got == pytest.approx(want, abs=1e-6)


def test_likelihood_matches_quadrature_on_non_uniform_grid():
    # non-uniform grids read Y'V^{-1}Y through the Cholesky factor
    grid = SamplingGrid((1.0, 1.2, 4.0, 4.5))
    gm = build_gram(grid, 0.7)
    p = simulate_panel(3, grid, 0.7, EffectsLaw(-1.0, 0.5), RngStream(64))
    got = log_marginal_likelihood(p, gm, EffectsLaw(-1.0, 0.5))
    assert got == pytest.approx(quadrature_log_likelihood(p, gm, -1.0, 0.5), abs=1e-6)


def test_likelihood_argmax_in_mu_is_mu_hat():
    gm = build_gram(GRID4, 0.85)
    p = simulate_panel(40, GRID4, 0.85, EffectsLaw(-2.0, 1.0), RngStream(62))
    mu_hat = estimate_effects(p, gm).mu_hat
    center = log_marginal_likelihood(p, gm, EffectsLaw(mu_hat, 1.0))
    for step in (1e-4, 1e-2, 0.5):
        for sign in (-1.0, 1.0):
            other = log_marginal_likelihood(p, gm, EffectsLaw(mu_hat + sign * step, 1.0))
            assert other < center


@pytest.mark.parametrize("grid", [GRID4, SamplingGrid((1.0, 1.2, 4.0, 4.5))])
def test_likelihood_at_zero_sigma2_is_dense_density(grid):
    # with phi_i = mu for every subject, Y^i - mu u ~ N(0, V) independently
    mu, gm = -1.0, build_gram(grid, 0.7)
    p = simulate_panel(3, grid, 0.7, EffectsLaw(mu, 0.5), RngStream(63))
    got = log_marginal_likelihood(p, gm, EffectsLaw(mu, 0.0))
    dense = multivariate_normal(np.zeros(len(grid)), fbm_covariance(grid, 0.7))
    want = float(np.sum(dense.logpdf(p.y - mu * grid.times)))
    assert got == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------ continuous mu_tilde
def test_mu_tilde_noise_free():
    grid = SamplingGrid.uniform(4, 5.0)
    p = simulate_panel(20, grid, 0.5, EffectsLaw(-2.0, 1.0), RngStream(71), noise="none")
    assert continuous_mu_tilde(p) == pytest.approx(p.true_effects.mean(), rel=1e-14)


def test_mu_tilde_equals_mu_hat_for_brownian():
    grid = SamplingGrid.uniform(16, 5.0)
    gm = build_gram(grid, 0.5)
    p = simulate_panel(50, grid, 0.5, EffectsLaw(-2.0, 1.0), RngStream(72))
    assert continuous_mu_tilde(p) == pytest.approx(estimate_effects(p, gm).mu_hat, abs=1e-10)


def test_mu_tilde_single_subject():
    grid = SamplingGrid((1.0, 5.0))
    p = Panel(grid=grid, y=np.array([[1.0, -10.0]]))
    assert continuous_mu_tilde(p) == -2.0


# --------------------------------------------------------- full estimator
def test_estimate_effects_fields_consistent():
    grid = SamplingGrid.uniform(8, 5.0)
    gm = build_gram(grid, 0.7)
    p = simulate_panel(100, grid, 0.7, EffectsLaw(-2.0, 1.0), RngStream(73))
    est = estimate_effects(p, gm)
    xi = xi_values(p, gm)
    assert est.mu_hat == estimate_mu(xi)
    assert est.beta_hat == pytest.approx(np.var(xi), rel=1e-12)  # sigma2_hat + 1/q
    assert est.q == gm.quad_uu
    assert est.exact_std_mu > 0 and est.exact_std_sigma2 > 0
