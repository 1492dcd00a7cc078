import numpy as np
import pytest
from scipy.stats import ks_2samp

from fracmix import (
    EffectsLaw,
    EmbeddingError,
    GridError,
    HurstRangeError,
    RngStream,
    SamplingGrid,
    build_gram,
    simulate_panel,
)
from fracmix.fbm import exact_paths, fast_paths, fgn_spectrum
from fracmix.gram import cholesky_factor, fbm_covariance

PURE = EffectsLaw(0.0, 0.0)  # phi_i = 0: panel rows are the fBm paths


def test_rng_stream_reproducible():
    grid = SamplingGrid.uniform(16, 1.0)
    factor = cholesky_factor(grid, 0.7)
    a = exact_paths(factor, RngStream(42, 3), 1)
    b = exact_paths(factor, RngStream(42, 3), 1)
    assert np.array_equal(a, b)
    c = exact_paths(factor, RngStream(42, 4), 1)
    assert not np.array_equal(a, c)
    x = fast_paths(64, 1.0, 0.3, RngStream(7), 1)
    y = fast_paths(64, 1.0, 0.3, RngStream(7), 1)
    assert np.array_equal(x, y)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)


def test_exact_single_point_is_standard_normal():
    grid = SamplingGrid((1.0,))
    gm = build_gram(grid, 0.85)  # t1 = 1 so variance is 1 for any H
    draws = exact_paths(cholesky_factor(gm.grid, gm.h), RngStream(0), 10_000)[:, 0]
    assert abs(draws.mean()) < 0.03
    assert draws.var() == pytest.approx(1.0, rel=0.05)


def test_exact_brownian_increments():
    n, T = 8, 2.0
    grid = SamplingGrid.uniform(n, T)
    gm = build_gram(grid, 0.5)
    paths = exact_paths(cholesky_factor(gm.grid, gm.h), RngStream(1), 10_000)
    inc = np.diff(np.concatenate([np.zeros((paths.shape[0], 1)), paths], axis=1), axis=1)
    dt = T / n
    assert np.allclose(inc.var(axis=0), dt, rtol=0.05)
    # independence: neighbouring increments uncorrelated
    corr = np.corrcoef(inc[:, :-1].T.ravel(), inc[:, 1:].T.ravel())[0, 1]
    assert abs(corr) < 0.05


@pytest.mark.parametrize("method", ["exact", "fast"])
def test_exact_covariance_matches_gram(method):
    grid = SamplingGrid.uniform(8, 1.0)
    # an odd count leaves the fast sampler's last pair half used
    paths = simulate_panel(20_001, grid, 0.85, PURE, RngStream(2), noise=method).y
    assert paths.shape == (20_001, 8)
    emp = np.cov(paths.T, bias=True)
    V = fbm_covariance(grid, 0.85)
    assert np.max(np.abs(emp - V) / np.abs(V)) < 0.05


def test_fast_single_point():
    draws = fast_paths(1, 3.0, 0.7, RngStream(3), 20_000)[:, 0]
    assert draws.var() == pytest.approx(3.0 ** (2 * 0.7), rel=0.05)


def test_fast_brownian_increment_variance():
    n, T = 256, 1.0
    paths = fast_paths(n, T, 0.5, RngStream(4), 10_000)
    inc = np.diff(np.concatenate([np.zeros((paths.shape[0], 1)), paths], axis=1), axis=1)
    assert np.mean(inc.var(axis=0)) == pytest.approx(T / n, rel=0.03)


@pytest.mark.parametrize("h", [0.15, 0.85])
def test_fast_matches_exact_at_endpoint(h):
    # two-sample KS on the terminal marginal, 1% level
    n, T = 256, 5.0
    grid = SamplingGrid.uniform(n, T)
    gm = build_gram(grid, h)
    a = exact_paths(cholesky_factor(gm.grid, gm.h), RngStream(10, 0), 10_000)[:, -1]
    b = fast_paths(n, T, h, RngStream(10, 1), 10_000)[:, -1]
    assert ks_2samp(a, b).pvalue > 0.01


def test_self_similarity_endpoint_variance():
    h, T = 0.7, 5.0
    paths = fast_paths(128, T, h, RngStream(5), 10_000)
    assert paths[:, -1].var() == pytest.approx(T ** (2 * h), rel=0.03)


def test_stationary_increments():
    h = 0.85
    grid = SamplingGrid.uniform(16, 2.0)
    gm = build_gram(grid, h)
    paths = exact_paths(cholesky_factor(gm.grid, gm.h), RngStream(6), 20_000)
    t = grid.times
    for i, j in [(0, 3), (2, 9), (5, 15), (10, 14)]:
        emp = (paths[:, j] - paths[:, i]).var()
        assert emp == pytest.approx(abs(t[j] - t[i]) ** (2 * h), rel=0.05)


def test_fast_paired_paths_are_uncorrelated():
    # rows i and pairs + i are the real and imaginary parts of one
    # transform; their cross-covariance must vanish
    n, pairs, h = 16, 10_000, 0.85
    paths = fast_paths(n, 1.0, h, RngStream(12), 2 * pairs)
    re, im = paths[:pairs], paths[pairs:]
    cross = re.T @ im / pairs
    scale = np.sqrt(np.outer(re.var(axis=0), im.var(axis=0)))
    assert np.max(np.abs(cross) / scale) < 0.05


def test_spectrum_nonnegative_across_h():
    # the minimal fGn embedding is nonnegative definite for every H, so
    # fgn_spectrum never raises EmbeddingError
    for n in (1, 2, 3, 256, 1000, 2**16):
        for h in np.linspace(0.01, 0.99, 12):
            lam = fgn_spectrum(n, h)
            assert lam.size == 2 * n and lam.min() >= 0.0


def test_embedding_error_is_raised_on_negative_spectrum(monkeypatch):
    # the fGn embedding is nonnegative definite for every H, so force a
    # failure to check that the error reaches callers of either entry
    import fracmix.fbm as fbm_mod

    def bad_spectrum(n, h):
        raise EmbeddingError("synthetic failure")

    monkeypatch.setattr(fbm_mod, "fgn_spectrum", bad_spectrum)
    with pytest.raises(EmbeddingError):
        fast_paths(8, 1.0, 0.5, RngStream(0), 1)
    grid = SamplingGrid.uniform(8, 1.0)
    with pytest.raises(EmbeddingError):
        simulate_panel(3, grid, 0.5, PURE, RngStream(0), noise="fast")


def test_fast_requires_uniform_grid():
    grid = SamplingGrid((1.0, 1.2, 4.0))
    with pytest.raises(GridError):
        simulate_panel(1, grid, 0.5, PURE, RngStream(0), noise="fast")


def test_fbm_path_container():
    # one path per row, one column per grid time
    grid = SamplingGrid.uniform(32, 1.0)
    for method in ("exact", "fast"):
        assert simulate_panel(1, grid, 0.6, PURE, RngStream(9), noise=method).y.shape == (1, 32)
    with pytest.raises(ValueError, match="unknown sampling method"):
        simulate_panel(1, grid, 0.6, PURE, RngStream(9), noise="bogus")


def test_exact_sampler_without_gram_skips_the_estimator_build(monkeypatch):
    # the sampler reads only the Cholesky factor, so the Toeplitz pieces
    # that build_gram makes on a uniform grid must not run
    grid, law = SamplingGrid.uniform(64, 5.0), EffectsLaw(-2.0, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("Toeplitz build ran for the exact sampler")

    monkeypatch.setattr("fracmix.gram.levinson", refuse)  # the only Toeplitz solve
    got = simulate_panel(6, grid, 0.85, law, RngStream(8, 2), noise="exact")
    gen = RngStream(8, 2).generator()
    phi = law.mu + np.sqrt(law.sigma2) * gen.standard_normal(6)
    w = exact_paths(cholesky_factor(grid, 0.85), gen, 6)
    assert np.array_equal(got.y, phi[:, None] * grid.times[None, :] + w)
    assert np.array_equal(got.true_effects, phi)
    with pytest.raises(HurstRangeError):
        simulate_panel(6, grid, 0.995, law, RngStream(8, 2), noise="exact")
