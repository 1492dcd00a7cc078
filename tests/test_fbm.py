import tracemalloc

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
from fracmix.fbm import ExactSampler, FftSampler, fgn_spectrum, noise_sampler
from fracmix.gram import cholesky_factor, fbm_covariance

from exact_draws import oracle_exact_paths

PURE = EffectsLaw(0.0, 0.0)  # phi_i = 0: panel rows are the fBm paths


def test_rng_stream_reproducible():
    grid = SamplingGrid.uniform(16, 1.0)
    factor = cholesky_factor(grid, 0.7)
    a = ExactSampler(factor).paths(RngStream(42, 3).generator(), 1)
    b = ExactSampler(factor).paths(RngStream(42, 3).generator(), 1)
    assert np.array_equal(a, b)
    c = ExactSampler(factor).paths(RngStream(42, 4).generator(), 1)
    assert not np.array_equal(a, c)
    x = FftSampler(64, 1.0, 0.3).paths(RngStream(7).generator(), 1)
    y = FftSampler(64, 1.0, 0.3).paths(RngStream(7).generator(), 1)
    assert np.array_equal(x, y)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    # an address is two integers: 1.5 is not cut to seed 1
    with pytest.raises(ValueError, match="^seed: expected an integer, got 1.5$"):
        RngStream(1.5)
    with pytest.raises(ValueError, match="^stream_id: expected an integer, got True$"):
        RngStream(0, True)
    assert RngStream(np.uint64(2**64 - 1), np.int8(3)).generator().bit_generator.state == (
        RngStream(2**64 - 1, 3).generator().bit_generator.state
    )


def test_exact_single_point_is_standard_normal():
    grid = SamplingGrid((1.0,))
    gm = build_gram(grid, 0.85)  # t1 = 1 so variance is 1 for any H
    sampler = ExactSampler(cholesky_factor(gm.grid, gm.h))
    draws = sampler.paths(RngStream(0).generator(), 10_000)[:, 0]
    assert abs(draws.mean()) < 0.03
    assert draws.var() == pytest.approx(1.0, rel=0.05)


def test_exact_brownian_increments():
    n, T = 8, 2.0
    grid = SamplingGrid.uniform(n, T)
    gm = build_gram(grid, 0.5)
    paths = ExactSampler(cholesky_factor(gm.grid, gm.h)).paths(RngStream(1).generator(), 10_000)
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
    draws = FftSampler(1, 3.0, 0.7).paths(RngStream(3).generator(), 20_000)[:, 0]
    assert draws.var() == pytest.approx(3.0 ** (2 * 0.7), rel=0.05)


def test_fast_brownian_increment_variance():
    n, T = 256, 1.0
    paths = FftSampler(n, T, 0.5).paths(RngStream(4).generator(), 10_000)
    inc = np.diff(np.concatenate([np.zeros((paths.shape[0], 1)), paths], axis=1), axis=1)
    assert np.mean(inc.var(axis=0)) == pytest.approx(T / n, rel=0.03)


@pytest.mark.parametrize("h", [0.15, 0.85])
def test_fast_matches_exact_at_endpoint(h):
    # two-sample KS on the terminal marginal, 1% level
    n, T = 256, 5.0
    grid = SamplingGrid.uniform(n, T)
    gm = build_gram(grid, h)
    exact = ExactSampler(cholesky_factor(gm.grid, gm.h))
    a = exact.paths(RngStream(10, 0).generator(), 10_000)[:, -1]
    b = FftSampler(n, T, h).paths(RngStream(10, 1).generator(), 10_000)[:, -1]
    assert ks_2samp(a, b).pvalue > 0.01


def test_self_similarity_endpoint_variance():
    h, T = 0.7, 5.0
    paths = FftSampler(128, T, h).paths(RngStream(5).generator(), 10_000)
    assert paths[:, -1].var() == pytest.approx(T ** (2 * h), rel=0.03)


def test_stationary_increments():
    h = 0.85
    grid = SamplingGrid.uniform(16, 2.0)
    gm = build_gram(grid, h)
    paths = ExactSampler(cholesky_factor(gm.grid, gm.h)).paths(RngStream(6).generator(), 20_000)
    t = grid.times
    for i, j in [(0, 3), (2, 9), (5, 15), (10, 14)]:
        emp = (paths[:, j] - paths[:, i]).var()
        assert emp == pytest.approx(abs(t[j] - t[i]) ** (2 * h), rel=0.05)


def test_fast_paired_paths_are_uncorrelated():
    # rows i and pairs + i are the real and imaginary parts of one
    # transform; their cross-covariance must vanish
    n, pairs, h = 16, 10_000, 0.85
    paths = FftSampler(n, 1.0, h).paths(RngStream(12).generator(), 2 * pairs)
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
        FftSampler(8, 1.0, 0.5).paths(RngStream(0).generator(), 1)
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


def test_simulate_panel_opens_its_stream_once(monkeypatch):
    # effects and noise come from one generator, opened from the stream
    # address; a running generator has no address and is refused
    grid, opened = SamplingGrid.uniform(8, 1.0), []
    generator = RngStream.generator

    def counted(stream):
        opened.append(stream)
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", counted)
    for method in ("exact", "fast", "none"):
        simulate_panel(2, grid, 0.5, PURE, RngStream(3), noise=method)
    assert opened == [RngStream(3)] * 3
    with pytest.raises(TypeError, match="RngStream"):
        simulate_panel(2, grid, 0.5, PURE, generator(RngStream(3)))


def test_exact_sampler_without_gram_skips_the_estimator_build(monkeypatch):
    # the sampler reads only the Cholesky factor, so the Toeplitz pieces
    # that build_gram makes on a uniform grid must not run
    grid, law = SamplingGrid.uniform(64, 5.0), EffectsLaw(-2.0, 1.0)

    def refuse(*args, **kwargs):
        raise AssertionError("Toeplitz build ran for the exact sampler")

    monkeypatch.setattr("scipy.linalg._solve_toeplitz.levinson", refuse)  # the only Toeplitz solve
    got = simulate_panel(6, grid, 0.85, law, RngStream(8, 2), noise="exact")
    gen = RngStream(8, 2).generator()
    phi = law.mu + np.sqrt(law.sigma2) * gen.standard_normal(6)
    w = ExactSampler(cholesky_factor(grid, 0.85)).paths(gen, 6)
    assert np.array_equal(got.y, phi[:, None] * grid.times[None, :] + w)
    assert np.array_equal(got.true_effects, phi)
    with pytest.raises(HurstRangeError):
        simulate_panel(6, grid, 0.995, law, RngStream(8, 2), noise="exact")


# ------------------------------------------ the samplers' own paths
def oracle_fast_paths(n, horizon, h, gen, count):
    """The FFT sampler as a free function: spectrum, then all draws, then
    32 pairs per transform straight into one output."""
    lam = fgn_spectrum(n, h)
    scale, step = np.sqrt(lam / lam.size), (float(horizon) / n) ** h
    shape = ((count + 1) // 2, scale.size)
    re, im = gen.standard_normal(shape), gen.standard_normal(shape)
    pairs = re.shape[0]
    out = np.empty((count, n))
    for a in range(0, pairs, 32):
        b = min(a + 32, pairs)
        w = np.fft.fft(scale * (re[a:b] + 1j * im[a:b]), axis=1)[:, :n]
        np.cumsum(w.real, axis=1, out=out[a:b])
        tail = out[pairs + a : pairs + b]
        np.cumsum(w.imag[: tail.shape[0]], axis=1, out=tail)
    out *= step
    return out


# The tiles round the exact sampler's paths apart from one product L z,
# unless the product fits one tile (n^2 count <= 2^18): by at most 1.3
# units of eps times sum_k |L_jk z_k| at the sizes below (2.7 at n = 1024).
@pytest.mark.parametrize("h", [0.15, 0.5, 0.85])
@pytest.mark.parametrize("n", [1, 7, 64, 256])
@pytest.mark.parametrize("count", [1, 2, 33, 65, 1100])
def test_sampler_paths_are_bitwise_the_oracle(count, n, h):
    grid = SamplingGrid.uniform(n, 5.0)
    factor = cholesky_factor(grid, h)
    want = oracle_exact_paths(factor, RngStream(71, count).generator(), count)
    got = ExactSampler(factor).paths(RngStream(71, count).generator(), count)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    z = RngStream(71, count).generator().standard_normal((n, count))
    one = (factor @ z).T
    if n * n * count <= 2**18:
        assert got.tobytes() == one.tobytes()
    assert np.all(np.abs(got - one) <= 16 * np.finfo(float).eps * (np.abs(factor) @ np.abs(z)).T)
    fast = FftSampler(n, 5.0, h)
    want = oracle_fast_paths(n, 5.0, h, RngStream(72, count).generator(), count)
    got = fast.paths(RngStream(72, count).generator(), count)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # slope_noise's path 0 comes from the same synthesis as row 0 of paths
    form = fast.slope_form(build_gram(grid, h).weights)
    _, first = fast.slope_noise(form, RngStream(72, count).generator(), count, first_path=True)
    assert first.shape == (n,) and first.tobytes() == want[0].tobytes()


def oracle_fast_reads(n, horizon, h, form, gen, count):
    """slope_noise as one call: all real parts, then all imaginary parts,
    each read by one matrix-vector product per part of the form; and path
    0 synthesised from row 0 of each."""
    lam = fgn_spectrum(n, h)
    scale, step = np.sqrt(lam / lam.size), (float(horizon) / n) ** h
    shape = ((count + 1) // 2, scale.size)
    re, im = gen.standard_normal(shape), gen.standard_normal(shape)
    reads = np.concatenate([re @ form.real - im @ form.imag, re @ form.imag + im @ form.real])
    first = np.cumsum(np.fft.fft(scale * (re[0] + 1j * im[0]))[:n].real) * step
    return reads[:count], first


# (n, count): rows per block of 2n normals are 16384 at n = 1, 2336 at
# n = 7, 960 at n = 17, 64 at n = 256 and 16 at n = 1024 and 2048; the
# counts give one row, one block with a lone last row, and several blocks
# with and without one.  One product over all the rows is itself split
# across threads by OpenBLAS past 460,800 normals, which changes its
# bits with the thread count, so each half of the draws stays below that.
@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (1, 32769), (1, 98305), (7, 3), (7, 4673), (7, 9346), (17, 2), (17, 1921),
     (17, 4500), (17, 5762), (256, 129), (256, 400), (256, 641), (1024, 33), (1024, 199),
     (2048, 97), (2048, 98)],
)
def test_slope_reads_are_bitwise_the_one_call_oracle(n, count):
    h = (0.15, 0.5, 0.85)[count % 3]
    sampler = FftSampler(n, 5.0, h)
    form = sampler.slope_form(build_gram(SamplingGrid.uniform(n, 5.0), h).weights)
    want, want_first = oracle_fast_reads(n, 5.0, h, form, RngStream(74, count).generator(), count)
    got, first = sampler.slope_noise(form, RngStream(74, count).generator(), count, first_path=True)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert first.shape == (n,) and first.tobytes() == want_first.tobytes()
    got, none = sampler.slope_noise(form, RngStream(74, count).generator(), count)
    assert none is None and got.tobytes() == want.tobytes()


def test_fft_sampler_memory_is_one_block_past_its_output():
    # holding all 2 x 2000 x 2048 draws at once would take about 65 MB for
    # the reads, and 3x the paths' bytes for the paths; at n = 7 one block
    # (2,336 pairs) is a quarter of the output, and the paths peaked at 3.8x
    # with three complex copies of it and the last block kept while the next
    # was drawn (2.8x with one)
    h = 0.5
    for n, count, bound in [(1024, 4000, 2.1), (7, 20000, 3.0)]:
        sampler = FftSampler(n, 5.0, h)
        form = sampler.slope_form(build_gram(SamplingGrid.uniform(n, 5.0), h).weights)
        tracemalloc.start()
        try:
            sampler.slope_noise(form, RngStream(75).generator(), count, first_path=True)
            reads_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            paths = sampler.paths(RngStream(76).generator(), count)
            paths_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reads_peak < 4 * 2**20
        assert paths_peak <= bound * paths.nbytes, n


class CountingGenerator:
    """A generator that records the shape of each standard_normal call."""

    def __init__(self, gen):
        self.gen, self.shapes = gen, []

    def standard_normal(self, size):
        self.shapes.append(size)
        return self.gen.standard_normal(size)


# (n, count, blocks): time rows per block of count normals are 16 at
# count 4681 (at least 16), 64 at count 500 (a lone 65th row joins the
# block before it), 240 at count 129, 256 at count 128 and 1024 at count
# 32.  One block reads form @ z in one product; more round the split sum.
@pytest.mark.parametrize(
    "n,count,blocks",
    [(4, 50, 1), (7, 4681, 1), (64, 500, 1), (65, 500, 1), (256, 128, 1), (1024, 32, 1),
     (66, 500, 2), (256, 129, 2), (40, 4681, 3), (256, 500, 4), (1024, 500, 16)],
)
def test_exact_slope_reads_are_the_one_call_reads_up_to_the_split_sum(n, count, blocks):
    h = (0.15, 0.5, 0.85)[count % 3]
    grid = SamplingGrid.uniform(n, 5.0)
    sampler = ExactSampler(cholesky_factor(grid, h))
    form = sampler.slope_form(build_gram(grid, h).weights)
    gen = CountingGenerator(RngStream(77, count).generator())
    got, first = sampler.slope_noise(form, gen, count, first_path=True)
    assert len(gen.shapes) == blocks and sum(r * c for r, c in gen.shapes) == n * count
    z = RngStream(77, count).generator().standard_normal((n, count))  # the same normals at once
    want = form @ z
    assert got.shape == (count,) and first.tobytes() == (sampler.factor @ z[:, 0]).tobytes()
    if blocks == 1:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * (np.abs(form) @ np.abs(z)))
    again, none = sampler.slope_noise(form, RngStream(77, count).generator(), count)
    assert none is None and again.tobytes() == got.tobytes()


# Beyond its reads and path 0's normals (a row of 2n of each of the real
# and imaginary parts on the fast sampler, n on the exact one), a call
# holds its largest block of normals and at most SLACK of temporaries.
# Keeping each loop's last block while the fast sampler drew the next took
# 749 kB at n = 256 and 500 paths, and all n x 500 normals at once took
# 1.0 MB at n = 256 and 4.1 MB at n = 1024 on the exact sampler.
SLACK = 64 * 2**10


@pytest.mark.parametrize("method", ["exact", "fast"])
@pytest.mark.parametrize("n,count", [(32, 500), (256, 500), (256, 4096), (1024, 500), (4096, 16)])
def test_slope_reads_hold_one_block(method, n, count):
    grid = SamplingGrid.uniform(n, 5.0)
    sampler = noise_sampler(method, grid, 0.5)
    form = sampler.slope_form(build_gram(grid, 0.5).weights)
    counted = CountingGenerator(RngStream(78).generator())
    sampler.slope_noise(form, counted, count)
    block = 8 * max(r * c for r, c in counted.shapes)
    for first_path in (False, True):
        gen = RngStream(78).generator()  # the first one in a process imports numpy.random
        tracemalloc.start()
        try:
            reads, _ = sampler.slope_noise(form, gen, count, first_path=first_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        path0 = 8 * (4 * n if method == "fast" else n) if first_path else 0
        assert peak <= block + reads.nbytes + path0 + SLACK, (first_path, peak)


@pytest.mark.parametrize("n", [1, 7, 64, 1024])
def test_fft_synthesis_in_one_buffer_has_the_bits_of_the_expression(n):
    # signed zeros included: the real part of re + 1j * im is re + copysign(0, im),
    # so a -0.0 in re stays -0.0 only where im is negative
    sampler = FftSampler(n, 5.0, 0.3)
    scale = sampler._scaling[0]
    rng = np.random.default_rng(n)
    re, im = rng.standard_normal((2, 6, 2 * n))
    re[0], im[1] = -0.0, -0.0
    re[2, ::2], im[2, ::2], re[3, 1::2] = 0.0, -0.0, -0.0
    re[4], im[4] = -0.0, np.where(np.arange(2 * n) % 2, 0.0, -1.0)
    re[5], im[5] = -0.0, np.abs(im[5])  # scaled, the real parts are +0.0, not -0.0
    want = np.fft.fft(scale * (re + 1j * im), axis=-1)[..., :n]
    assert sampler._fgn(re, im).tobytes() == want.tobytes()
    assert sampler._fgn(re[4], im[4]).tobytes() == want[4].tobytes()


def test_fft_sampler_computes_its_spectrum_once(monkeypatch):
    import fracmix.fbm as fbm_mod

    calls, spectrum = [], fbm_mod.fgn_spectrum

    def spy(n, h):
        calls.append((n, h))
        return spectrum(n, h)

    monkeypatch.setattr(fbm_mod, "fgn_spectrum", spy)
    grid = SamplingGrid.uniform(64, 5.0)
    sampler = fbm_mod.noise_sampler("fast", grid, 0.7)
    sampler.paths(RngStream(73).generator(), 3)
    form = sampler.slope_form(build_gram(grid, 0.7).weights)
    for first_path in (False, True):
        sampler.slope_noise(form, RngStream(73).generator(), 3, first_path=first_path)
    sampler.paths(RngStream(74).generator(), 5)
    assert calls == [(64, 0.7)]


# ------------------------------------ the exact law of (mu_hat, sigma2_hat)
# At known H, mu_hat is N(mu, beta/N) and N(sigma2_hat + 1/q)/beta is
# chi-squared with N - 1 degrees of freedom, beta = sigma2 + 1/q.  Each of
# the 16 tests below (8 cells, 2 estimates) maps a cell's R = 1000
# estimates through that CDF and rejects at a Kolmogorov p-value below
# LAW_ALPHA, so a correct sampler fails a run with probability at most
# 16 * LAW_ALPHA = 0.16 %.
LAW_ALPHA = 1e-4


def law_p_values(monkeypatch):
    """(cell, p_mu, p_sigma2) per cell of an exact-sampler experiment on
    H in {0.15, 0.85} x N in {5, 50} x n in {32, 256}, R = 1000."""
    from scipy.special import chdtr, kolmogorov, ndtr

    from fracmix import experiment

    cfg = experiment.ExperimentConfig(
        h_list=(0.15, 0.85), subjects_list=(5, 50), n_obs_list=(32, 256), horizon=5.0,
        mu0=-2.0, sigma20=1.0, replications=1000, base_seed=4242,
    )
    reads, sigma2 = [], experiment.estimate_sigma2

    def spy(xi, q):  # once per cell, in cell order, with its (R, N) reads
        reads.append((xi.copy(), q))
        return sigma2(xi, q)

    monkeypatch.setattr(experiment, "estimate_sigma2", spy)
    experiment.run_experiment(cfg)

    def ks_p(u):
        u = np.sort(u)
        i = np.arange(1, u.size + 1)
        d = max(np.max(i / u.size - u), np.max(u - (i - 1) / u.size))
        return kolmogorov(np.sqrt(u.size) * d)

    out = []
    for (_, h, n_subjects, n_obs), (xi, q) in zip(cfg.cells(), reads, strict=True):
        beta = cfg.sigma20 + 1.0 / q
        mu_hat = xi.mean(axis=1)
        chi2 = n_subjects * np.var(xi, axis=1) / beta  # N (sigma2_hat + 1/q) / beta
        out.append((
            (h, n_subjects, n_obs),
            ks_p(ndtr((mu_hat - cfg.mu0) / np.sqrt(beta / n_subjects))),
            ks_p(chdtr(n_subjects - 1, chi2)),
        ))
    return out


def test_exact_sampler_estimates_follow_their_exact_law(monkeypatch):
    failed = [(cell, p_mu, p_s2) for cell, p_mu, p_s2 in law_p_values(monkeypatch)
              if min(p_mu, p_s2) < LAW_ALPHA]
    assert failed == []


@pytest.mark.parametrize("mutant", ["unscaled", "uncumulated"])
def test_exact_law_check_rejects_a_wrong_factor(monkeypatch, mutant):
    # the uniform-grid factor without its spacing**H scale, or without its
    # cumulative sum (a factor of the increments' covariance)
    import fracmix.fbm as fbm_mod
    from fracmix import gram

    def factor(grid, h):
        L = gram._schur(gram.fgn_autocovariance(len(grid), h))
        if mutant == "unscaled":
            return np.cumsum(L, axis=0)
        return L * (grid.horizon / len(grid)) ** h

    monkeypatch.setattr(fbm_mod, "cholesky_factor", factor)
    p = [min(p_mu, p_s2) for _, p_mu, p_s2 in law_p_values(monkeypatch)]
    assert min(p) < LAW_ALPHA
