import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fracmix import (
    EffectsLaw,
    GridError,
    NonFiniteError,
    Panel,
    RngStream,
    SamplingGrid,
    simulate_panel,
)
from fracmix.fbm import fgn_spectrum
from fracmix.gram import cholesky_factor

from exact_draws import oracle_exact_paths


def test_effects_law_validation():
    with pytest.raises(ValueError):
        EffectsLaw(0.0, -1.0)
    with pytest.raises(ValueError):
        EffectsLaw(float("inf"), 1.0)
    with pytest.raises(ValueError, match="^sigma2 must be finite and >= 0, got inf$"):
        EffectsLaw(0.0, float("inf"))
    with pytest.raises(ValueError, match="^mu: expected a real number, got '1'$"):
        EffectsLaw("1", 1.0)
    with pytest.raises(ValueError, match="^sigma2: expected a real number, got True$"):
        EffectsLaw(0.0, True)
    assert EffectsLaw(-2.0, 0.0).sigma2 == 0.0


def test_degenerate_effect_noise_free():
    grid = SamplingGrid.uniform(6, 3.0)
    p = simulate_panel(1, grid, 0.5, EffectsLaw(-2.0, 0.0), RngStream(0), noise="none")
    assert np.array_equal(p.y[0], -2.0 * grid.times)


def test_noise_free_rows_are_linear_in_t():
    grid = SamplingGrid((0.5, 1.0, 2.5, 4.0))
    p = simulate_panel(5, grid, 0.7, EffectsLaw(1.0, 2.0), RngStream(3), noise="none")
    for i in range(5):
        assert np.array_equal(p.y[i], p.true_effects[i] * grid.times)


def test_marginal_variance_at_horizon():
    # Var Y(T) = T^2 sigma2 + T^{2H} = 25 + 5 = 30 here
    grid = SamplingGrid.uniform(4, 5.0)
    p = simulate_panel(500, grid, 0.5, EffectsLaw(-2.0, 1.0), RngStream(9))
    assert p.y[:, -1].var() == pytest.approx(30.0, rel=0.05)


def test_single_time_moments():
    grid = SamplingGrid((1.0,))
    p = simulate_panel(10_000, grid, 0.85, EffectsLaw(-2.0, 1.0), RngStream(12))
    y = p.y[:, 0]
    assert y.mean() == pytest.approx(-2.0, abs=0.05)
    assert y.var() == pytest.approx(2.0, rel=0.03)


def test_subjects_independent_across_panel():
    grid = SamplingGrid.uniform(3, 1.0)
    ends = np.empty((10_000, 2))
    for r in range(ends.shape[0]):
        p = simulate_panel(2, grid, 0.7, EffectsLaw(0.0, 1.0), RngStream(100, r), noise="fast")
        ends[r] = p.y[:, -1]
    corr = np.corrcoef(ends[:, 0], ends[:, 1])[0, 1]
    assert abs(corr) <= 0.05


def test_fast_noise_matches_grid():
    grid = SamplingGrid.uniform(16, 2.0)
    p = simulate_panel(4, grid, 0.3, EffectsLaw(0.5, 0.25), RngStream(7), noise="fast")
    assert p.y.shape == (4, 16)


def test_panel_grid_mismatch_is_rejected():
    from fracmix import Panel

    with pytest.raises(GridError):
        Panel(grid=SamplingGrid.uniform(4, 1.0), y=np.zeros((2, 3)))


@pytest.mark.parametrize(
    "bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]], ids=["nan", "inf", "-inf", "inf-inf"]
)
def test_panel_rejects_non_finite_y(bad):
    y = np.zeros((2, 4))
    y[1, 2 : 2 + len(bad)] = bad
    with pytest.raises(NonFiniteError, match="^panel observations must be finite$"):
        Panel(grid=SamplingGrid.uniform(4, 1.0), y=y)


def test_panel_takes_finite_rows_whose_sum_overflows():
    # the sums of these are inf and NaN (inf plus -inf), so the elementwise
    # check decides, and finds every entry finite
    mixed = np.full((3, 4), 1e308)
    mixed[1] = -1e308
    mixed[2, 0] = -np.finfo(float).max
    for y in (np.full((3, 4), 1e308), mixed):
        with np.errstate(all="raise"):  # and no floating-point warning escapes
            panel = Panel(grid=SamplingGrid.uniform(4, 1.0), y=y)
        assert panel.y.tobytes() == y.tobytes()


def test_panel_finiteness_check_needs_no_elementwise_temporary():
    # np.isfinite(y) on the noise-free 512 x 4096 panel is a 2.1 MB mask
    y = np.ones((512, 4096))
    y.flags.writeable = False
    grid = SamplingGrid.uniform(4096, 5.0)
    tracemalloc.start()
    try:
        panel = Panel(grid=grid, y=y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.y is y
    assert peak <= 0.01 * y.nbytes


# ------------------------------------------------- one buffer per panel
def whole_array_fast_paths(n, horizon, h, gen, count):
    """The FFT sampler synthesising all pairs in one transform."""
    lam = fgn_spectrum(n, h)
    scale, step = np.sqrt(lam / lam.size), (float(horizon) / n) ** h
    shape = ((count + 1) // 2, lam.size)
    re, im = gen.standard_normal(shape), gen.standard_normal(shape)
    w = np.fft.fft(scale * (re + 1j * im), axis=1)[:, :n]
    return np.cumsum(np.concatenate([w.real, w.imag])[:count], axis=1) * step


def separate_buffers_panel(n_subjects, grid, h, law, stream, noise):
    """y = phi t + w with the paths w drawn as a separate array."""
    gen = stream.generator()
    phi = law.mu + np.sqrt(law.sigma2) * gen.standard_normal(n_subjects)
    if noise == "none":
        w = np.zeros((n_subjects, len(grid)))
    elif noise == "exact":
        w = oracle_exact_paths(cholesky_factor(grid, h), gen, n_subjects)
    else:
        w = whole_array_fast_paths(len(grid), grid.horizon, h, gen, n_subjects)
    return phi[:, None] * grid.times[None, :] + w


@pytest.mark.parametrize("count", [1, 2, 31, 32, 33, 64, 65, 500])
@pytest.mark.parametrize("noise", ["exact", "fast", "none"])
def test_simulated_panel_is_bitwise_the_separate_buffers_sum(noise, count):
    law = EffectsLaw(-2.0, 1.0)
    for n, h in [(1, 0.5), (7, 0.15), (64, 0.85), (256, 0.5)]:
        grid = SamplingGrid.uniform(n, 5.0)
        got = simulate_panel(count, grid, h, law, RngStream(61, count), noise=noise)
        want = separate_buffers_panel(count, grid, h, law, RngStream(61, count), noise)
        assert got.y.shape == want.shape
        assert got.y.tobytes() == want.tobytes()


# One product L z over all the paths was split across threads by OpenBLAS,
# and gave other bytes at 1 and 2 threads at each of these sizes
EXACT_PANEL_DIGESTS = """
import hashlib
from fracmix import EffectsLaw, RngStream, SamplingGrid, simulate_panel
for n in (256, 512, 1024):
    panel = simulate_panel(500, SamplingGrid.uniform(n, 5.0), 0.3, EffectsLaw(-2.0, 1.0),
                           RngStream(65, n), noise="exact")
    print(n, hashlib.sha256(panel.y.tobytes()).hexdigest())
"""


def test_exact_panels_do_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-c", EXACT_PANEL_DIGESTS],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=600,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(res.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]


def test_noise_free_panel_keeps_the_sign_of_zero():
    # phi = -0.0 + 0.0 z is -0.0 for z < 0; -0.0 t + 0.0 is +0.0
    grid, law = SamplingGrid.uniform(8, 5.0), EffectsLaw(-0.0, 0.0)
    got = simulate_panel(40, grid, 0.5, law, RngStream(62), noise="none")
    assert np.signbit(got.true_effects).any()
    assert not np.signbit(got.y).any()
    want = separate_buffers_panel(40, grid, 0.5, law, RngStream(62), "none")
    assert got.y.tobytes() == want.tobytes()


# fast-4.0 held before the FFT sampler drew its normals a block at a time
# (3.1x then); fast-2.5 holds since (2.2x)
@pytest.mark.parametrize("noise,bound", [("fast", 4.0), ("fast", 2.5), ("none", 1.3), ("exact", 2.3)])
def test_simulation_peak_memory(noise, bound):
    n_subjects, grid, h = 4096, SamplingGrid.uniform(256, 5.0), 0.85
    tracemalloc.start()
    try:
        panel = simulate_panel(n_subjects, grid, h, EffectsLaw(-2.0, 1.0), RngStream(63), noise=noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * panel.y.nbytes


def test_panel_adopts_its_simulated_buffer():
    panel = simulate_panel(3, SamplingGrid.uniform(4, 1.0), 0.5, EffectsLaw(0.0, 1.0), RngStream(64))
    assert panel.y.flags.owndata and not panel.y.flags.writeable
    y = np.ones((3, 4))
    y.flags.writeable = False
    assert Panel(grid=SamplingGrid.uniform(4, 1.0), y=y).y is y


def read_only(a):
    a.flags.writeable = False
    return a


class Tagged(np.ndarray):
    """An ndarray subclass; ``Tagged(shape)`` owns its buffer."""


def owned_subclass():
    a = Tagged((3, 4))
    a[...] = 1.0
    return read_only(a)


@pytest.mark.parametrize(
    "make",
    [
        lambda: np.ones((3, 4)),  # writeable
        lambda: read_only(np.ones((3, 4))[:]),  # read-only view of a writeable base
        lambda: read_only(np.asfortranarray(np.ones((3, 4)))),  # owns, not C-contiguous
        lambda: read_only(np.ones((3, 4), dtype=np.int64)),
        lambda: read_only(np.ones((3, 4), dtype=">f8")),
        owned_subclass,
    ],
    ids=["writeable", "read-only-view", "fortran", "int", "big-endian", "subclass"],
)
def test_panel_copies_what_it_does_not_adopt(make):
    given = make()
    panel = Panel(grid=SamplingGrid.uniform(4, 1.0), y=given)
    assert panel.y is not given
    assert type(panel.y) is np.ndarray and panel.y.dtype == np.float64
    assert not panel.y.flags.writeable
    base = given if given.flags.owndata else given.base
    base.flags.writeable = True
    base[...] = 5  # the caller's array changes; the panel does not
    assert np.array_equal(panel.y, np.ones((3, 4)))

