"""Exact-sampler draws shared by the test modules: a free-function oracle
of ``ExactSampler.paths``, and many panels drawn from one held sampler."""

import numpy as np

from fracmix import EffectsLaw, Panel, RngStream, simulate_panel
from fracmix.fbm import noise_sampler
from fracmix.panel import draw_effects


def oracle_exact_paths(factor, gen, count):
    """The exact sampler as a free function: the rows of (L z)', z drawn
    at once, the product taken in tiles.  The paths are cut into blocks of
    about 2^15 normals (a multiple of 16 paths, at least 16, a lone last
    path joining the block before it), and each block's rows into bands
    of as many rows as keep rows x n x paths within 2^18; a band
    multiplies its rows of L, up to the diagonal, by the normals they
    reach."""
    n = factor.shape[0]
    z = gen.standard_normal((n, count))
    size = max(16, 2**15 // n // 16 * 16)
    starts = list(range(0, count, size))
    if count - starts[-1] == 1 and len(starts) > 1:
        starts.pop()
    out = np.empty((n, count))
    for c, d in zip(starts, starts[1:] + [count]):
        rows = max(1, 2**18 // (n * (d - c)))
        for a in range(0, n, rows):
            b = min(a + rows, n)
            out[a:b, c:d] = factor[a:b, :b] @ z[:b, c:d]
    return out.T


def exact_panels(n_subjects, grid, h, seed, reps, law=EffectsLaw(-2.0, 1.0)):
    """Panels 0 to reps - 1, panel r the one ``simulate_panel`` draws from
    RngStream(seed, r) with the exact sampler.  One held sampler, so one
    factor of V, draws them all, as a cell's does; panel 0 is checked
    against ``simulate_panel`` byte for byte."""
    sampler = noise_sampler("exact", grid, h)
    for r in range(reps):
        gen = RngStream(seed, r).generator()
        y = draw_effects(law, gen, n_subjects)[:, None] * grid.times
        y += sampler.paths(gen, n_subjects)
        panel = Panel(grid=grid, y=y)
        if r == 0:
            want = simulate_panel(n_subjects, grid, h, law, RngStream(seed, r))
            assert panel.y.tobytes() == want.y.tobytes()
        yield panel
