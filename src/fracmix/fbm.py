"""Exact simulation of normalized fractional Brownian motion.

Two samplers with identical output distribution, each returning a
(count, n) matrix of paths whose row j holds the process at the grid
times (the deterministic value 0 at t = 0 is not stored):

* ``exact_paths`` draws the Gaussian vector with covariance V(H) as
  L z (L the Cholesky factor, z standard normal).  Works on any grid;
  O(n^3) once per grid, O(n^2) per path.
* ``fast_paths`` uses the Davies-Harte circulant embedding of the
  fractional Gaussian noise autocovariance [1, 2]: eigenvalues from one
  FFT of the embedding's first row, synthesis from one complex FFT per
  pair of paths [3], cumulative sum and a T^H self-similarity rescale.
  Uniform grids only; O(n log n) per path.

The embedding is used exactly: eigenvalues below -1e-10 times the
largest raise ``EmbeddingError`` instead of being clipped.  The minimal
fGn embedding is nonnegative definite for every H ([4] for H <= 1/2,
[5] for H >= 1/2), so the error marks a genuine failure and reaches
the caller.

[1] Davies, R. B. and Harte, D. S., Biometrika 74 (1987) 95-101.
[2] Dieker, A., "Simulation of fractional Brownian motion", 2004.
[3] Wood, A. T. A. and Chan, G., J. Comput. Graph. Statist. 3 (1994) 409-432.
[4] Craigmile, P. F., J. Time Ser. Anal. 24 (2003) 505-511.
[5] Dietrich, C. R. and Newsam, G. N., SIAM J. Sci. Comput. 18 (1997) 1088-1107.
"""

from __future__ import annotations

import numpy as np

from .errors import EmbeddingError, GridError
from .gram import (
    GramMatrix,
    SamplingGrid,
    check_grid,
    cholesky_factor,
    fgn_autocovariance,
    hurst_value,
)
from .rng import RngStream, as_generator

# An eigenvalue this far below zero (relative to the largest) means the
# embedding genuinely failed; anything closer is FFT roundoff.
_NEG_EIG_TOL = 1e-10


def exact_paths(gram: GramMatrix, rng: RngStream | np.random.Generator, count: int) -> np.ndarray:
    """(count, n) matrix of independent exact fBm paths on gram's grid."""
    return _correlate(gram.factor, rng, count)


def _correlate(factor: np.ndarray, rng: RngStream | np.random.Generator, count: int) -> np.ndarray:
    """(count, n) rows L z for standard normal z, with L = factor."""
    gen = as_generator(rng)
    z = gen.standard_normal((factor.shape[0], count))
    return (factor @ z).T


def fgn_spectrum(n: int, h: float) -> np.ndarray:
    """Eigenvalues of the order-2n circulant embedding of the unit-spacing
    fractional Gaussian noise autocovariance.

    Raises ``EmbeddingError`` if the embedding is not nonnegative
    definite; tiny negative values from roundoff are set to zero.
    """
    hv = hurst_value(h)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    acov = fgn_autocovariance(n + 1, hv)
    first_row = np.concatenate([acov[:n], [acov[n]], acov[1:n][::-1]])
    lam = np.fft.fft(first_row).real
    floor = -_NEG_EIG_TOL * lam.max()
    if lam.min() < floor:
        raise EmbeddingError(
            f"circulant embedding not nonnegative definite for n={n}, H={hv} "
            f"(min eigenvalue {lam.min():.3e}); use the exact sampler"
        )
    return np.clip(lam, 0.0, None)


def fast_paths(
    n: int, horizon: float, h: float, rng: RngStream | np.random.Generator, count: int
) -> np.ndarray:
    """(count, n) matrix of fBm paths on the uniform grid j*horizon/n.

    With z complex standard normal, the real and imaginary parts of
    fft(sqrt(lam/m) z) are two independent unit-spacing fGn draws, so
    each transform serves two paths.
    """
    hv = hurst_value(h)
    gen = as_generator(rng)
    lam = fgn_spectrum(n, hv)
    m, pairs = lam.size, (count + 1) // 2
    z = gen.standard_normal((pairs, m)) + 1j * gen.standard_normal((pairs, m))
    w = np.fft.fft(np.sqrt(lam / m) * z, axis=1)[:, :n]
    noise = np.concatenate([w.real, w.imag])[:count]
    # cumulated unit-spacing fGn is fBm on 1..n; self-similarity maps it
    # to spacing T/n
    return np.cumsum(noise, axis=1) * (float(horizon) / n) ** hv


def paths_on_grid(
    grid: SamplingGrid,
    h: float,
    rng: RngStream | np.random.Generator,
    count: int,
    method: str = "exact",
    gram: GramMatrix | None = None,
) -> np.ndarray:
    """(count, n) fBm paths by the requested method.

    method "exact" factors V (or reuses a prebuilt gram's factor); "fast"
    needs a uniform grid.
    """
    if method == "exact":
        if gram is None:
            return _correlate(cholesky_factor(grid, h), rng, count)
        check_grid(gram, grid)
        return exact_paths(gram, rng, count)
    if method == "fast":
        if not grid.is_uniform:
            raise GridError("fast sampler requires a uniform grid")
        return fast_paths(len(grid), grid.horizon, h, rng, count)
    raise ValueError(f"unknown sampling method {method!r}")
