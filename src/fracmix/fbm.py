"""Exact simulation of normalized fractional Brownian motion.

Two samplers with identical output distribution.  Each ``paths(gen,
count)`` draws from a running ``np.random.Generator`` and returns a
(count, n) matrix of paths whose row j holds the process at the grid
times (the deterministic value 0 at t = 0 is not stored):

* ``ExactSampler`` draws the Gaussian vector with covariance V(H) as
  L z (L the Cholesky factor, z standard normal).  Works on any grid;
  O(n^3) once per grid for L, O(n^2) per path.
* ``FftSampler`` uses the Davies-Harte circulant embedding of the
  fractional Gaussian noise autocovariance [1, 2]: eigenvalues from one
  FFT of the embedding's first row, once per sampler; synthesis from
  one complex FFT per pair of paths [3], cumulative sum and a T^H
  self-similarity rescale.  Uniform grids only; O(n log n) per path.
  The pairs are synthesised a fixed block at a time into the output, so
  beyond its 2n normals per path the sampler holds only that output.

``noise_sampler`` is the one place a method name ("exact" or "fast")
picks a sampler.  The sampler it returns either draws the paths
(``paths``) or, from the same draws in the same order, reads only their
GLS slopes W @ c (``slope_noise``): each read is a fixed linear form in
the normal draws, z'(L'c) on the exact sampler and a product with one
FFT of the reversed cumulative sum of c on the fast one, so the paths
are never formed and a read costs O(n) per path.  ``slope_form(c)``
computes that form once per (grid, H, c); ``slope_noise`` then reads
only the generator it is handed, so one form serves any number of
generators and threads.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmbeddingError, GridError
from .gram import SamplingGrid, cholesky_factor, fgn_autocovariance, hurst_value

# An eigenvalue this far below zero (relative to the largest) means the
# embedding genuinely failed; anything closer is FFT roundoff.
_NEG_EIG_TOL = 1e-10

# ``FftSampler`` synthesises this many pairs of paths per FFT, so its
# complex temporaries stay a few MB whatever the path count
_BLOCK_PAIRS = 32


def _normals(gen: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """The next standard normals of gen in the given shape.  Raises
    ``GridError`` when numpy cannot size or allocate them."""
    try:
        return gen.standard_normal(shape)
    except (ValueError, MemoryError) as exc:
        raise GridError(f"cannot hold {shape[0]} x {shape[1]} normal draws: {exc}") from None


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


@dataclass(frozen=True, eq=False)
class ExactSampler:
    """Paths L z on any grid, L the Cholesky factor of V(H)."""

    factor: np.ndarray

    def paths(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """(count, n) matrix of independent paths: the rows of (L z)', z normal."""
        z = _normals(gen, (self.factor.shape[0], count))
        return (self.factor @ z).T

    def slope_form(self, weights: np.ndarray) -> np.ndarray:
        """L'c for c = weights: a path's read W @ c is z'(L'c) in its normals z."""
        return weights @ self.factor

    def slope_noise(
        self, form: np.ndarray, gen: np.random.Generator, count: int, first_path: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The (count,) reads W @ c of the paths ``paths`` would draw, for
        form = ``slope_form(c)``, and with ``first_path`` path 0 of that
        draw (else None)."""
        z = _normals(gen, (self.factor.shape[0], count))
        first = self.factor @ z[:, 0] if first_path else None
        return form @ z, first


@dataclass(frozen=True)
class FftSampler:
    """Paths from the circulant embedding on the uniform grid j*horizon/n."""

    n: int
    horizon: float
    h: float

    @cached_property
    def _scaling(self) -> tuple[np.ndarray, float]:
        """sqrt(lam/m) for the m = 2n embedding eigenvalues lam, and the factor
        (horizon/n)^H that maps unit-spacing fBm to the grid's spacing."""
        hv = hurst_value(self.h)
        lam = fgn_spectrum(self.n, hv)
        return np.sqrt(lam / lam.size), (float(self.horizon) / self.n) ** hv

    def _draws(self, gen: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The real, then the imaginary parts of complex standard normals z,
        one row of m = 2n per pair of paths."""
        shape = ((count + 1) // 2, self._scaling[0].size)
        return _normals(gen, shape), _normals(gen, shape)

    def paths(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """(count, n) matrix of fBm paths on the uniform grid j*horizon/n.

        With z complex standard normal, the real and imaginary parts of
        fft(sqrt(lam/m) z) are two independent unit-spacing fGn draws, so
        each transform serves two paths: pair j gives paths j and
        (count + 1) // 2 + j.  All draws are taken first, real parts then
        imaginary parts; the transforms and cumulative sums then run
        ``_BLOCK_PAIRS`` pairs at a time, straight into the output, with the
        same values as one transform over all pairs.
        """
        return self._synthesis(*self._draws(gen, count), count)

    def _synthesis(self, re: np.ndarray, im: np.ndarray, count: int) -> np.ndarray:
        """The first count paths of the pair draws re + i im, as ``paths``."""
        scale, step = self._scaling
        pairs = re.shape[0]
        out = np.empty((count, self.n))
        for a in range(0, pairs, _BLOCK_PAIRS):
            b = min(a + _BLOCK_PAIRS, pairs)
            w = np.fft.fft(scale * (re[a:b] + 1j * im[a:b]), axis=1)[:, : self.n]
            # cumulated unit-spacing fGn is fBm on 1..n: pair j's real part is
            # path j, its imaginary part path pairs + j (if count reaches it)
            np.cumsum(w.real, axis=1, out=out[a:b])
            tail = out[pairs + a : pairs + b]
            np.cumsum(w.imag[: tail.shape[0]], axis=1, out=tail)
        out *= step  # self-similarity maps spacing 1 to spacing T/n
        return out

    def slope_form(self, weights: np.ndarray) -> np.ndarray:
        """f = sqrt(lam/m) fft(C, m) for c = weights.

        A path is step * cumsum(g) with g its fGn, so its read is g @ C for
        C = step * (reversed cumulative sum of c); and g is the real or
        imaginary part of fft(sqrt(lam/m) z)[:n] for its pair's draws z, so
        the pair's two reads are the real and imaginary parts of z @ f.
        """
        scale, step = self._scaling
        return scale * np.fft.fft(np.cumsum(weights[::-1])[::-1] * step, scale.size)

    def slope_noise(
        self, form: np.ndarray, gen: np.random.Generator, count: int, first_path: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The (count,) reads W @ c of the paths ``paths`` would draw, for
        form = ``slope_form(c)``, taken in real arithmetic, and with
        ``first_path`` path 0 of that draw (else None)."""
        re, im = self._draws(gen, count)
        reads = np.concatenate([re @ form.real - im @ form.imag, re @ form.imag + im @ form.real])
        first = self._synthesis(re[:1], im[:1], 1)[0] if first_path else None
        return reads[:count], first


def noise_sampler(method: str, grid: SamplingGrid, h: float) -> ExactSampler | FftSampler:
    """The fBm sampler a method names on the grid at H: "exact" (any
    grid; the Cholesky factor of V from ``cholesky_factor``) or "fast"
    (uniform grids, circulant embedding)."""
    hv = hurst_value(h)
    if method == "exact":
        return ExactSampler(cholesky_factor(grid, hv))
    if method == "fast":
        if not grid.is_uniform:
            raise GridError("fast sampler requires a uniform grid")
        return FftSampler(len(grid), grid.horizon, hv)
    raise ValueError(f"unknown sampling method {method!r}")
