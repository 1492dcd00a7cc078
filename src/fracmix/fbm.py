"""Exact simulation of normalized fractional Brownian motion.

Two samplers with identical output distribution.  Each ``paths(gen,
count)`` draws from a running ``np.random.Generator`` and returns a
(count, n) matrix of paths whose row j holds the process at the grid
times (the deterministic value 0 at t = 0 is not stored):

* ``ExactSampler`` draws the Gaussian vector with covariance V(H) as
  L z (L the Cholesky factor, z standard normal).  Works on any grid;
  O(n^2) per path.  The sampler holds L, made once per sampler: in
  O(n^2) by the Schur algorithm on a uniform grid, by LAPACK in O(n^3)
  on other grids (``gram.cholesky_factor``).  ``paths`` draws all of z
  at once (row j of L z needs rows 0 to j of z) and takes L z in tiles
  too small for OpenBLAS to split across threads, so the product's bits
  do not depend on the thread count; ``slope_noise`` draws and reads z
  a block of time rows at a time.
* ``FftSampler`` uses the Davies-Harte circulant embedding of the
  fractional Gaussian noise autocovariance [1, 2]: eigenvalues from one
  FFT of the embedding's first row, once per sampler; synthesis from
  one complex FFT per pair of paths [3], cumulative sum and a T^H
  self-similarity rescale.  Uniform grids only; O(n log n) per path.
  The normals are drawn and consumed a fixed block of pairs at a time:
  besides one block, ``paths`` holds its output and the real parts of
  all its draws.

Both samplers' ``slope_noise`` hold one block of normals besides their
reads, whatever the path count; ``_blocks`` sizes the blocks of both.

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
from typing import Iterator

import numpy as np

from .checks import held
from .errors import EmbeddingError, GridError
from .gram import SamplingGrid, cholesky_factor, fgn_autocovariance, hurst_value

# An eigenvalue this far below zero (relative to the largest) means the
# embedding genuinely failed; anything closer is FFT roundoff.
_NEG_EIG_TOL = 1e-10

# Both samplers draw and consume their normals about this many at a time
# (see ``_blocks``): the FFT sampler a block of pairs of paths, the exact
# sampler's slope reads a block of time rows of all paths, and the exact
# sampler's paths multiply L by a block of paths' normals.  So their
# temporaries stay a few hundred kB whatever the path count.
_BLOCK_NORMALS = 2**15

# ``ExactSampler.paths`` takes L z in tiles: rows a:b of L (their nonzero
# columns :b) times one block of paths' normals (``_blocks``), in as many
# rows as keep a tile within this many multiply-adds, and at least one.
# OpenBLAS runs a matrix product of at most 65,536 times its
# GEMM_MULTITHREAD_THRESHOLD (4) multiply-adds on one thread, and a
# one-row tile, a matrix-vector product, up to 460,800 elements (to
# n = 27,000 at 17 paths a block).  A product that fits one tile is taken
# whole.
_TILE_MULADDS = 2**18


def _blocks(count: int, width: int) -> Iterator[tuple[int, int]]:
    """Ranges a:b that cover 0:count in order, for draws of ``width``
    normals per index: about ``_BLOCK_NORMALS`` normals a range, in a
    multiple of 16 indices and at least 16, and a lone last index joins
    the range before it.  A product of a range's rows with a vector then
    rounds each row as one product over all the rows does; BLAS kernels
    take the rows in groups, and numpy computes a one-row product as a
    dot product."""
    size = max(16, _BLOCK_NORMALS // width // 16 * 16)
    a = 0
    while a < count:
        b = a + size if count - a - size > 1 else count
        yield a, b
        a = b


def _normals(gen: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """The next standard normals of gen in the given shape, as ``held``."""
    return held(gen.standard_normal, shape, "normal draws")


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
    """Paths L z on any grid, L the Cholesky factor of V(H) (from
    ``gram.cholesky_factor``: the Schur algorithm on a uniform grid,
    LAPACK on others)."""

    factor: np.ndarray

    def paths(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """(count, n) matrix of independent paths: the rows of (L z)', z normal.

        L z is taken a tile at a time (``_TILE_MULADDS``), each tile one
        matrix product that OpenBLAS runs on one thread, so the paths have
        the same bits at any BLAS thread count.  The call holds z and the
        output, each the size of the paths, and a contiguous copy of one
        block of z's columns (strided, they made the tiles 2.8x slower at
        n = 256 and 4,096 paths).
        """
        n = self.factor.shape[0]
        z = _normals(gen, (n, count))
        out = held(np.empty, (n, count), "path values")
        for c, d in _blocks(count, n):
            rows = max(1, _TILE_MULADDS // (n * (d - c)))
            block = np.ascontiguousarray(z[:, c:d])
            for a in range(0, n, rows):
                b = min(a + rows, n)
                np.matmul(self.factor[a:b, :b], block[:b], out=out[a:b, c:d])
        return out.T

    def slope_form(self, weights: np.ndarray) -> np.ndarray:
        """L'c for c = weights: a path's read W @ c is z'(L'c) in its normals z."""
        return weights @ self.factor

    def slope_noise(
        self, form: np.ndarray, gen: np.random.Generator, count: int, first_path: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The (count,) reads W @ c of the paths ``paths`` would draw, for
        form = ``slope_form(c)``, and with ``first_path`` path 0 of that
        draw (else None).

        The (n, count) normals z are drawn a block of time rows at a time
        (``_blocks``), in the order ``paths`` draws them, and each block's
        share form[a:b] @ z[a:b] added into the reads; so beyond its reads
        a call holds one block.  A draw of one block reads form @ z in one
        product; more blocks round the split sum.
        """
        n = self.factor.shape[0]
        head = np.empty(n) if first_path else None  # path 0's normals
        for a, b in _blocks(n, count):
            z = _normals(gen, (b - a, count))
            if a == 0:
                reads = form[:b] @ z
            else:
                reads += form[a:b] @ z
            if first_path:
                head[a:b] = z[:, 0]
            del z  # so the next block is not drawn beside this one
        return reads, self.factor @ head if first_path else None


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

    def _fgn(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """The first n values of fft(sqrt(lam/m) (re + i im)) along the last
        axis: a unit-spacing fGn draw in each of its real and imaginary parts.
        One complex buffer holds the scaled draws and, in place, their FFT."""
        z = 1j * im  # re and the scale join in place, with the bits of scale * (re + 1j * im)
        z += re
        z *= self._scaling[0]
        return np.fft.fft(z, axis=-1, out=z)[..., : self.n]

    def paths(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """(count, n) matrix of fBm paths on the uniform grid j*horizon/n.

        With z complex standard normal, the real and imaginary parts of
        fft(sqrt(lam/m) z) are two independent unit-spacing fGn draws, so
        each transform serves two paths: pair j gives paths j and
        (count + 1) // 2 + j.  The real parts of all pairs are drawn first,
        then the imaginary parts a block of pairs at a time (``_blocks``);
        each block is transformed and summed straight into the output.  So
        the call holds the output, the real parts (about as many bytes) and
        one block.
        """
        scale, step = self._scaling
        pairs = (count + 1) // 2
        re = _normals(gen, (pairs, scale.size))
        out = held(np.empty, (count, self.n), "path values")
        for a, b in _blocks(pairs, 2 * self.n):
            w = self._fgn(re[a:b], _normals(gen, (b - a, scale.size)))
            # cumulated unit-spacing fGn is fBm on 1..n: pair j's real part is
            # path j, its imaginary part path pairs + j (if count reaches it)
            np.cumsum(w.real, axis=1, out=out[a:b])
            tail = out[pairs + a : pairs + b]
            np.cumsum(w.imag[: tail.shape[0]], axis=1, out=tail)
            del w  # so the next block is not drawn beside this one
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
        ``first_path`` path 0 of that draw (else None).

        Each block of normals is dropped before the next is drawn, so
        beyond its reads (and path 0's two rows of draws) a call holds
        one block, whatever the path count."""
        pairs = (count + 1) // 2
        # pair j's reads are re_j @ f.real - im_j @ f.imag (path j) and
        # re_j @ f.imag + im_j @ f.real (path pairs + j), taken a block of
        # draws at a time in the order ``paths`` draws them
        reads = held(np.empty, (2, pairs), "slope reads")
        heads = []  # row 0 of the real, then of the imaginary parts: path 0's draws
        for a, b in _blocks(pairs, 2 * self.n):
            re = _normals(gen, (b - a, form.size))
            reads[0, a:b] = re @ form.real
            reads[1, a:b] = re @ form.imag
            if first_path and a == 0:
                heads.append(re[0].copy())
            del re  # so the next block is not drawn beside this one
        for a, b in _blocks(pairs, 2 * self.n):
            im = _normals(gen, (b - a, form.size))
            reads[0, a:b] -= im @ form.imag
            reads[1, a:b] += im @ form.real
            if first_path and a == 0:
                heads.append(im[0].copy())
            del im
        first = np.cumsum(self._fgn(*heads).real) * self._scaling[1] if first_path else None
        return reads.reshape(-1)[:count], first


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
