"""Fractional Brownian motion covariance matrices and their quadratic forms.

For observation times 0 < t_1 < ... < t_n = T and Hurst exponent H, the
Gram matrix is

    V[k, l] = 0.5 * (t_k^{2H} + t_l^{2H} - |t_k - t_l|^{2H}),

the covariance of the fBm at the observation times.  Estimators read V
only through ``GramMatrix``: the GLS weights c = V^{-1}u / u'V^{-1}u
(u the vector of times, so a slope read is xi = Y @ c), q = u'V^{-1}u,
log det V and y'V^{-1}y.  ``build_gram`` picks one of two backends from
the grid; V is never inverted.

* Uniform grids (``SamplingGrid.is_uniform``), t_j = j*delta: the
  increments Dy of a path (D the differencing matrix) are fractional
  Gaussian noise with Toeplitz covariance delta^{2H} R, so
  V^{-1} = delta^{-2H} D'R^{-1}D.  One Levinson solve s = R^{-1}1 [1]
  gives c and q, and Durbin's recursion [2] gives det R and the
  innovations behind y'V^{-1}y, in O(n^2) time and O(n) memory: V
  itself is never formed.
* Other grids: V is formed and factored as V = L L' (Cholesky); c and q
  come from two triangular solves, and y'V^{-1}y from one.

Either way ``GramMatrix.factor`` is the Cholesky factor L that the exact
sampler draws with; on uniform grids it is made on first use.  A sampler
without a Gram matrix at hand takes L alone from ``cholesky_factor``.

[1] Levinson, N., J. Math. Phys. 25 (1947) 261-278.
[2] Durbin, J., Rev. Int. Statist. Inst. 28 (1960) 233-244.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_toeplitz, solve_triangular

from .errors import FactorizationError, GridError, HurstRangeError

# Conditioning guard: as H -> 1 the matrix degenerates to rank one, and as
# H -> 0 it approaches a boundary of positive definiteness.
HURST_MIN = 0.01
HURST_MAX = 0.99


def hurst_value(h: float) -> float:
    """Validate a Hurst exponent: a float in the open interval (0, 1)."""
    v = float(h)
    if not 0.0 < v < 1.0:  # also rejects NaN
        raise HurstRangeError(f"Hurst exponent must lie in (0, 1), got {h}")
    return v


@dataclass(frozen=True)
class SamplingGrid:
    """Strictly increasing observation times t_1 < ... < t_n = T.

    The process starts at t = 0 but the origin is not an observation
    point and is not stored.
    """

    times: np.ndarray
    horizon: float = field(init=False)

    def __post_init__(self):
        t = np.array(self.times, dtype=float)  # own copy: frozen below
        if t.ndim != 1 or t.size < 1:
            raise GridError("grid needs at least one observation time")
        if not np.all(np.isfinite(t)):
            raise GridError("grid times must be finite")
        if t[0] <= 0.0:
            raise GridError(f"first observation time must be positive, got {t[0]}")
        if np.any(np.diff(t) <= 0.0):
            raise GridError("observation times must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "horizon", float(t[-1]))

    @classmethod
    def uniform(cls, n: int, horizon: float) -> "SamplingGrid":
        """Grid t_j = j * horizon / n for j = 1..n."""
        if n < 1:
            raise GridError(f"need n >= 1 observations, got {n}")
        return cls(np.arange(1, n + 1) * (float(horizon) / n))

    def __len__(self) -> int:
        return self.times.size

    @property
    def is_uniform(self) -> bool:
        n = len(self)
        ref = np.arange(1, n + 1) * (self.horizon / n)
        return bool(np.max(np.abs(self.times - ref)) <= 1e-9 * self.horizon)


@dataclass(frozen=True)
class GramMatrix:
    """fBm covariance V on a grid, read through what the estimators need.

    ``weights`` holds the read-only GLS weights c = V^{-1}u / q (xi = Y @ c,
    u @ c = 1), ``quad_uu`` q = u'V^{-1}u and ``log_det`` log det V;
    ``quad_yy`` gives y'V^{-1}y per row.  ``factor`` is the lower Cholesky
    factor L of V, built with the matrix on non-uniform grids and on first
    use on uniform ones.
    """

    grid: SamplingGrid
    h: float
    weights: np.ndarray
    quad_uu: float
    log_det: float
    _factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def factor(self) -> np.ndarray:
        """Read-only lower Cholesky factor L of V, L L' = V.

        Raises ``FactorizationError`` when V is numerically indefinite;
        on uniform grids that shows on first use, not in ``build_gram``.
        """
        if self._factor is None:
            object.__setattr__(self, "_factor", cholesky_factor(self.grid, self.h))
        return self._factor

    def quad_yy(self, y: np.ndarray) -> np.ndarray:
        """y'V^{-1}y for each row of the (count, n) array y."""
        if self.grid.is_uniform:
            n = len(self.grid)
            increments = np.diff(y, axis=1, prepend=0.0)
            _, quad = _durbin(fgn_autocovariance(n, self.h), increments)
            return quad * (self.grid.horizon / n) ** (-2.0 * self.h)
        return np.sum(solve_triangular(self.factor, y.T, lower=True) ** 2, axis=0)


def fbm_covariance(grid: SamplingGrid, h: float) -> np.ndarray:
    """V(H) on the grid, exactly symmetric."""
    t = grid.times
    p = t ** (2.0 * h)
    return 0.5 * (p[:, None] + p[None, :] - np.abs(t[:, None] - t[None, :]) ** (2.0 * h))


def fgn_autocovariance(n: int, h: float) -> np.ndarray:
    """Lags 0..n-1 of the unit-spacing fractional Gaussian noise
    autocovariance, r_k = 0.5 (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})."""
    k = np.arange(n, dtype=float)
    return 0.5 * ((k + 1) ** (2 * h) - 2.0 * k ** (2 * h) + np.abs(k - 1) ** (2 * h))


def build_gram(grid: SamplingGrid, h: float) -> GramMatrix:
    """The Gram matrix of the grid at H: Toeplitz backend on uniform
    grids, Cholesky factorization otherwise.

    Raises
    ------
    HurstRangeError
        When H falls outside [0.01, 0.99]; conditioning degrades beyond
        that range and results would be noise.
    FactorizationError
        When the matrix is numerically indefinite (near-duplicate times
        or extreme ill-conditioning).  No jitter is added: estimator
        formulas assume the exact V.
    """
    hv = _gram_hurst(h)
    if grid.is_uniform:
        n = len(grid)
        step = grid.horizon / n
        r = fgn_autocovariance(n, hv)
        v, _ = _durbin(r, np.empty((0, n)))
        s = solve_toeplitz(r, np.ones(n))
        # V^{-1}u = D'R^{-1}Du / step^{2H}, and Du = step * 1
        d_s = s - np.append(s[1:], 0.0)
        weights = d_s / (grid.times @ d_s)
        q = float(step ** (2.0 - 2.0 * hv) * np.sum(s))
        log_det = float(2.0 * hv * n * np.log(step) + np.sum(np.log(v)))
        L = None
    else:
        L = cholesky_factor(grid, hv)
        wu = solve_triangular(L, grid.times, lower=True)
        q = float(wu @ wu)
        weights = solve_triangular(L, wu / q, lower=True, trans="T")
        log_det = float(2.0 * np.sum(np.log(np.diag(L))))
    weights.flags.writeable = False
    return GramMatrix(grid=grid, h=hv, weights=weights, quad_uu=q, log_det=log_det, _factor=L)


def _gram_hurst(h: float) -> float:
    """Validate a Hurst exponent for a Gram matrix: within [HURST_MIN, HURST_MAX]."""
    hv = hurst_value(h)
    if not HURST_MIN <= hv <= HURST_MAX:
        raise HurstRangeError(
            f"Hurst exponent {hv} outside [{HURST_MIN}, {HURST_MAX}]; "
            "the covariance matrix is too ill-conditioned there"
        )
    return hv


def cholesky_factor(grid: SamplingGrid, h: float) -> np.ndarray:
    """Read-only lower Cholesky factor L of V(H) on the grid, L L' = V.

    The same factor as ``build_gram(grid, h).factor``, without the GLS
    weights, q and log det that only the estimators read.  Raises as
    ``build_gram`` does.
    """
    hv = _gram_hurst(h)
    try:
        L = cholesky(fbm_covariance(grid, hv), lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"covariance matrix is not positive definite (n={len(grid)}, H={hv}): {exc}"
        ) from exc
    L.flags.writeable = False
    return L


def _durbin(r: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Durbin's recursion on the symmetric Toeplitz matrix R with first row r.

    Returns the one-step prediction error variances v (det R = prod v)
    and, for each row of x, x'R^{-1}x = sum_k e_k^2 / v_k over the row's
    innovations e_k.  All rows share one pass: O(n^2 (1 + rows)) time,
    O(n) memory besides x.  Raises ``FactorizationError`` unless every
    v_k is positive.
    """
    n = r.size
    v = np.empty(n)
    quad = np.zeros(x.shape[0])
    b = np.empty(0)  # order-k predictor of x_k from x_0..x_{k-1}
    var = r[0]
    for k in range(n):
        if k:
            kappa = (r[k] - b @ r[1:k]) / var
            b = np.concatenate(([kappa], b - kappa * b[::-1]))
            var *= (1.0 - kappa) * (1.0 + kappa)
        if not var > 0.0:  # also catches NaN
            raise FactorizationError(
                f"Toeplitz covariance is not positive definite at order {k + 1} of {n}"
            )
        v[k] = var
        e = x[:, k] - x[:, :k] @ b
        quad += e * e / var
    return v, quad


def check_grid(g: GramMatrix, grid: SamplingGrid) -> None:
    """Raise ``GridError`` unless grid has the Gram matrix's times."""
    if grid is not g.grid and not np.array_equal(grid.times, g.grid.times):
        raise GridError("grid does not match the Gram matrix grid")
