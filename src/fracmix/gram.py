"""Fractional Brownian motion covariance matrices and their quadratic forms.

For observation times 0 < t_1 < ... < t_n = T and Hurst exponent H, the
Gram matrix is

    V[k, l] = 0.5 * (t_k^{2H} + t_l^{2H} - |t_k - t_l|^{2H}),

the covariance of the fBm at the observation times.  Slope reads use V
only through the GLS weights c = V^{-1}u / u'V^{-1}u (u the vector of
times): xi = Y @ c.  c comes from two triangular solves against the
cached Cholesky factor, which the likelihood reuses; V is never inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky, solve_triangular

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
    """fBm covariance on a grid, with its lower Cholesky factor L.

    Built eagerly: the read-only GLS weights c = V^{-1}u / q (xi = Y @ c,
    u @ c = 1), q = u'V^{-1}u = w'w with w = L^{-1}u, and log det V.
    """

    grid: SamplingGrid
    h: float
    factor: np.ndarray
    weights: np.ndarray
    quad_uu: float
    log_det: float


def fbm_covariance(grid: SamplingGrid, h: float) -> np.ndarray:
    """V(H) on the grid, exactly symmetric."""
    t = grid.times
    p = t ** (2.0 * h)
    return 0.5 * (p[:, None] + p[None, :] - np.abs(t[:, None] - t[None, :]) ** (2.0 * h))


def build_gram(grid: SamplingGrid, h: float) -> GramMatrix:
    """Construct V(H) on the grid and factor it.

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
    hv = hurst_value(h)
    if not HURST_MIN <= hv <= HURST_MAX:
        raise HurstRangeError(
            f"Hurst exponent {hv} outside [{HURST_MIN}, {HURST_MAX}]; "
            "the covariance matrix is too ill-conditioned there"
        )
    V = fbm_covariance(grid, hv)
    try:
        L = cholesky(V, lower=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"covariance matrix is not positive definite (n={len(grid)}, H={hv}): {exc}"
        ) from exc
    wu = solve_triangular(L, grid.times, lower=True)
    q = float(wu @ wu)
    weights = solve_triangular(L, wu / q, lower=True, trans="T")
    log_det = float(2.0 * np.sum(np.log(np.diag(L))))
    L.flags.writeable = False
    weights.flags.writeable = False
    return GramMatrix(grid=grid, h=hv, factor=L, weights=weights, quad_uu=q, log_det=log_det)


def check_grid(g: GramMatrix, grid: SamplingGrid) -> None:
    """Raise ``GridError`` unless grid has the Gram matrix's times."""
    if grid is not g.grid and not np.array_equal(grid.times, g.grid.times):
        raise GridError("grid does not match the Gram matrix grid")
