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
  V^{-1} = delta^{-2H} D'R^{-1}D.  Two compiled real Levinson solves
  [1, 2], O(n^2) time and O(n) memory, give s = R^{-1}1 (for c and q),
  det R and x = R^{-1}e_1.  x fixes R^{-1} = (L1 L1' - L2 L2') / x_0 [3], L1
  and L2 lower triangular Toeplitz with first columns x and
  (0, x_{n-1}, ..., x_1), so each y'V^{-1}y is two FFT convolutions.
* Other grids: V is formed and factored as V = L L' (Cholesky); c and q
  come from two triangular solves, and y'V^{-1}y from one.

The exact sampler reads V only as its Cholesky factor L, which
``cholesky_factor`` alone makes, keeping the factor of the last (grid, H)
it was asked for; the Cholesky backend takes its L from there too.

[1] Levinson, N., J. Math. Phys. 25 (1947) 261-278.
[2] Durbin, J., Rev. Int. Statist. Inst. 28 (1960) 233-244.
[3] Gohberg, I. C. and Semencul, A. A., Mat. Issled. 7 (1972) 201-223.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg._solve_toeplitz import levinson

from .errors import FactorizationError, GridError, HurstRangeError

# Conditioning guard: as H -> 1 the matrix degenerates to rank one, and as
# H -> 0 it approaches a boundary of positive definiteness.
HURST_MIN = 0.01
HURST_MAX = 0.99
_Q_MIN = float(np.finfo(float).tiny)  # the estimators divide by q = u'V^{-1}u


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
    point and is not stored.  Grids are values: two grids with the same
    times are equal and hash alike.
    """

    times: np.ndarray = field(compare=False)
    horizon: float = field(init=False, compare=False)
    _key: bytes = field(init=False, repr=False)  # the times' bytes: == and hash

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
        object.__setattr__(self, "_key", t.tobytes())

    @classmethod
    def uniform(cls, n: int, horizon: float) -> "SamplingGrid":
        """Grid t_j = j * horizon / n for j = 1..n."""
        if n < 1:
            raise GridError(f"need n >= 1 observations, got {n}")
        step = float(horizon) / n
        try:
            times = np.arange(1, n + 1) * step
        except (ValueError, MemoryError) as exc:  # numpy cannot size or allocate n times
            raise GridError(f"cannot hold {n} observations: {exc}") from None
        return cls(times)

    def __len__(self) -> int:
        return self.times.size

    @property
    def is_uniform(self) -> bool:
        n = len(self)
        ref = np.arange(1, n + 1) * (self.horizon / n)
        return bool(np.max(np.abs(self.times - ref)) <= 1e-9 * self.horizon)


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """fBm covariance V on a grid, read through what the estimators need.

    ``weights`` holds the read-only GLS weights c = V^{-1}u / q (xi = Y @ c,
    u @ c = 1), ``quad_uu`` q = u'V^{-1}u and ``log_det`` log det V;
    ``quad_yy`` gives y'V^{-1}y per row.
    """

    grid: SamplingGrid
    h: float
    weights: np.ndarray
    quad_uu: float
    log_det: float
    _factor: np.ndarray | None = field(default=None, repr=False)
    _inv_column: np.ndarray | None = field(default=None, repr=False)

    def quad_yy(self, y: np.ndarray) -> np.ndarray:
        """y'V^{-1}y for each row of the (count, n) array y.  Raises
        ``FactorizationError`` when spacing^{-2H} overflows a double."""
        x = self._inv_column
        if x is None:
            return np.sum(solve_triangular(self._factor, y.T, lower=True) ** 2, axis=0)
        # ||L'e|| = ||L J e|| for lower triangular Toeplitz L, J the reversal
        p1, p2 = _gs_factors(x, np.diff(y, axis=1, prepend=0.0)[:, ::-1])
        quad = np.sum(p1 * p1, axis=1) - np.sum(p2 * p2, axis=1)
        step = np.float64(self.grid.horizon / len(self.grid))
        with np.errstate(over="ignore"):  # checked below
            scale = step ** (-2.0 * self.h)
        if not np.isfinite(scale):
            raise FactorizationError(f"spacing {step}**(-2H) overflows a double (H={self.h})")
        return quad / x[0] * scale


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
        or extreme ill-conditioning) or its weights, q or log det leave
        the double range.  No jitter is added: estimators assume the
        exact V.
    """
    hv = _gram_hurst(h)
    x = L = None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        if grid.is_uniform:
            n = len(grid)
            step = np.float64(grid.horizon / n)  # a power past the range is inf, not an error
            s, x, v = _levinson(fgn_autocovariance(n + 1, hv))
            # V^{-1}u = D'R^{-1}Du / step^{2H}, and Du = step * 1
            d_s = s - np.append(s[1:], 0.0)
            weights = d_s / (grid.times @ d_s)
            q = float(step ** (2.0 - 2.0 * hv) * np.sum(s))
            log_det = float(2.0 * hv * n * np.log(step) + np.sum(np.log(v)))
        else:
            L = cholesky_factor(grid, hv)
            wu = solve_triangular(L, grid.times, lower=True)
            q = float(wu @ wu)
            weights = solve_triangular(L, wu / q, lower=True, trans="T", check_finite=False)
            log_det = float(2.0 * np.sum(np.log(np.diag(L))))
    if not (np.isfinite(weights).all() and np.isfinite(log_det) and _Q_MIN <= q < np.inf):
        raise FactorizationError(f"GLS weights, q or log det out of range (n={len(grid)}, H={hv})")
    weights.flags.writeable = False
    return GramMatrix(grid, hv, weights, q, log_det, _factor=L, _inv_column=x)


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

    The factor of the last (grid, H) asked for is kept, so every
    replication on one grid shares one factorization; a failure is not
    kept and raises again.  Raises as ``build_gram`` does.
    """
    return _cholesky(grid, _gram_hurst(h))


@lru_cache(maxsize=1)  # keyed on the grid's value: equal times share the factor
def _cholesky(grid: SamplingGrid, hv: float) -> np.ndarray:
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            L = cholesky(fbm_covariance(grid, hv), lower=True)
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: V overflows a double
        raise FactorizationError(
            f"covariance matrix does not factor (n={len(grid)}, H={hv}): {exc}"
        ) from exc
    L.flags.writeable = False
    return L


def _levinson(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s = R^{-1}1, x = R^{-1}e_1 and the prediction error variances v
    (det R = prod v) of the symmetric Toeplitz R with first row r_{0:n}.
    Two compiled Levinson solves give s from R s = 1 and the order-n
    predictor phi from R phi = r_{1:n+1}, whose reflection coefficients
    give v_k = r_0 prod_{j<=k} (1 - kappa_j^2); one step down from phi gives
    x.  Raises ``FactorizationError`` unless v_0..v_n are positive."""
    n = r.size - 1
    a = np.append(r[n - 1 : 0 : -1], r[:n])
    try:
        s, _ = levinson(a, np.ones(n))
        phi, kappa = levinson(a, r[1:])
    except np.linalg.LinAlgError as exc:  # a singular leading minor
        raise FactorizationError(f"Toeplitz covariance is singular (n={n})") from exc
    k = kappa[1:]
    v = r[0] * np.cumprod(np.append(1.0, (1.0 - k) * (1.0 + k)))
    if not np.all(v > 0.0):  # also catches NaN
        raise FactorizationError(f"Toeplitz covariance is not positive definite (n={n})")
    return s, np.append(1.0 / v[n - 1], -(phi[:-1] + k[-1] * phi[-2::-1]) / v[n]), v[:n]


def _gs_factors(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(L1 z, L2 z) of [3] for the rows of z: causal convolutions, by FFT."""
    m = 2 * x.size
    cols = np.fft.rfft(np.stack((x, np.append(0.0, x[:0:-1]))), m)
    return np.fft.irfft(cols[:, None] * np.fft.rfft(z, m), m)[..., : x.size]
