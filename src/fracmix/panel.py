"""Random-effects panels: Y^i(t) = phi_i * t + W^{H,i}(t).

Each of N independent subjects carries its own drift rate phi_i, drawn
once from N(mu, sigma2), plus an independent fBm.  Conditionally on
phi_i the observation vector is Gaussian with mean phi_i * u and
covariance V(H); marginally Y(t) ~ N(t*mu, t^2*sigma2 + t^{2H}).

Raw diffusions X with a known state drift a(.) are reduced to this form
by ``transform_to_y``, which removes the initial value and the
accumulated drift integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridError, NonFiniteError
from .fbm import exact_paths, fast_paths
from .gram import SamplingGrid, cholesky_factor, hurst_value
from .rng import RngStream


@dataclass(frozen=True)
class EffectsLaw:
    """Population law of the random drift rate: N(mu, sigma2)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not np.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")


@dataclass(frozen=True)
class Panel:
    """N subjects observed on one shared grid.

    ``y`` is (N, n); row i holds subject i's transformed observations.
    ``true_effects`` is set only for simulated panels and is never read
    by any estimator.
    """

    grid: SamplingGrid
    y: np.ndarray
    true_effects: np.ndarray | None = None

    def __post_init__(self):
        y = np.atleast_2d(np.array(self.y, dtype=float))  # own copy: frozen below
        if y.shape[1] != len(self.grid):
            raise GridError(f"panel has {y.shape[1]} columns, grid has {len(self.grid)} times")
        if y.shape[0] < 1:
            raise ValueError("panel needs at least one subject")
        if not np.all(np.isfinite(y)):
            raise NonFiniteError("panel observations must be finite")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)
        if self.true_effects is not None:
            fx = np.array(self.true_effects, dtype=float)
            if fx.shape != (y.shape[0],):
                raise ValueError("true_effects length must equal the number of subjects")
            fx.flags.writeable = False
            object.__setattr__(self, "true_effects", fx)

    @property
    def n_subjects(self) -> int:
        return self.y.shape[0]


def simulate_panel(
    n_subjects: int,
    grid: SamplingGrid,
    h: float,
    law: EffectsLaw,
    rng: RngStream,
    *,
    noise: str = "exact",
) -> Panel:
    """Simulate a panel of n_subjects trajectories.

    noise selects the fBm sampler: "exact" (any grid; draws with the
    Cholesky factor of V from ``cholesky_factor``), "fast" (uniform grids,
    circulant embedding), or "none" (zero noise, a diagnostics hook that
    makes each row exactly phi_i * t).  The stream ``rng`` is opened once;
    effects are drawn from it before the noise, so the same stream yields
    the same phi_i regardless of the noise method.
    """
    if n_subjects < 1:
        raise ValueError(f"need at least one subject, got {n_subjects}")
    if not isinstance(rng, RngStream):
        raise TypeError(f"rng must be an RngStream, got {type(rng).__name__}")
    hv = hurst_value(h)
    gen = rng.generator()
    phi = law.mu + np.sqrt(law.sigma2) * gen.standard_normal(n_subjects)
    if noise == "exact":
        w = exact_paths(cholesky_factor(grid, hv), gen, n_subjects)
    elif noise == "fast":
        if not grid.is_uniform:
            raise GridError("fast sampler requires a uniform grid")
        w = fast_paths(len(grid), grid.horizon, hv, gen, n_subjects)
    elif noise == "none":
        w = np.zeros((n_subjects, len(grid)))
    else:
        raise ValueError(f"unknown sampling method {noise!r}")
    # an overflowing drift gives inf or nan, which Panel rejects
    with np.errstate(over="ignore", invalid="ignore"):
        y = phi[:, None] * grid.times[None, :] + w
    return Panel(grid=grid, y=y, true_effects=phi)


def transform_to_y(
    times: np.ndarray, x: np.ndarray, drift: Callable[[float], float]
) -> np.ndarray:
    """Reduce a raw trajectory to the linear-drift form.

    Parameters
    ----------
    times : includes the initial time 0; strictly increasing.
    x : trajectory values at ``times`` (x[0] is the initial value).
    drift : the known state drift a(.), evaluated at each observed state.

    Returns Y at times[1:], where Y(t_j) = X(t_j) - X(0) - integral of
    a(X(s)) ds approximated by the trapezoid rule on the observed grid.
    The quadrature is exact for constant a and O(dt^2)-biased otherwise.
    """
    t = np.asarray(times, dtype=float)
    xv = np.asarray(x, dtype=float)
    if t.ndim != 1 or t.shape != xv.shape:
        raise ValueError("times and x must be 1-D arrays of equal length")
    if t.size < 2:
        raise ValueError("need the initial point and at least one observation")
    if t[0] != 0.0:
        raise GridError(f"trajectory must start at t=0, got t[0]={t[0]}")
    if np.any(np.diff(t) <= 0.0):
        raise GridError("times must be strictly increasing")
    a_vals = np.array([float(drift(v)) for v in xv])
    accum = np.cumsum(np.diff(t) * (a_vals[1:] + a_vals[:-1]) / 2.0)
    return xv[1:] - xv[0] - accum
