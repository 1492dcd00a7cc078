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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checks import held, mean_value, variance_value
from .errors import GridError, NonFiniteError
from .fbm import noise_sampler
from .gram import SamplingGrid, hurst_value
from .rng import RngStream


@dataclass(frozen=True)
class EffectsLaw:
    """Population law of the random drift rate: N(mu, sigma2)."""

    mu: float
    sigma2: float

    def __post_init__(self):
        mean_value("mu", self.mu)
        variance_value("sigma2", self.sigma2)


@dataclass(frozen=True, eq=False)
class Panel:
    """N subjects observed on one shared grid.

    ``y`` is (N, n); row i holds subject i's transformed observations.
    ``true_effects`` is set only for simulated panels and is never read
    by any estimator.

    The panel keeps a read-only ``y``.  A 2-D, C-contiguous, read-only
    float64 ndarray that owns its buffer is adopted as it is, without a
    copy; setting its ``writeable`` flag back is then the caller's act.
    Any other input (a writeable array, a view, a strided or non-float64
    array, an ndarray subclass, a list) is copied first, so later changes
    to it do not reach the panel.
    """

    grid: SamplingGrid
    y: np.ndarray
    true_effects: np.ndarray | None = None

    def __post_init__(self):
        y = self.y
        if not (
            type(y) is np.ndarray
            and y.ndim == 2
            and y.dtype == np.float64
            and y.flags.c_contiguous
            and y.flags.owndata
            and not y.flags.writeable
        ):
            y = np.atleast_2d(np.array(y, dtype=float))  # own copy: frozen below
        if y.shape[1] != len(self.grid):
            raise GridError(f"panel has {y.shape[1]} columns, grid has {len(self.grid)} times")
        if y.shape[0] < 1:
            raise ValueError("panel needs at least one subject")
        # a finite sum means finite entries, with no (N, n) mask; a panel of
        # finite entries can still sum past a double, so then look at each
        with np.errstate(over="ignore", invalid="ignore"):
            total = y.sum()
        if not math.isfinite(total) and not np.all(np.isfinite(y)):
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


def draw_effects(law: EffectsLaw, gen: np.random.Generator, n_subjects: int) -> np.ndarray:
    """The drift rates phi_i of n_subjects subjects from the next
    n_subjects standard normals of gen.  Raises ``GridError`` when numpy
    cannot size or allocate them."""
    scale = np.sqrt(law.sigma2)
    return held(lambda shape: law.mu + scale * gen.standard_normal(shape), (n_subjects,), "subjects")


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

    noise names the fBm sampler, as ``fbm.noise_sampler`` reads it: "exact"
    (any grid; draws with the Cholesky factor of V from ``cholesky_factor``,
    which the call makes and drops)
    or "fast" (uniform grids, circulant embedding); "none" (zero noise, a
    diagnostics hook) makes each row exactly phi_i * t.  The stream ``rng``
    is opened once; effects are drawn from it (``draw_effects``) before the
    noise, so the same stream yields the same phi_i regardless of the noise
    method.

    The panel's ``y`` is the one (N, n) buffer that the drift terms are
    written to and the paths added into, and ``Panel`` adopts it without a
    copy.  At its peak the call holds about 2x the panel's bytes for
    "fast" (the paths and the real parts of their normal draws; the
    imaginary parts are drawn a block at a time), 2x for "exact" (the
    paths and all their normal draws, which the product with L reads a
    block of paths at a time; the factor of V besides) and 1x for "none".
    """
    if n_subjects < 1:
        raise ValueError(f"need at least one subject, got {n_subjects}")
    if not isinstance(rng, RngStream):
        raise TypeError(f"rng must be an RngStream, got {type(rng).__name__}")
    hv = hurst_value(h)
    gen = rng.generator()
    phi = draw_effects(law, gen, n_subjects)
    w = 0.0 if noise == "none" else noise_sampler(noise, grid, hv).paths(gen, n_subjects)
    # y = phi t + w in one buffer, which the panel adopts; adding 0.0 keeps
    # the sign of a -0.0 drift term as the sum with zero paths did.  An
    # overflowing drift gives inf or nan, which Panel rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        y = phi[:, None] * grid.times
        y += w
    del w  # Panel's checks run without the paths held
    y.flags.writeable = False
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
