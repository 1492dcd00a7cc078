"""Closed-form estimation of the random-effect law (mu, sigma2) with H
known.

Each subject yields a generalized-least-squares slope read

    xi_i = u'V^{-1}Y^i / u'V^{-1}u = phi_i + noise,

an unbiased Gaussian observation of its drift rate with noise variance
1/q, q = u'V^{-1}u.  The population estimators are

    mu_hat     = mean(xi),
    sigma2_hat = pop. variance(xi) - 1/q,

and their finite-sample moments are available in closed form:

    sd(mu_hat)        = sqrt(sigma2/N + 1/(N q)),
    E[sigma2_hat]     = (N-1)/N * sigma2 - 1/(N q),
    sd(sigma2_hat)    = sqrt(2(N-1))/N * beta,   beta = sigma2 + 1/q.

sigma2_hat may be negative in finite samples (it subtracts 1/q); the
raw value is kept because the moment identities above hold for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridError
from .gram import GramMatrix
from .panel import EffectsLaw, Panel


class ExactMoments(NamedTuple):
    std_mu: float
    mean_sigma2: float
    std_sigma2: float


@dataclass(frozen=True)
class EffectsEstimate:
    """Point estimates with exact plug-in uncertainty.

    ``exact_std_mu`` and ``exact_std_sigma2`` evaluate the closed-form
    moment formulas at sigma2_hat (plug-in); for experiment tables use
    ``exact_moments`` with the true sigma2 instead.
    """

    mu_hat: float
    sigma2_hat: float
    q: float
    n_subjects: int
    beta_hat: float
    exact_std_mu: float
    exact_std_sigma2: float


def xi_values(panel: Panel, g: GramMatrix) -> np.ndarray:
    """Per-subject slope reads xi_i = u'V^{-1}Y^i / u'V^{-1}u = Y^i @ g.weights."""
    if panel.grid != g.grid:
        raise GridError("grid does not match the Gram matrix grid")
    return panel.y @ g.weights


def estimate_mu(xi: np.ndarray) -> float | np.ndarray:
    """Population-mean estimator: the average slope read.

    Reduces over the last axis, so an (R, N) array of R panels' reads
    gives R estimates, each bitwise the estimate of its row.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape[-1] < 1:
        raise ValueError("need at least one subject")
    mu = np.mean(xi, axis=-1)
    return float(mu) if xi.ndim == 1 else mu


def estimate_sigma2(xi: np.ndarray, q: float) -> float | np.ndarray:
    """Population-variance estimator: pop. variance of xi minus 1/q.

    Reduces over the last axis, as ``estimate_mu`` does.  May be negative
    in finite samples; callers wanting a point estimate for reporting can
    clamp at zero.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape[-1] < 2:
        raise ValueError(f"need at least two subjects, got {xi.shape[-1]}")
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    sigma2 = np.var(xi, axis=-1) - 1.0 / q
    return float(sigma2) if xi.ndim == 1 else sigma2


def exact_moments(sigma2: float, n_subjects: int, q: float) -> ExactMoments:
    """Closed-form finite-sample moments of (mu_hat, sigma2_hat).

    ``sigma2`` may be the true value (experiment tables) or a plug-in
    estimate (data analysis); it must be >= -1/q, up to rounding, so the
    variance of mu_hat stays nonnegative.
    """
    if n_subjects < 1:
        raise ValueError(f"need at least one subject, got {n_subjects}")
    if q <= 0.0:
        raise ValueError(f"q must be positive, got {q}")
    var_mu = sigma2 / n_subjects + 1.0 / (n_subjects * q)
    if var_mu < 0.0:
        # at sigma2 = -1/q (a panel of identical subjects) the two terms
        # cancel to a few ulps of either sign: that is a zero variance
        if var_mu < -4.0 * np.finfo(float).eps * (abs(sigma2) + 1.0 / q) / n_subjects:
            raise ValueError(f"sigma2={sigma2} below -1/q; variance of mu_hat would be negative")
        var_mu = 0.0
    n = n_subjects
    beta = sigma2 + 1.0 / q
    return ExactMoments(
        std_mu=float(np.sqrt(var_mu)),
        mean_sigma2=float((n - 1) * sigma2 / n - 1.0 / (n * q)),
        std_sigma2=float(np.sqrt(2.0 * (n - 1)) / n * beta),
    )


def estimate_effects(panel: Panel, g: GramMatrix) -> EffectsEstimate:
    """Full estimation pipeline for one panel at known H."""
    xi = xi_values(panel, g)
    q = g.quad_uu
    mu_hat = estimate_mu(xi)
    sigma2_hat = estimate_sigma2(xi, q)
    beta_hat = sigma2_hat + 1.0 / q
    moments = exact_moments(sigma2_hat, panel.n_subjects, q)
    return EffectsEstimate(
        mu_hat=mu_hat,
        sigma2_hat=sigma2_hat,
        q=q,
        n_subjects=panel.n_subjects,
        beta_hat=beta_hat,
        exact_std_mu=moments.std_mu,
        exact_std_sigma2=moments.std_sigma2,
    )


def confidence_intervals(
    est: EffectsEstimate, level: float = 0.95
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Asymptotic (large-N) intervals for mu and sigma2.

    Plugs beta_hat into the limit laws:
        mu:     mu_hat     +/- z * sqrt(beta_hat / N)
        sigma2: sigma2_hat +/- z * beta_hat * sqrt(2 / N)
    with z = _abs_normal_quantile(level), the normal quantile at (1 + level) / 2.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if est.n_subjects < 2:
        raise ValueError("need at least two subjects for intervals")
    z = _abs_normal_quantile(level)
    n = est.n_subjects
    half_mu = z * np.sqrt(est.beta_hat / n)
    half_s2 = z * est.beta_hat * np.sqrt(2.0 / n)
    return (
        (est.mu_hat - half_mu, est.mu_hat + half_mu),
        (est.sigma2_hat - half_s2, est.sigma2_hat + half_s2),
    )


def _erf_slope(x: float) -> float:
    """erf'(x) = 2 exp(-x^2) / sqrt(pi)."""
    return 2.0 / math.sqrt(math.pi) * math.exp(-x * x)


def _abs_normal_quantile(level: float) -> float:
    """z with P(|Z| <= z) = erf(z / sqrt 2) = level, for 0 < level < 1.

    Newton's method on x = z / sqrt 2, within 4e-16 relative of 40 digits
    wherever z is a normal double.
    Up to level 1/2 it solves erf(x) = level from x = level / erf'(0):
    erf is concave on x >= 0, so it lies below its tangents and the steps
    rise to the root.  Above it, log erfc(x) = log(1 - level), with
    1 - level exact: log erfc is concave too, and erfc(x) <= exp(-x^2)
    puts the start sqrt(-log(1 - level)) past the root, so the steps
    fall.  Each loop stops at the first step that does not move x on,
    where rounding takes over from the slope.
    """
    if level <= 0.5:
        x = level / _erf_slope(0.0)
        while (new := x - (math.erf(x) - level) / _erf_slope(x)) > x:
            x = new
    else:
        tail = 1.0 - level
        x = math.sqrt(-math.log(tail))
        while (new := x + math.log((q := math.erfc(x)) / tail) * q / _erf_slope(x)) < x:
            x = new
    return math.sqrt(2.0) * x


def log_marginal_likelihood(panel: Panel, g: GramMatrix, law: EffectsLaw) -> float:
    """Log-likelihood of the panel with the Gaussian effect integrated out.

    Y'V^{-1}Y splits into q xi^2 and a residual free of phi, so each
    subject contributes

        log N(xi; mu, tau2)
        - 0.5 [ (n-1) log 2pi + log det V + log q + Y'V^{-1}Y - q xi^2 ],

    with tau2 = sigma2 + 1/q and Y'V^{-1}Y from ``GramMatrix.quad_yy``.
    Valid for every sigma2 >= 0; its argmax over mu is exactly mu_hat.
    """
    n = len(g.grid)
    q = g.quad_uu
    xi = xi_values(panel, g)
    tau2 = law.sigma2 + 1.0 / q
    per_subject = -0.5 * (
        n * np.log(2.0 * np.pi)
        + np.log(tau2)
        + (xi - law.mu) ** 2 / tau2
        + g.log_det
        + np.log(q)
        + g.quad_yy(panel.y)
        - q * xi**2
    )
    return float(np.sum(per_subject))
