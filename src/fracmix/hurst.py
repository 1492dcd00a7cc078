"""Hurst exponent estimation from a single trajectory by filtered
k-variations.

A filter gamma = (gamma_0, ..., gamma_l) of order p >= 2 annihilates
affine sequences, so filtering Y(t_j) = phi * t_j + W^H(t_j) on a
uniform grid leaves pure filtered fBm: the random-effect drift never
reaches the statistic.  The empirical k-variation

    S = mean over windows of |sum_q gamma_q Y(t_{i-q})|^k

has expectation g(H) with

    g(t) = spacing^{t k} * pi_t(0)^{k/2} * E_k,
    pi_t(j) = -0.5 * sum_{q,r} gamma_q gamma_r |q - r + j|^{2t},
    E_k = E|Z|^k = 2^{k/2} (1/2)_{k/2},  (a)_m = Gamma(a + m) / Gamma(a),

exactly (the filtered process is stationary Gaussian with variance
pi_H(0) * spacing^{2H}).  The estimate inverts the strictly decreasing
g by Brent's method (R. P. Brent, Algorithms for Minimization Without
Derivatives, 1973, ch. 4), ported here from scipy's C ``brentq`` so that
the package never imports ``scipy.optimize``; the root finder starts from
the bracket values that the monotonicity probe has already computed.
Its sampling dispersion shrinks like
sqrt(A(H,k,gamma)) / (k * sqrt(n) * log n), where A sums the squared
Hermite coefficients of |z|^k against powers of the filtered
autocorrelation rho_t = pi_t / pi_t(0) over all lags.

Past the lag l of the last tap the distances d + j in pi_t are all
positive, and expanding (1 + d/j)^{2t} by the binomial series gives

    pi_t(j) = -0.5 * j^{2t} * sum_{m >= 2p, m even} C(2t, m) M_m j^{-m},
    M_m = sum_d w_d d^m,  w = gamma convolved with reversed gamma,

because the moments of w below 2p vanish for a filter of order p.  For
the named filters every term has the same sign, so nothing cancels,
whereas the defining sum cancels to rounding noise: at t = 0.85 it is
59 times too large at lag 16384.  Lags up to 3l are summed directly, from
one t-free table of |d + j| and w_d per filter built once (g reads its
lag-0 column), and 18 series terms reach double precision past them.  A
sums those lags and, order by order, a closed-form tail of Hurwitz zeta
values, so its cost and memory do not depend on t.  Against a 40-digit
reference it is within 1e-14 relative for the named filters, every t, k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .checks import horizon_value, real_value
from .errors import EstimationRangeError, FilterOrderError, SeriesLengthError
from .gram import HURST_MAX, HURST_MIN, hurst_value
from .special import poch, zeta

# Named filters: the minimal order-2 filter is the default; the order-3
# variant trades a shorter effective sample for faster correlation decay.
FILTERS = {
    "diff2": (1.0, -2.0, 1.0),
    "diff3": (-1.0, 3.0, -3.0, 1.0),
}

# The largest variation power k at which E_k = E|Z|^k is a finite double
K_MAX = 301.35612267673315

# Root finding for the inversion, over the bracket [HURST_MIN, HURST_MAX];
# the relative tolerance is scipy's smallest allowed, 4 eps
_ROOT_XTOL = 1e-10
_ROOT_RTOL = 4.0 * math.ulp(1.0)
_ROOT_MAX_ITER = 200

# pi_t is summed directly over the head lags 0..HEAD_SPAN*l and by its
# binomial series past them, where (d/j)^2 <= 1/9 makes SERIES_TERMS
# terms exact to double precision.
_HEAD_SPAN = 3
_SERIES_TERMS = 18
_SERIES_POWERS = 2.0 * np.arange(_SERIES_TERMS)  # the series runs in j^{-2s}

# The order sum of the asymptotic variance stops once a term adds less
# than TERM_TOL of the running total (hard cap ORDER_CAP); an order's
# zeta tail is skipped once its bound is that small.
_TERM_TOL = 1e-14
_ORDER_CAP = 50


@dataclass(frozen=True)
class VariationFilter:
    """Coefficient vector with certified annihilation order p.

    sum_j j^r gamma_j = 0 for all 0 <= r < p and != 0 at r = p (with
    the 0^0 = 1 convention).  Construction goes through
    ``validate_filter``; p >= 2 is required so linear drifts vanish.
    Two filters are equal, and hash alike, when their coefficient bytes
    and orders are.
    """

    coeffs: np.ndarray = field(compare=False)
    order: int
    _key: bytes = field(init=False, repr=False)  # the coefficients' bytes: == and hash

    def __post_init__(self):
        object.__setattr__(self, "_key", self.coeffs.tobytes())

    @property
    def length(self) -> int:
        """l, the largest tap index."""
        return self.coeffs.size - 1

    @property
    def head(self) -> int:
        """The last lag at which pi_t is summed directly."""
        return _HEAD_SPAN * self.length

    @cached_property
    def head_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The t-free part of pi_t at the lags j = 0..head, built once: |d + j|
        (rows d = -l..l, columns j) and w_d = sum_{q-r=d} gamma_q gamma_r (a column)."""
        d = np.arange(-self.length, self.length + 1, dtype=float)
        w = np.convolve(self.coeffs, self.coeffs[::-1])
        return np.abs(d[:, None] + np.arange(self.head + 1)), w[:, None]

    @cached_property
    def series_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The t-free parts of ``_pi_series``, built once: m and 1/(m+1)
        for the binomial steps C(2t, m+1) = C(2t, m) (2t-m)/(m+1), and
        -M_m/2 with M_m = sum_d w_d d^m for the SERIES_TERMS even m from 2p."""
        m = np.arange(2 * self.order + 2 * _SERIES_TERMS - 2, dtype=float)
        dist, w = self.head_table
        moments = -0.5 * (w * dist[:, :1] ** (2 * self.order + _SERIES_POWERS)).sum(axis=0)
        return m, 1.0 / (m + 1.0), moments


@dataclass(frozen=True)
class HurstEstimate:
    h_hat: float
    k: float
    filter: VariationFilter
    n: int

    @cached_property
    def asym_std(self) -> float:
        """sqrt(A) / (k sqrt(n) log n) at h_hat, computed on first read."""
        a_val = asym_variance_a(self.h_hat, self.k, self.filter)
        return math.sqrt(a_val) / (self.k * math.sqrt(self.n) * math.log(self.n))


def _certified_order(coeffs: np.ndarray) -> int:
    """The least r whose moment sum_j j^r gamma_j (0^0 = 1) does not
    vanish, to a tolerance scaled by sum_j j^r |gamma_j| so that
    near-cancellation in float coefficients still certifies it.  The sums
    stop at that r; a sum past a double (j^r overflows from 145 taps)
    certifies nothing."""
    j = np.arange(coeffs.size, dtype=float)
    for r in range(coeffs.size):
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            powers = j**r
            scale = powers @ np.abs(coeffs)
        if not np.isfinite(scale):
            break
        if abs(powers @ coeffs) > 1e-12 * max(scale, 1.0):
            return r
    raise FilterOrderError("could not certify a filter order (coefficients too small?)")


def validate_filter(coeffs) -> VariationFilter:
    """Certify a filter's order; reject anything below order 2, and
    coefficients so large that its lag moments overflow a double."""
    c = np.array(coeffs, dtype=float)  # own copy: frozen below
    if c.ndim != 1 or c.size < 2:
        raise FilterOrderError("filter needs at least two coefficients")
    if not np.all(np.isfinite(c)):
        raise FilterOrderError("filter coefficients must be finite")
    if np.all(c == 0.0):
        raise FilterOrderError("filter must not be identically zero")
    if (order := _certified_order(c)) < 2:
        raise FilterOrderError(
            f"filter has order {order} < 2 and cannot annihilate the linear random-effect drift"
        )
    c.flags.writeable = False
    f = VariationFilter(coeffs=c, order=order)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        moments = f.series_table[2]
    if not np.all(np.isfinite(moments)):
        raise FilterOrderError("filter coefficients too large: its lag moments overflow a double")
    return f


# FILTERS certified once, at import: one object and lag table per name
_NAMED_FILTERS = {name: validate_filter(coeffs) for name, coeffs in FILTERS.items()}


def as_filter(spec) -> VariationFilter:
    """The filter a spec names: a ``VariationFilter``, a name in FILTERS,
    a "c0,c1,..." coefficient string, or a coefficient sequence.

    Every invalid spec raises ``ValueError`` (``FilterOrderError`` for
    coefficients of order below 2).
    """
    if isinstance(spec, VariationFilter):
        return spec
    if isinstance(spec, str):
        if "," in spec:
            spec = [float(v) for v in spec.split(",")]
        elif spec in FILTERS:
            return _NAMED_FILTERS[spec]
        else:
            raise ValueError(
                f"unknown filter {spec!r}; use one of {sorted(FILTERS)} "
                "or a comma-separated coefficient list"
            )
    return validate_filter(spec)


def _pi_lags(t: float, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """pi_t over the lag columns of a ``VariationFilter.head_table``."""
    dist, w = table
    return -0.5 * (dist ** (2.0 * t) * w).sum(axis=0)


def _pi_series(t: float, f: VariationFilter) -> np.ndarray:
    """Coefficients c_s with pi_t(j) = sum_s c_s |j|^{2t-2p-2s} for
    |j| > f.head: c_s = -0.5 C(2t, 2p+2s) M_{2p+2s}."""
    m, inverse, moments = f.series_table
    binom = np.cumprod((2.0 * t - m) * inverse)  # C(2t, m + 1)
    return binom[2 * f.order - 1 :: 2] * moments


def k_value(k: float) -> float:
    """Validate a variation power: a real number in (0, K_MAX]."""
    if not 0.0 < (v := real_value("k", k)) <= K_MAX:  # also rejects NaN
        raise ValueError(f"k must be positive and finite, at most {K_MAX}, got {k}")
    return v


def e_k(k: float) -> float:
    """k-th absolute moment of a standard normal, E|Z|^k = 2^{k/2} (1/2)_{k/2}:
    exact at even k, where the rising factorial is a product of halves."""
    k = k_value(k)
    return 2.0 ** (k / 2.0) * poch(0.5, k / 2.0)


def filtered_series(y: np.ndarray, f: VariationFilter) -> np.ndarray:
    """All n - l filter windows of the series, including the implicit
    Y(0) = 0 ahead of the first observation; the final observation is
    outside every window."""
    f = as_filter(f)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be 1-D")
    n = y.size
    if n <= f.length:
        raise SeriesLengthError(f"series of length {n} too short for a filter with {f.length + 1} taps")
    extended = np.concatenate([[0.0], y])
    return np.convolve(extended, f.coeffs)[f.length : n]


def s_n(y: np.ndarray, k: float, f: VariationFilter) -> float:
    """Empirical k-variation: mean of |filtered windows|^k."""
    k = k_value(k)
    v = filtered_series(y, f)
    with np.errstate(over="ignore"):  # an overflowing S is inf, which estimate_h refuses
        return float(np.mean(np.abs(v) ** k))


def _scale_curve(spacing: float, k: float, f: VariationFilter) -> Callable[[float], float]:
    """t -> g(t), the expected k-variation of filtered fBm(t) at the
    given grid spacing, with k and the filter validated and E_k computed
    once; lag 0 is the first column of the filter's head table."""
    k = k_value(k)
    table = [x[:, :1] for x in as_filter(f).head_table]  # lag 0 only
    ek = e_k(k)

    def g(t: float) -> float:
        t = hurst_value(t)
        p0 = float(_pi_lags(t, table)[0])
        if p0 <= 0.0:
            raise ValueError(f"pi_t(0) = {p0} <= 0: invalid filter")
        try:
            return spacing ** (t * k) * p0 ** (k / 2.0) * ek
        except OverflowError:
            raise EstimationRangeError(
                f"scale function overflows a double at t={t}, spacing {spacing}, k={k}"
            ) from None

    return g


@lru_cache(maxsize=64)
def _probed_curve(
    spacing: float, k: float, f: VariationFilter
) -> tuple[Callable[[float], float], float, float, float]:
    """``_scale_curve`` and its values at HURST_MIN, the bracket midpoint
    and HURST_MAX.  They depend on (spacing, k, filter) only, so they are
    built once per key; an error raised while building them is not cached."""
    g = _scale_curve(spacing, k, f)
    return g, g(HURST_MIN), g(0.5 * (HURST_MIN + HURST_MAX)), g(HURST_MAX)


def asym_variance_a(t: float, k: float, f: VariationFilter) -> float:
    """Variance constant A(t, k, gamma) of the k-variation CLT.

    A = sum_{j>=1} (c_{2j}^k)^2 (2j)! sum_{i in Z} rho_t(i)^{2j}, with
    c_{2j}^k = prod_{q<j}(k - 2q) / (2j)! and rho_t = pi_t / pi_t(0).
    Lag 0 contributes E_{2k}/E_k^2 - 1 over all orders (Gauss's theorem),
    so the orders are summed only over lags i != 0, where rho_t(i)^2 <=
    0.57 for the named filters makes them fall geometrically.  The lags
    up to ``f.head`` are summed directly.  Past them
    rho_t(i)^2 = i^{-sigma} sum_r s_r i^{-2r} with sigma = 2(2p - 2t), so
    the tail of order j is sum_r b_r zeta(j sigma + 2r, f.head + 1), b
    being the coefficients of (sum_r s_r x^r)^j.  Tails stop once they
    are bounded below TERM_TOL of the total, and the order sum stops once
    a term adds less than that (hard cap ORDER_CAP); for even integer k
    it terminates exactly.  Cost and memory do not depend on t, and the
    result is within about 1e-14 relative of the exact series.
    """
    t = hurst_value(t)
    k = k_value(k)
    f = as_filter(f)
    pi = _pi_lags(t, f.head_table)
    rho2 = (pi[1:] / pi[0]) ** 2
    a = _pi_series(t, f) / pi[0]
    sq = np.convolve(a, a)[: a.size]  # rho(i)^2 i^sigma in powers of i^{-2}
    q = f.head + 1
    sigma = 2.0 * (2 * f.order - 2.0 * t)
    # |rho(i)| <= rho_q (q/i)^{sigma/2} for i >= q, so the order-j tail is
    # at most rho_q^{2j} zeta(j sigma, q) <= rho_q^{2j} (1 + q/(j sigma - 1))
    rho_q2 = (float(np.abs(a) @ float(q) ** -_SERIES_POWERS) * q ** (-sigma / 2.0)) ** 2
    tails = True
    # (c_{2j}^k)^2 (2j)! iterates as f_1 = k^2/2, f_{j+1} = f_j (k-2j)^2 / ((2j+1)(2j+2))
    coef = k * k / 2.0
    # E_{2k}/E_k^2 as Pochhammer symbols: exact for even integer k
    total = poch((k + 1.0) / 2.0, k / 2.0) / poch(0.5, k / 2.0) - 1.0
    for j in range(1, _ORDER_CAP + 1):
        part = float(np.power(rho2, j).sum())
        if tails:
            b = sq if j == 1 else np.convolve(b, sq)[: a.size]
            part += float(b @ [zeta(x, q) for x in (j * sigma + _SERIES_POWERS).tolist()])
        term = 2.0 * coef * part
        total += term
        if term <= _TERM_TOL * total:
            break
        coef *= (k - 2.0 * j) ** 2 / ((2.0 * j + 1.0) * (2.0 * j + 2.0))
        if tails and j + 1 >= k / 4 and rho_q2 < 1.0:
            # past order k/4 the coefficients fall, so this bound only falls
            bound = 2.0 * coef * rho_q2 ** (j + 1) * (1.0 + q / ((j + 1) * sigma - 1.0))
            tails = bound > _TERM_TOL * total
    return float(total)


def brentq(f: Callable[[float], float], a: float, b: float, fa: float, fb: float) -> float:
    """A root of f in [a, b] by Brent's method, given fa = f(a) and fb = f(b).

    A line-for-line port of scipy's C ``brentq`` (Brent 1973, ch. 4) at
    xtol = _ROOT_XTOL, rtol = _ROOT_RTOL and maxiter = _ROOT_MAX_ITER, so
    it returns the same bits as ``scipy.optimize.brentq(f, a, b, xtol,
    rtol, maxiter)``: an endpoint where f is 0 is returned as is; each
    step tries inverse quadratic extrapolation or the secant and falls
    back to bisection unless the step is short; no step is below delta.

    Raises ``ValueError`` when fa and fb have the same sign (where scipy's
    C code returns 0) or f gives NaN, and ``RuntimeError`` after
    _ROOT_MAX_ITER steps without convergence.
    """
    if fa != fa or fb != fb:
        raise ValueError(f"f is NaN at an endpoint of [{a}, {b}]")
    xpre, xcur, fpre, fcur = a, b, fa, fb
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # f values are neither 0 nor NaN here, so x < 0 is signbit(x)
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f({a}) = {fa} and f({b}) = {fb} must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an inf or NaN step, which bisects
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"f is NaN at {xcur}; cannot find a root")
    raise RuntimeError(f"no root after {_ROOT_MAX_ITER} iterations, value is {xcur}")


def estimate_h(y: np.ndarray, horizon: float, k: float = 2.0, f="diff2") -> HurstEstimate:
    """Estimate H from one trajectory observed at t_j = j*horizon/n.

    Computes the k-variation S and solves g(t) = S for t (``_scale_curve``)
    on [HURST_MIN, HURST_MAX] by Brent's method (Brent 1973, ch. 4; the
    module's ``brentq``), so every estimate is a valid exponent for
    ``build_gram``.  A three-point probe checks that the scale function is
    strictly decreasing over the bracket (it always is for spacing < 1;
    very coarse grids with spacing well above 1 can break this and are
    rejected), and the root finder reuses the probe's values at the two
    endpoints instead of evaluating g there again.  The curve and the
    probe are built once per (spacing, k, filter) (``_probed_curve``).

    Raises ``ValueError`` for a horizon that is not positive and finite,
    ``EstimationRangeError`` when S falls outside the invertible range
    (for example for a drift-only series with S = 0) and
    ``SeriesLengthError`` when the series has no complete filter window.
    """
    f = as_filter(f)
    horizon = horizon_value("horizon", horizon)
    y = np.asarray(y, dtype=float)
    n = y.size
    s_obs = s_n(y, k, f)  # raises on an empty series before n divides
    spacing = horizon / n
    g, g_lo, g_mid, g_hi = _probed_curve(spacing, k_value(k), f)
    if not g_lo > g_mid > g_hi:
        raise EstimationRangeError(
            f"scale function is not decreasing over [{HURST_MIN}, {HURST_MAX}] "
            f"at spacing {spacing}; cannot invert"
        )
    if not (g_hi <= s_obs <= g_lo and math.isfinite(s_obs)):
        raise EstimationRangeError(
            f"k-variation {s_obs:.6g} outside the invertible range "
            f"[{g_hi:.6g}, {g_lo:.6g}]; series is inconsistent with fBm scaling"
        )
    h_hat = brentq(lambda t: g(t) - s_obs, HURST_MIN, HURST_MAX, g_lo - s_obs, g_hi - s_obs)
    return HurstEstimate(h_hat=h_hat, k=k, filter=f, n=n)
