import functools
import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmix import (
    EstimationRangeError,
    FilterOrderError,
    HurstRangeError,
    RngStream,
    SeriesLengthError,
    asym_variance_a,
    e_k,
    estimate_h,
    s_n,
    validate_filter,
)
from fracmix import hurst, special
from fracmix.fbm import FftSampler
from fracmix.gram import HURST_MAX, HURST_MIN, hurst_value
from fracmix.hurst import (
    FILTERS,
    K_MAX,
    _ROOT_MAX_ITER,
    _ROOT_RTOL,
    _ROOT_XTOL,
    _SERIES_POWERS,
    _pi_series,
    _probed_curve,
    _scale_curve,
    as_filter,
    brentq,
    filtered_series,
    k_value,
)

DIFF2 = as_filter("diff2")
DIFF3 = as_filter("diff3")


def pi_gamma(t, j, f):
    """-0.5 * sum_{q,r} gamma_q gamma_r |q - r + j|^{2t}, as A reads it:
    by that double sum up to lag ``f.head``, by the binomial series past it."""
    t = hurst_value(t)
    f = as_filter(f)
    if abs(j) <= f.head:
        c = list(enumerate(f.coeffs.tolist()))
        return -0.5 * sum(cq * cr * abs(q - r + j) ** (2.0 * t) for q, cq in c for r, cr in c)
    x = float(abs(j))
    return float(x ** (2.0 * t - 2 * f.order) * (_pi_series(t, f) @ x**-_SERIES_POWERS))


# ----------------------------------------------------------------- filters
def moment_sums(coeffs, max_order):
    """sum_j j^r gamma_j for r = 0..max_order-1, with 0^0 = 1."""
    return np.arange(coeffs.size, dtype=float) ** np.arange(max_order)[:, None] @ coeffs


def test_diff2_has_order_two():
    f = validate_filter((1.0, -2.0, 1.0))
    assert f.order == 2
    m = moment_sums(f.coeffs, 3)
    assert m[0] == 0.0 and m[1] == 0.0 and m[2] == 2.0


def test_first_difference_rejected():
    with pytest.raises(FilterOrderError):
        validate_filter((1.0, -1.0))


def test_diff3_has_order_three():
    f = validate_filter((-1.0, 3.0, -3.0, 1.0))
    assert f.order == 3
    m = moment_sums(f.coeffs, 4)
    assert np.allclose(m[:3], 0.0)
    assert abs(m[3]) == 6.0


def test_filter_rejects_degenerate_input():
    with pytest.raises(FilterOrderError):
        validate_filter((1.0,))
    with pytest.raises(FilterOrderError):
        validate_filter((0.0, 0.0, 0.0))
    with pytest.raises(FilterOrderError):
        validate_filter((2.0, -2.0))  # order 1 after scaling


def test_named_filter_unknown():
    with pytest.raises(ValueError, match="diff9"):
        as_filter("diff9")


def test_as_filter_accepts_every_spec_form():
    for spec in (DIFF2, "diff2", "1,-2,1", (1.0, -2.0, 1.0), np.array([1.0, -2.0, 1.0])):
        f = as_filter(spec)
        assert np.array_equal(f.coeffs, DIFF2.coeffs) and f.order == 2
    assert as_filter(DIFF3) is DIFF3
    assert as_filter("-1,3,-3,1").order == 3


@pytest.mark.parametrize("spec", ["diff9", "1,x,1", "1,-1", (1.0,)])
def test_as_filter_rejects_with_value_error(spec):
    with pytest.raises(ValueError):
        as_filter(spec)
    if spec == "diff9":
        with pytest.raises(ValueError, match="diff2"):
            as_filter(spec)


# diff2 scaled past about 1.8e148 has lag moments M_m = sum_d w_d d^m that
# overflow a double; scaled past about 5.5e153, w itself overflows
@pytest.mark.parametrize("spec", ["1e200,-2e200,1e200", "1e150,-2e150,1e150"])
def test_filter_whose_lag_moments_overflow_is_refused(spec):
    coeffs = [float(v) for v in spec.split(",")]
    for form in (spec, coeffs, np.array(coeffs)):
        with pytest.raises(FilterOrderError, match="lag moments overflow a double"):
            as_filter(form)


# j^r overflows a double from 145 taps, so the order comes from the moments
# up to the first that does not vanish, and one that overflows before it
# certifies nothing; the suite's filterwarnings turn a numpy warning into a failure
@pytest.mark.parametrize(
    "coeffs,order",
    [([1.0, -2.0, 1.0] + [0.0] * 200, 2), ([0.0] * 150 + [1.0, -2.0, 1.0], 2),
     ([0.0] * 150 + [-1.0, 3.0, -3.0, 1.0] + [0.0] * 100, 3),
     ([1e-300, -2e-300, 1e-300] + [0.0] * 200, None)],
    ids=["trailing", "leading", "both", "too-small"],
)
def test_zero_padded_filter_keeps_its_order(coeffs, order):
    if order is None:
        with pytest.raises(FilterOrderError, match="could not certify a filter order"):
            validate_filter(coeffs)
    else:
        assert validate_filter(coeffs).order == order


@pytest.mark.parametrize(
    "spec,unit", [("1e100,-2e100,1e100", DIFF2), ("-1e140,3e140,-3e140,1e140", DIFF3)]
)
def test_large_filters_estimate_as_their_unit_filters(spec, unit):
    f = as_filter(spec)
    assert f.order == unit.order
    for i, h in enumerate((0.15, 0.5, 0.85) * 10):
        y = FftSampler(256, 5.0, h).paths(RngStream(40, i).generator(), 1)[0]
        assert estimate_h(y, 5.0, f=f).h_hat == pytest.approx(
            estimate_h(y, 5.0, f=unit).h_hat, rel=0, abs=1e-10
        )


# ---------------------------------------------------------------- pi_gamma
def test_pi_gamma_hand_values():
    # diff2 filtering of unit-spacing Brownian motion: variance 2, lag-1
    # autocovariance -1 (the MA structure of second differences)
    assert pi_gamma(0.5, 0, DIFF2) == pytest.approx(2.0, abs=1e-14)
    assert pi_gamma(0.5, 1, DIFF2) == pytest.approx(-1.0, abs=1e-14)
    assert pi_gamma(0.5, 2, DIFF2) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    t=st.floats(min_value=0.02, max_value=0.98),
    j=st.integers(min_value=-20, max_value=20),
    coeffs=st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=5),
)
def test_pi_gamma_symmetric_in_j(t, j, coeffs):
    c = np.asarray(coeffs)
    if np.all(c == 0.0):
        c = np.array([1.0, -2.0, 1.0])
    try:
        f = validate_filter(c)
    except FilterOrderError:
        return
    a, b = pi_gamma(t, j, f), pi_gamma(t, -j, f)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_pi_gamma_rejects_bad_t():
    with pytest.raises(HurstRangeError):
        pi_gamma(0.0, 0, DIFF2)
    with pytest.raises(HurstRangeError):
        pi_gamma(1.0, 0, DIFF2)
    with pytest.raises(HurstRangeError):
        _scale_curve(0.1, 2.0, DIFF2)(float("nan"))
    with pytest.raises(HurstRangeError):
        asym_variance_a(1.5, 2.0, DIFF2)


# --------------------------------------------------------------------- e_k
def exact_e_k(mp, k):
    """E|Z|^k = 2^{k/2} Gamma((k + 1)/2) / sqrt(pi) in mpmath's current precision."""
    k = mp.mpf(k)
    return 2 ** (k / 2) * mp.gamma((k + 1) / 2) / mp.sqrt(mp.pi)


def test_absolute_normal_moments():
    assert e_k(2.0) == pytest.approx(1.0, abs=1e-14)
    assert e_k(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-14)
    assert e_k(4.0) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        e_k(0.0)


@pytest.mark.parametrize("k", range(2, 21, 2))
def test_e_k_exact_at_even_k(k):
    # (k - 1)!!: at even k the rising factorial (1/2)_{k/2} is a product of
    # halves, each exact
    assert e_k(float(k)) == math.prod(range(k - 1, 0, -2))


def test_e_k_within_bounds_of_40_digits_up_to_k_max():
    # at most 2.0e-15 relative over (0, K_MAX]
    mp = pytest.importorskip("mpmath")
    ks = np.linspace(0.0, K_MAX, 2001)[1:].tolist()
    with mp.workdps(40):
        assert max(abs(e_k(k) / exact_e_k(mp, k) - 1) for k in ks) <= 2.5e-15


@pytest.mark.parametrize("k", [0.0, -1.0, float("nan"), float("inf")])
def test_variation_power_must_be_positive_and_finite(k):
    y = np.arange(1.0, 9.0) ** 2
    with pytest.raises(ValueError, match="k must be positive and finite"):
        e_k(k)
    with pytest.raises(ValueError, match="k must be positive and finite"):
        s_n(y, k, DIFF2)
    with pytest.raises(ValueError, match="k must be positive and finite"):
        asym_variance_a(0.5, k, DIFF2)


def test_variation_power_bound_is_where_e_k_overflows():
    # every k with a finite E|Z|^k is accepted, bit for bit; past it, no
    # estimate could exist and k_value names the bound
    assert math.isfinite(e_k(K_MAX))
    assert k_value(K_MAX) == K_MAX
    above = math.nextafter(K_MAX, math.inf)
    with pytest.raises(ValueError, match=f"at most {K_MAX}"):
        k_value(above)
    # e_k's product form overflows past the check, as E|Z|^k at 50 digits
    # does: below DBL_MAX + ulp/2 at K_MAX, at or past it at the next double
    assert 2.0 ** (above / 2.0) * special.poch(0.5, above / 2.0) == math.inf
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        overflow = mp.mpf(2) ** 1024 - mp.mpf(2) ** 970
        assert exact_e_k(mp, K_MAX) < overflow <= exact_e_k(mp, above)


@pytest.mark.parametrize(
    "spacing,scale,k", [(1e160, 1.0, 2.0), (1e160, 1.0, 150.0), (0.01, 100.0, 300.0)]
)
def test_overflow_in_the_estimator_is_a_refusal(spacing, scale, k):
    # spacing^(t k) past the double range (a coarse grid), or |v|^k and
    # g(HURST_MIN) both infinite (a wild series): refused, with no
    # OverflowError, NaN root or numpy warning
    y = scale * np.random.default_rng(0).standard_normal(64)
    with pytest.raises(EstimationRangeError):
        estimate_h(y, 64 * spacing, k)


# --------------------------------------------------------------------- s_n
def test_sn_annihilates_linear_drift():
    n = 64
    y = 3.25 * np.arange(1, n + 1) / n  # dyadic slope and grid: exact zero
    assert s_n(y, 2.0, DIFF2) == 0.0


def test_sn_constant_series_leaves_only_the_anchor_window():
    # the first window spans the known Y(0) = 0 anchor, so a constant
    # input c leaves a single |c * gamma_l|^k term; every other window
    # cancels and the statistic vanishes as the series grows
    c, n = 2.7, 32
    y = np.full(n, c)
    assert s_n(y, 2.0, DIFF2) == pytest.approx(c**2 / (n - 2), rel=1e-14)
    assert s_n(y, 2.0, DIFF3) == pytest.approx(c**2 / (n - 3), rel=1e-12)
    assert s_n(np.full(4096, c), 2.0, DIFF2) < 1e-2


def test_sn_window_convention():
    # windows include the implicit Y(0) = 0 and never touch the final point
    y = np.array([3.0, 5.0, 7.0])
    # only window: y[1] - 2 y[0] + 0 = -1
    assert s_n(y, 2.0, DIFF2) == 1.0
    y4 = np.array([3.0, 5.0, 7.0, 100.0])
    v2 = y4[1] - 2 * y4[0]
    v3 = y4[2] - 2 * y4[1] + y4[0]
    assert s_n(y4, 2.0, DIFF2) == pytest.approx((v2**2 + v3**2) / 2.0, rel=1e-15)


def test_sn_final_point_unused():
    gen = np.random.default_rng(0)
    y = gen.standard_normal(32)
    base = s_n(y, 2.0, DIFF2)
    y2 = y.copy()
    y2[-1] = 1e6
    assert s_n(y2, 2.0, DIFF2) == base


def test_sn_mean_matches_scale_for_brownian():
    # E S = pi_{1/2}(0) / n = 2/n for k=2 on the unit horizon
    n, reps = 256, 1000
    gen = np.random.default_rng(8)
    y = np.cumsum(gen.standard_normal((reps, n)), axis=1) / math.sqrt(n)
    vals = np.array([s_n(row, 2.0, DIFF2) for row in y])
    assert vals.mean() == pytest.approx(2.0 / n, rel=0.05)


def test_sn_series_too_short():
    with pytest.raises(SeriesLengthError):
        s_n(np.ones(2), 2.0, DIFF2)


def test_sn_scale_equivariance_exact_for_pow2():
    gen = np.random.default_rng(1)
    y = gen.standard_normal(64)
    base = s_n(y, 2.0, DIFF2)
    assert s_n(4.0 * y, 2.0, DIFF2) == 16.0 * base


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=-50, max_value=50), k=st.sampled_from([1.0, 2.0, 3.0]))
def test_sn_scale_equivariance_general(lam, k):
    if lam == 0.0:
        return
    gen = np.random.default_rng(2)
    y = gen.standard_normal(48)
    assert s_n(lam * y, k, DIFF2) == pytest.approx(abs(lam) ** k * s_n(y, k, DIFF2), rel=1e-11)


# ----------------------------------------------------------- scale curve g
def test_g_scale_reference_value():
    assert _scale_curve(1 / 256, 2.0, DIFF2)(0.5) == pytest.approx(2.0 / 256, rel=1e-14)


def test_g_scale_k2_reduces_to_pi_over_power():
    for t in (0.1, 0.5, 0.9):
        for n in (4, 64):
            assert _scale_curve(1 / n, 2.0, DIFF2)(t) == pytest.approx(
                n ** (-2.0 * t) * pi_gamma(t, 0, DIFF2), rel=1e-12
            )


@pytest.mark.parametrize("n", [2, 4, 256])
def test_g_scale_strictly_decreasing(n):
    ts = np.arange(0.01, 0.99 + 1e-9, 1e-3)
    g = _scale_curve(1 / n, 2.0, DIFF2)
    vals = np.array([g(t) for t in ts])
    assert np.all(np.diff(vals) < 0.0)


def test_curve_and_probe_built_once_per_key():
    # one build per (spacing, k, filter), and the same bits as a fresh build
    gen = np.random.default_rng(17)
    paths = [gen.standard_normal(n).cumsum() * math.sqrt(5.0 / n) for n in (32, 64)]  # H = 1/2
    cases = [(y, f) for y in paths for f in ("diff2", "diff3")]
    _probed_curve.cache_clear()
    warm = [estimate_h(y, 5.0, 2.0, f) for y, f in cases * 3]
    info = _probed_curve.cache_info()
    assert (info.misses, info.hits) == (4, 8)
    for (y, f), est in zip(cases * 3, warm):
        _probed_curve.cache_clear()
        cold = estimate_h(y, 5.0, 2.0, f)
        assert (cold.h_hat.hex(), cold.asym_std.hex()) == (est.h_hat.hex(), est.asym_std.hex())


def test_equal_filters_share_a_curve():
    # a filter certified again from the same coefficients is equal, hashes
    # alike, and finds the named filter's cache entry
    again = validate_filter(FILTERS["diff2"])
    assert again is not DIFF2 and again == DIFF2 and hash(again) == hash(DIFF2)
    assert DIFF2 != DIFF3 and DIFF2 != "diff2"
    _probed_curve.cache_clear()
    y = np.random.default_rng(19).standard_normal(64).cumsum() * math.sqrt(5.0 / 64)
    first, second = estimate_h(y, 5.0, f=DIFF2), estimate_h(y, 5.0, f=again)
    assert _probed_curve.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert first == second and hash(first) == hash(second)
    assert {first, second} == {first}


def test_filters_compare_on_coefficient_bytes_and_order():
    diff2 = np.array(FILTERS["diff2"])
    assert validate_filter(2.0 * diff2) != DIFF2
    assert validate_filter(-diff2) != DIFF2
    assert validate_filter(np.append(diff2, 0.0)) != DIFF2  # same order, longer
    assert validate_filter(list(FILTERS["diff3"])) == DIFF3


def test_probe_error_is_not_cached():
    # g overflows at H = HURST_MAX on this grid; each call raises afresh
    y = np.random.default_rng(3).standard_normal(32)
    _probed_curve.cache_clear()
    for _ in range(2):
        with pytest.raises(EstimationRangeError, match="overflows"):
            estimate_h(y, 1e300 * y.size)
    assert _probed_curve.cache_info().currsize == 0


# ---------------------------------------------------------- asym_variance_a
def test_variance_constant_hand_value():
    # rho = (..., 0, -1/2, 1, -1/2, 0, ...) at t=1/2, so A = 2 * 1.5 = 3
    assert asym_variance_a(0.5, 2.0, DIFF2) == pytest.approx(3.0, abs=1e-9)


def test_variance_constant_k2_is_two_sum_rho_squared():
    for t in (0.15, 0.5, 0.85):
        rho = np.array([pi_gamma(t, j, DIFF2) for j in range(0, 4000)])
        rho = rho / rho[0]
        direct = 2.0 * (1.0 + 2.0 * np.sum(rho[1:] ** 2))
        assert asym_variance_a(t, 2.0, DIFF2) == pytest.approx(direct, rel=1e-6)


def test_variance_constant_k4_hand_value():
    # j=1 term 4*2*1.5 = 12, j=2 term (1/9)*24*1.125 = 3, higher terms vanish
    assert asym_variance_a(0.5, 4.0, DIFF2) == pytest.approx(15.0, abs=1e-9)


def test_variance_constant_k4_monte_carlo():
    # CLT oracle: (n - l) Var(S) / E(S)^2 -> A for filtered Brownian motion
    n, reps = 2**15, 2000
    gen = np.random.default_rng(3)
    y = np.cumsum(gen.standard_normal((reps, n)), axis=1) / math.sqrt(n)
    vals = np.array([s_n(row, 4.0, DIFF2) for row in y])
    stat = (n - 2) * vals.var() / vals.mean() ** 2
    assert stat == pytest.approx(15.0, rel=0.20)


@pytest.mark.parametrize("f", [DIFF2, DIFF3])
def test_pi_gamma_matches_double_sum(f):
    # the offset-weight form against the defining double sum over taps
    c = f.coeffs
    q = np.arange(c.size)
    for t in (0.15, 0.5, 0.85):
        for j in (0, 1, 3, 17):
            terms = [
                c[a] * c[b] * abs(q[a] - q[b] + j) ** (2 * t)
                for a in range(c.size)
                for b in range(c.size)
            ]
            # the terms cancel at large lags: bound the error by their size
            tol = 1e-14 * sum(abs(x) for x in terms)
            assert pi_gamma(t, j, f) == pytest.approx(-0.5 * sum(terms), rel=0, abs=tol)


def _mp_pi(mp, t, j, coeffs):
    """pi_t(j) by its defining sum in the current mpmath precision."""
    c = [mp.mpf(v) for v in coeffs]
    two_t = 2 * mp.mpf(t)
    return -sum(
        c[a] * c[b] * abs(a - b + j) ** two_t for a in range(len(c)) for b in range(len(c))
    ) / 2


@pytest.mark.parametrize("f", [DIFF2, DIFF3])
def test_pi_gamma_accurate_at_large_lags(f):
    # the defining sum cancels to rounding noise at these lags in double
    # precision; 80 working digits leave more than 40 after the cancellation
    mp = pytest.importorskip("mpmath")
    for t in (0.15, 0.85, 0.99):
        for j in (10, 1000, 16384, 100000):
            with mp.workdps(80):
                want = _mp_pi(mp, t, j, f.coeffs.tolist())
            assert float(abs((pi_gamma(t, j, f) - want) / want)) < 1e-10, (t, j)


def test_rho_zero_is_one():
    for t in (0.1, 0.5, 0.9):
        for f in (DIFF2, DIFF3):
            assert pi_gamma(t, 0, f) / pi_gamma(t, 0, f) == 1.0


@functools.lru_cache(maxsize=None)
def _mp_rho_squared(mp, t, coeffs, lags):
    """pi_t(0) and rho_t(i)^2 for i = 1..lags at 40 digits, from the
    defining sum over the offsets d of w = gamma * reversed gamma."""
    with mp.workdps(40):
        w = np.convolve(coeffs, coeffs[::-1])
        l = len(coeffs) - 1
        powers = [mp.mpf(x) ** (2 * mp.mpf(t)) for x in range(lags + l + 1)]
        pi = [
            -mp.fsum(v * powers[abs(i + d)] for d, v in zip(range(-l, l + 1), w)) / 2
            for i in range(lags + 1)
        ]
        return pi[0], [(x / pi[0]) ** 2 for x in pi[1:]]


def _mp_variance_constant(mp, t, k, f, lags=2000):
    """A(t, k, gamma) at 40 digits, every Hermite order included: lag 0
    by Gauss's closed form E_{2k}/E_k^2 - 1, each lag i <= ``lags`` as
    2F1(-k/2, -k/2; 1/2; rho_i^2) - 1 (the order sum at correlation
    rho_i), and beyond them the leading power term a_0 i^{2t-2p} of rho,
    order by order, summed by mpmath.zeta."""
    coeffs = tuple(f.coeffs.tolist())
    p0, rho2 = _mp_rho_squared(mp, t, coeffs, lags)
    with mp.workdps(40):
        w = np.convolve(coeffs, coeffs[::-1])
        l = len(coeffs) - 1
        moment = mp.fsum(v * mp.mpf(d) ** (2 * f.order) for d, v in zip(range(-l, l + 1), w))
        a0 = -mp.binomial(2 * mp.mpf(t), 2 * f.order) * moment / (2 * p0)
        sigma = 2 * (2 * f.order - 2 * mp.mpf(t))
        k = mp.mpf(k)
        total = mp.gamma(k + 0.5) * mp.gamma(0.5) / mp.gamma((k + 1) / 2) ** 2 - 1
        total += 2 * mp.fsum(mp.hyp2f1(-k / 2, -k / 2, 0.5, r) - 1 for r in rho2)
        coef = k * k / 2
        for j in range(1, 100):
            tail = 2 * coef * a0 ** (2 * j) * mp.zeta(j * sigma, lags + 1)
            total += tail
            if abs(tail) < mp.mpf(10) ** -45 * total:
                return total
            coef *= (k - 2 * j) ** 2 / ((2 * j + 1) * (2 * j + 2))
        raise AssertionError("the lag tail did not converge")


@pytest.mark.parametrize(
    "t, k, f",
    [(t, 2.0, f) for f in (DIFF2, DIFF3) for t in (0.01, 0.15, 0.5, 0.85, 0.99)]
    + [(t, k, DIFF2) for k in (1.3, 4.0) for t in (0.15, 0.99)]
    + [(t, k, f) for k in (1.0, 3.0) for t, f in ((0.15, DIFF2), (0.99, DIFF2), (0.5, DIFF3))],
)
def test_variance_constant_matches_40_digit_oracle(t, k, f):
    mp = pytest.importorskip("mpmath")
    want = _mp_variance_constant(mp, t, k, f)
    assert float(abs((asym_variance_a(t, k, f) - want) / want)) < 1e-13


@pytest.mark.parametrize("t", [0.15, 0.85, 0.99])
@pytest.mark.parametrize("k", [1.3, 2.0])
def test_variance_constant_needs_no_lag_window(t, k):
    asym_variance_a(t, k, DIFF2)  # the filter's lag tables are built once, here
    tracemalloc.start()
    try:
        asym_variance_a(t, k, DIFF2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e3


# -------------------------------------------------------------- estimate_h
def test_default_filter_is_certified_once(monkeypatch):
    y = FftSampler(256, 5.0, 0.7).paths(RngStream(25).generator(), 1)[0]
    explicit = estimate_h(y, 5.0, f=validate_filter((1.0, -2.0, 1.0)))
    as_filter("diff2")  # certified at import: no call certifies it again

    def refuse(coeffs):
        raise AssertionError("the named filter was certified again")

    monkeypatch.setattr(hurst, "validate_filter", refuse)
    est = estimate_h(y, 5.0)
    assert (est.h_hat, est.asym_std) == (explicit.h_hat, explicit.asym_std)
    assert np.array_equal(est.filter.coeffs, explicit.filter.coeffs)


def test_estimator_consistent_on_brownian():
    gen = RngStream(21).generator()
    n, reps = 2**10, 50
    paths = FftSampler(n, 1.0, 0.5).paths(gen, reps)
    hs = [estimate_h(p, 1.0).h_hat for p in paths]
    assert np.mean(hs) == pytest.approx(0.5, abs=0.02)


def test_estimator_ignores_added_drift():
    n = 2**10
    t = np.arange(1, n + 1) / n
    path = FftSampler(n, 1.0, 0.7).paths(RngStream(22).generator(), 1)[0]
    quantum = 2.0**26
    y = np.round(path * quantum) / quantum  # dyadic values: drift sums cancel exactly
    base = estimate_h(y, 1.0)
    for c in (-512.25, 1.0, 977.5):
        shifted = estimate_h(y + c * t, 1.0)
        assert shifted.h_hat == base.h_hat


@settings(max_examples=40, deadline=None)
@given(
    h=st.sampled_from([0.15, 0.5, 0.85]),
    stream=st.integers(min_value=0, max_value=2**16),
    c=st.floats(min_value=-1e3, max_value=1e3),
)
def test_estimator_ignores_added_drift_at_full_precision(h, stream, c):
    # no dyadic rounding: y + c t rounds in the last bits, which moves
    # S by ~1e-11 relative; the estimate may move only within the root
    # finder's tolerance
    n = 2**10
    t = np.arange(1, n + 1) / n
    y = FftSampler(n, 1.0, h).paths(RngStream(24, stream).generator(), 1)[0]
    base = estimate_h(y, 1.0).h_hat
    assert abs(estimate_h(y + c * t, 1.0).h_hat - base) <= _ROOT_XTOL


def test_inversion_round_trip():
    n = 2**10
    gen = np.random.default_rng(4)
    y0 = np.cumsum(gen.standard_normal(n)) / math.sqrt(n)
    s0 = s_n(y0, 2.0, DIFF2)
    for target in np.arange(0.1, 0.95, 0.1):
        want = _scale_curve(1.0 / n, 2.0, DIFF2)(target)
        y = y0 * (want / s0) ** 0.5
        est = estimate_h(y, 1.0)
        assert est.h_hat == pytest.approx(target, abs=1e-9)


def test_estimator_horizon_generalization():
    # estimation works at non-unit horizons through the spacing-aware
    # scale function: force S to the spacing-T/n curve and invert
    n, T = 2**10, 5.0
    gen = np.random.default_rng(23)
    y0 = np.cumsum(gen.standard_normal(n))
    s0 = s_n(y0, 2.0, DIFF2)
    for target in (0.15, 0.5, 0.85):
        want = _scale_curve(T / n, 2.0, DIFF2)(target)
        est = estimate_h(y0 * (want / s0) ** 0.5, T)
        assert est.h_hat == pytest.approx(target, abs=1e-9)
    # and statistically: a T-horizon path estimates its H
    paths = FftSampler(2**12, T, 0.85).paths(RngStream(23).generator(), 20)
    hs = [estimate_h(p, T).h_hat for p in paths]
    assert np.mean(hs) == pytest.approx(0.85, abs=0.02)


def test_estimator_rejects_drift_only_series():
    n = 256
    y = -3.0 * np.arange(1, n + 1) / n
    with pytest.raises(EstimationRangeError):
        estimate_h(y, 1.0)


def test_estimator_rejects_out_of_scale_series():
    n = 256
    gen = np.random.default_rng(5)
    y = 1e12 * np.cumsum(gen.standard_normal(n))
    with pytest.raises(EstimationRangeError):
        estimate_h(y, 1.0)


def test_estimator_series_too_short():
    with pytest.raises(SeriesLengthError):
        estimate_h(np.ones(2), 1.0)


def test_estimator_empty_series_is_too_short():
    with pytest.raises(SeriesLengthError, match="length 0"):
        estimate_h(np.array([]), 5.0)


@pytest.mark.parametrize("horizon", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_estimator_rejects_a_bad_horizon_by_name(horizon):
    # not a complex power (TypeError) or an undecreasing scale function
    y = np.random.default_rng(6).standard_normal(64).cumsum()
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        estimate_h(y, horizon)


def test_asym_std_normalization():
    n = 2**12
    path = FftSampler(n, 1.0, 0.5).paths(RngStream(24).generator(), 1)[0]
    est = estimate_h(path, 1.0)
    expected = math.sqrt(asym_variance_a(est.h_hat, 2.0, DIFF2)) / (
        2.0 * math.sqrt(n) * math.log(n)
    )
    assert est.asym_std == pytest.approx(expected, rel=1e-12)


def test_asym_std_is_computed_on_first_read_only(monkeypatch):
    # the experiment reads h_hat alone, so it never sums A; a reader of
    # asym_std sums it once, to the bits of the formula
    from fracmix import ExperimentConfig, run_experiment

    calls = []

    def spy(*args):
        calls.append(args)
        return asym_variance_a(*args)

    monkeypatch.setattr(hurst, "asym_variance_a", spy)
    cfg = ExperimentConfig(h_list=(0.3, 0.8), subjects_list=(3,), n_obs_list=(64,), horizon=1.0,
                           mu0=0.0, sigma20=1.0, replications=4, estimate_hurst=True)
    (cell,) = [s for s in run_experiment(cfg) if s.h == 0.8]
    assert cell.hurst_refusals < 4 and calls == []
    path = FftSampler(512, 1.0, 0.7).paths(RngStream(26).generator(), 1)[0]
    est = estimate_h(path, 1.0, 3, DIFF3)
    assert calls == []
    want = math.sqrt(asym_variance_a(est.h_hat, 3, DIFF3)) / (3 * math.sqrt(512) * math.log(512))
    assert est.asym_std.hex() == want.hex() and est.asym_std.hex() == want.hex()
    assert calls == [(est.h_hat, 3, DIFF3)]


def test_filtered_series_length():
    y = np.arange(1.0, 11.0)
    assert filtered_series(y, DIFF2).shape == (8,)
    assert filtered_series(y, DIFF3).shape == (7,)


# ------------------------------------------------------------ root finding
# (n, H, (k, filter), horizon) over the estimator's regimes; case i draws
# two fast-sampler paths from RngStream(17, i)
BRENT_GRID = list(
    itertools.product(
        (8, 32, 256, 4096),
        (0.05, 0.15, 0.5, 0.85, 0.97),
        ((2.0, "diff2"), (1.5, "diff3"), (1.0, "diff2"), (4.0, "diff3")),
        (1.0, 5.0, 50.0),
    )
)


def _brent_case(case):
    n, h, (k, f), horizon = BRENT_GRID[case]
    return FftSampler(n, horizon, h).paths(RngStream(17, case).generator(), 2), horizon, k, f


def _grid_results(cases):
    # (h_hat, asym_std) bits or the refusal message, per path
    results = []
    for case in cases:
        paths, horizon, k, f = _brent_case(case)
        for y in paths:
            try:
                est = estimate_h(y, horizon, k, f)
            except EstimationRangeError as exc:
                results.append(str(exc))
            else:
                results.append((est.h_hat.hex(), est.asym_std.hex()))
    return results


@pytest.mark.parametrize("n", [8, 32, 256, 4096])
def test_brentq_port_matches_scipy_bit_for_bit(monkeypatch, n):
    from scipy.optimize import brentq as scipy_brentq  # the oracle; fracmix never imports it

    def oracle(f, a, b, fa, fb):
        return scipy_brentq(f, a, b, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL, maxiter=_ROOT_MAX_ITER)

    cases = [c for c, params in enumerate(BRENT_GRID) if params[0] == n]
    ours = _grid_results(cases)
    monkeypatch.setattr(hurst, "brentq", oracle)
    want = _grid_results(cases)
    assert ours == want
    assert any(isinstance(r, tuple) for r in want)  # estimates, not only refusals


PINNED_H_HAT = {  # scipy.optimize.brentq's h_hat on the first path of each case
    1: "0x1.6dbfea642277cp-4",  # n=8, H=0.05, k=2.0, diff2, horizon 5
    19: "0x1.51b69b36d6f03p-2",  # n=8, H=0.15, k=1.0, diff2, horizon 5
    36: "0x1.b9afc18429fcdp-1",  # n=8, H=0.85, k=2.0, diff2, horizon 1
    54: "0x1.f9586103c08f7p-1",  # n=8, H=0.97, k=1.0, diff2, horizon 1
    72: "0x1.3ccfbda5186b2p-3",  # n=32, H=0.15, k=2.0, diff2, horizon 1
    84: "0x1.d803cf4e49246p-2",  # n=32, H=0.5, k=2.0, diff2, horizon 1
    97: "0x1.bcd37851a0c5ap-1",  # n=32, H=0.85, k=2.0, diff2, horizon 5
    109: "0x1.eecc68dc87184p-1",  # n=32, H=0.97, k=2.0, diff2, horizon 5
    121: "0x1.bfd9ee06cd3ccp-5",  # n=256, H=0.05, k=2.0, diff2, horizon 5
    131: "0x1.d6a33c646e8b4p-4",  # n=256, H=0.05, k=4.0, diff3, horizon 50
    141: "0x1.3fce3e7f5c46cp-3",  # n=256, H=0.15, k=4.0, diff3, horizon 1
    150: "0x1.ef98f12c1f356p-2",  # n=256, H=0.5, k=1.0, diff2, horizon 1
    160: "0x1.ade8c62300a7dp-1",  # n=256, H=0.85, k=1.5, diff3, horizon 5
    170: "0x1.f0fd25c6fb002p-1",  # n=256, H=0.97, k=2.0, diff2, horizon 50
    180: "0x1.95c363649e70fp-5",  # n=4096, H=0.05, k=2.0, diff2, horizon 1
    190: "0x1.9a3b267a519c3p-5",  # n=4096, H=0.05, k=4.0, diff3, horizon 5
    200: "0x1.3f35377a73980p-3",  # n=4096, H=0.15, k=1.0, diff2, horizon 50
    210: "0x1.0050da7539432p-1",  # n=4096, H=0.5, k=1.0, diff2, horizon 1
    220: "0x1.b3d7ba4f172dep-1",  # n=4096, H=0.85, k=1.5, diff3, horizon 5
    230: "0x1.f05f6491c0a02p-1",  # n=4096, H=0.97, k=2.0, diff2, horizon 50
}


@pytest.mark.parametrize("case", sorted(PINNED_H_HAT))
def test_h_hat_bits_pinned(case):
    # holds whatever a later scipy's brentq does
    (y, _), horizon, k, f = _brent_case(case)
    assert estimate_h(y, horizon, k, f).h_hat.hex() == PINNED_H_HAT[case]


def _never_called(x):
    raise AssertionError(f"f evaluated at {x}")


def test_brentq_rejects_a_same_sign_bracket():
    # scipy's C code returns 0 here; a root of 0 would be a valid-looking H
    with pytest.raises(ValueError, match="different signs"):
        brentq(_never_called, 0.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="different signs"):
        brentq(_never_called, 0.0, 1.0, -2.0, -3.0)


def test_brentq_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        brentq(_never_called, 0.0, 1.0, math.nan, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("maxiter", [0, 1, 3])
def test_brentq_raises_after_maxiter(monkeypatch, maxiter):
    calls = []

    def f(x):
        calls.append(x)
        return x**3 - 0.3

    monkeypatch.setattr(hurst, "_ROOT_MAX_ITER", maxiter)
    with pytest.raises(RuntimeError, match=f"no root after {maxiter} iterations"):
        brentq(f, 0.0, 1.0, -0.3, 0.7)
    assert len(calls) == maxiter


def test_brentq_converges_within_tolerance():
    root = brentq(lambda x: x**3 - 0.3, 0.0, 1.0, -0.3, 0.7)
    assert abs(root - 0.3 ** (1 / 3)) <= _ROOT_XTOL + _ROOT_RTOL * root


BRENT_FUNCTIONS = {  # slow, flat, steep and pole-like sign changes on [0.01, 0.99]
    "cubic": lambda x: x**3 - 0.3,
    "cos": lambda x: math.cos(3 * x) - x,
    "exp": lambda x: math.exp(x) - 2,
    "flat": lambda x: (x - 0.4) ** 9,
    "step": lambda x: math.tanh(200 * (x - 0.37)),
    "pole": lambda x: 1 / (x - 0.3 - 1e-9),
    "hump": lambda x: x * math.exp(-30 * x) - 0.005,
    # the extrapolation's denominator underflows to 0 (an inf or NaN step
    # in C, which bisects), or its products overflow
    "tiny": lambda x: 1e-200 * (x**3 - 0.3),
    "huge": lambda x: 1e300 * (math.cos(3 * x) - x),
}


@pytest.mark.parametrize("name", sorted(BRENT_FUNCTIONS))
def test_brentq_port_matches_scipy_on_hard_functions(name):
    from scipy.optimize import brentq as scipy_brentq

    f = BRENT_FUNCTIONS[name]
    a, b = HURST_MIN, HURST_MAX
    want = scipy_brentq(f, a, b, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL, maxiter=_ROOT_MAX_ITER)
    assert brentq(f, a, b, f(a), f(b)).hex() == want.hex()


@pytest.mark.parametrize("fa,fb,root", [(0.0, 1.0, 0.25), (-0.0, 1.0, 0.25), (-1.0, 0.0, 0.75)])
def test_brentq_returns_an_endpoint_root(fa, fb, root):
    assert brentq(_never_called, 0.25, 0.75, fa, fb) == root


def test_estimator_reuses_the_bracket_values(monkeypatch):
    # the probe's g at the bracket ends is brentq's fa and fb: the root
    # finder evaluates g only inside the bracket
    seen = []

    def spy(f, a, b, fa, fb):
        def traced(x):
            seen.append(x)
            return f(x)

        assert (fa, fb) == (f(a), f(b))
        return brentq(traced, a, b, fa, fb)

    monkeypatch.setattr(hurst, "brentq", spy)
    estimate_h(FftSampler(256, 1.0, 0.5).paths(RngStream(25).generator(), 1)[0], 1.0)
    assert seen and all(HURST_MIN < x < HURST_MAX for x in seen)


def test_hurst_study_script(capsys):
    # scripts/hurst_study.py at two replications: nine (H, n) rows whose
    # mean estimates sit near their H
    path = Path(__file__).resolve().parents[1] / "scripts" / "hurst_study.py"
    spec = importlib.util.spec_from_file_location("hurst_study", path)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    assert study.main(["--replications", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["H", "n"] and len(rows) == 9
    values = [[float(v) for v in row.replace("|", " ").split()] for row in rows]
    assert sorted({(h, n) for h, n, *_ in values}) == [
        (h, 2.0**e) for h in (0.15, 0.5, 0.85) for e in (10, 12, 14)
    ]
    for (h, _, mean, *_), row in zip(values, rows):
        assert abs(mean - h) < 0.02, row
