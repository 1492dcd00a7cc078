"""The special functions the estimators read: the Cephes ports in
fracmix.special against live scipy.special, bit for bit, and against hex
tables of the bits scipy 1.17 gave, which hold whatever a later scipy
does; Gamma from math and the interval quantile against 40 digits."""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from fracmix import special
from fracmix.effects import _abs_normal_quantile
from fracmix.hurst import _ORDER_CAP, _SERIES_POWERS, K_MAX, as_filter


def same_bits(port, oracle, args):
    """The arguments at which the port and scipy's ufunc differ in bits."""
    want = oracle(*(np.asarray(a, dtype=float) for a in zip(*args)))
    return [a for a, w in zip(args, want.tolist()) if port(*a).hex() != w.hex()]


# ------------------------------------------------------------------ gamma
def test_math_gamma_within_bounds_of_40_digits_where_poch_reads_it():
    # poch reads Gamma at a and a + m, 0 < m < 1, with a = 1/2 for e_k and
    # a = (k + 1) / 2 for E_2k / E_k^2, k in (0, K_MAX]: at most 7.8e-16
    # relative over 20,001 points of [0.5, 170]
    xs = np.linspace(0.5, (K_MAX + 1.0) / 2.0 + 1.0, 4001).tolist()
    with mpmath.workdps(40):
        worst = max(abs(math.gamma(x) / mpmath.gamma(x) - 1) for x in xs)
    assert worst <= 1e-15


# -------------------------------------------------------- normal quantile
def exact_quantile(level):
    """z with P(|Z| <= z) = level, at 40 digits."""
    with mpmath.workdps(40):
        return mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(level))


def quantile_error(level):
    """_abs_normal_quantile's relative error against 40 digits."""
    with mpmath.workdps(40):
        return abs(_abs_normal_quantile(level) / exact_quantile(level) - 1)


QUANTILE_LEVELS = [
    1e-300, 1e-20, 1e-8, 0.1, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
    0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-10, math.nextafter(1.0, 0.0),
]


@pytest.mark.parametrize("level", QUANTILE_LEVELS)
def test_interval_quantile_within_4e_16_of_40_digits(level):
    # reading level itself, not (1 + level) / 2, keeps z finite below 1
    # (z = 8.2924 at 1 - 2^-53) and positive at tiny levels
    assert quantile_error(level) <= 4e-16


RANDOM_LEVELS = {
    "uniform": lambda rng: rng.random(),
    "upper-tail": lambda rng: 1.0 - 10.0 ** -rng.uniform(0.0, 15.9),
    "lower-tail": lambda rng: 10.0 ** -rng.uniform(0.0, 307.0),
}


@pytest.mark.parametrize("family", sorted(RANDOM_LEVELS))
def test_interval_quantile_within_4e_16_of_40_digits_on_random_levels(family):
    rng = random.Random(7)
    levels = [RANDOM_LEVELS[family](rng) for _ in range(400)]
    assert max(map(quantile_error, levels)) <= 4e-16


def test_interval_quantile_rises_with_the_level():
    # the erf branch up to 1/2 and the erfc branch past it meet without a
    # step back, and neither turns back within its tail
    levels = sorted(
        [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)]
        + np.linspace(0.0, 1.0, 20001)[1:-1].tolist()
        + (1.0 - np.logspace(-15.9, -1.0, 2000)).tolist()
        + np.logspace(-300.0, -1.0, 2000).tolist()
    )
    z = [_abs_normal_quantile(level) for level in levels]
    assert all(a <= b for a, b in zip(z, z[1:]))


# ------------------------------------------------------------------- zeta
PINNED_ZETA = {
    (3.9, 7.0): "0x1.8891c859c7729p-10",
    (7.96, 7.0): "0x1.41b17f39ee69bp-22",
    (41.0, 10.0): "0x1.c73c8f08e3b9dp-137",
    (375.0, 7.0): "0x0.000000025d778p-1022",  # q^-x is subnormal
    (400.0, 7.0): "0x0.0p+0",  # every term underflows: s == 0 continues the loops
}


@pytest.mark.parametrize("name", ["diff2", "diff3"])
def test_zeta_matches_scipy_at_the_exponents_asym_variance_a_reads(name):
    # x = j sigma + 2r with sigma = 2(2p - 2t), q = head + 1, over t in
    # [0.01, 0.99], the orders j and series terms r; at the largest x
    # every term underflows
    f = as_filter(name)
    sigma = 2.0 * (2 * f.order - 2.0 * np.linspace(0.01, 0.99, 23))
    j = np.arange(1, _ORDER_CAP + 1)
    xs = (j[:, None, None] * sigma[None, :, None] + _SERIES_POWERS).ravel().tolist()
    args = [(x, float(f.head + 1)) for x in xs]
    assert same_bits(special.zeta, scipy.special.zeta, args) == []
    assert min(special.zeta(*a) for a in args) == 0.0


def test_zeta_matches_scipy_over_its_domain():
    # near x = 1 and q = 1 the Euler-Maclaurin sum runs to its last term
    rng = np.random.default_rng(6)
    args = list(zip((1.0 + rng.exponential(2.0, 20000)).tolist(), rng.uniform(1.0, 20.0, 20000).tolist()))
    assert same_bits(special.zeta, scipy.special.zeta, [*args, (1.5, 1.0), (1.0001, 1.0)]) == []


@pytest.mark.parametrize("args", sorted(PINNED_ZETA))
def test_zeta_bits_pinned(args):
    assert special.zeta(*args).hex() == PINNED_ZETA[args]
    assert special.zeta(*args).hex() == float(scipy.special.zeta(*args)).hex()


# ------------------------------------------------------------ Pochhammer
def moment_ratio(k, poch=special.poch):
    """E_{2k} / E_k^2 as asym_variance_a reads it."""
    return poch((k + 1.0) / 2.0, k / 2.0) / poch(0.5, k / 2.0)


def double_factorial(m):
    return math.prod(range(m, 0, -2))


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_moment_ratio_exact_at_even_integer_k(k):
    # (2k - 1)!! / ((k - 1)!!)^2, correctly rounded, as scipy gives it
    want = float(Fraction(double_factorial(2 * k - 1), double_factorial(k - 1) ** 2))
    assert moment_ratio(float(k)) == want
    assert moment_ratio(float(k)).hex() == float(moment_ratio(float(k), scipy.special.poch)).hex()


def test_moment_ratio_within_bounds_of_scipy_and_of_40_digits():
    # past k/2 integer the remainder is Gamma(a + m) / Gamma(a), not scipy's
    # exp(lgam(a + m) - lgam(a)), which cancels at large a: over this sweep
    # at most 1.8e-13 from scipy and 1.8e-14 from 40 digits
    for k in np.linspace(0.05, 250.0, 301).tolist():
        got = moment_ratio(k)
        with mpmath.workdps(40):
            exact = float(moment_ratio(mpmath.mpf(k), mpmath.rf))
        assert abs(got / moment_ratio(k, scipy.special.poch) - 1.0) <= 5e-13, k
        assert abs(got / exact - 1.0) <= 5e-14, k
