"""The Cephes ports in fracmix.special against live scipy.special, bit for
bit, and against hex tables of the bits scipy 1.17 gave, which hold
whatever a later scipy does."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

from fracmix import special
from fracmix.hurst import _ORDER_CAP, _SERIES_POWERS, K_MAX, as_filter

EXP_M2 = 0.13533528323661269189  # ndtri's switch to the tail expansions


def same_bits(port, oracle, args):
    """The arguments at which the port and scipy's ufunc differ in bits."""
    want = oracle(*(np.asarray(a, dtype=float) for a in zip(*args)))
    return [a for a, w in zip(args, want.tolist()) if port(*a).hex() != w.hex()]


# ------------------------------------------------------------------ gamma
PINNED_GAMMA = {
    0.5: "0x1.c5bf891b4ef6ap+0",
    1.5: "0x1.c5bf891b4ef6ap-1",
    2.0: "0x1.0000000000000p+0",
    2.0000000000000004: "0x1.0000000000001p+0",
    3.0: "0x1.0000000000000p+1",
    33.0: "0x1.956ad0aae33a5p+117",  # the last argument of the recurrence
    33.00000000000001: "0x1.956ad0aae3456p+117",  # the first of Stirling's formula
    143.01608: "0x1.5603bf6efb4b8p+815",  # the last x^(x - 1/2) in one power
    143.01608000000002: "0x1.5603bf6efb807p+815",
    151.07778649919382: "0x1.57090d937c08dp+873",  # e_k's largest, at k = K_MAX
    171.62: "0x1.f49ac9f1924cbp+1023",
}


def test_gamma_matches_scipy_on_the_domain_e_k_reads():
    # (k + 1) / 2 over k in (0, K_MAX], and the branch points
    xs = np.linspace(0.5, (K_MAX + 1.0) / 2.0, 20001)[1:].tolist()
    xs += [math.nextafter(x, d) for x in PINNED_GAMMA for d in (0.0, math.inf)]
    assert same_bits(special.gamma, scipy.special.gamma, [(x,) for x in xs]) == []


@pytest.mark.parametrize("x", sorted(PINNED_GAMMA))
def test_gamma_bits_pinned(x):
    assert special.gamma(x).hex() == PINNED_GAMMA[x]
    assert special.gamma(x).hex() == float(scipy.special.gamma(x)).hex()


def test_gamma_overflows_to_inf_at_the_cephes_bound():
    assert special.gamma(math.nextafter(171.624376956302725, 0.0)) < math.inf
    assert special.gamma(171.624376956302725) == math.inf == scipy.special.gamma(171.7)


# ------------------------------------------------------------------ ndtri
PINNED_NDTRI = {
    math.nextafter(EXP_M2, 0.0): "-0x1.19fd30bc4de02p+0",
    EXP_M2: "-0x1.19fd30bc4de02p+0",
    math.nextafter(EXP_M2, 1.0): "-0x1.19fd30bc4de03p+0",
    1.0 - EXP_M2: "0x1.19fd30bc4de03p+0",
    math.nextafter(1.0 - EXP_M2, 1.0): "0x1.19fd30bc4de05p+0",
    0.975: "0x1.f5c0331eeff84p+0",
    1e-20: "-0x1.2865170b43a4dp+3",  # sqrt(-2 log y) >= 8: the far tail
    1e-300: "-0x1.286074064c26ep+5",
    5e-324: "-0x1.33bd3f27fcd03p+5",
}


def test_ndtri_matches_scipy():
    rng = np.random.default_rng(5)
    ys = rng.uniform(0.0, 1.0, 20000).tolist() + np.exp(-rng.uniform(0.0, 744.0, 20000)).tolist()
    ys += (1.0 - np.exp(-rng.uniform(0.0, 36.0, 4000))).tolist() + [0.5, *PINNED_NDTRI]
    assert same_bits(special.ndtri, scipy.special.ndtri, [(y,) for y in ys]) == []


@pytest.mark.parametrize("y", sorted(PINNED_NDTRI))
def test_ndtri_bits_pinned(y):
    assert special.ndtri(y).hex() == PINNED_NDTRI[y]


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, math.nextafter(1.0, 0.0)])
def test_ndtri_at_the_interval_levels(level):
    # as confidence_intervals reads it; past 1 - 2^-53 the level rounds to
    # y = 1.0, whose quantile, and so each interval, is infinite
    y = 0.5 * (1.0 + level)
    assert special.ndtri(y).hex() == float(scipy.special.ndtri(y)).hex()
    assert (special.ndtri(0.0), special.ndtri(1.0)) == (-math.inf, math.inf)


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
