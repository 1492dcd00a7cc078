"""The special functions the estimators read, without ``scipy.special``.

``zeta`` (Hurwitz) ports the Cephes routine that ``scipy.special`` runs
(S. L. Moshier, Methods and Programs for Mathematical Functions, 1989)
line for line, so it returns scipy's bits for x > 1 and 1 <= q <= 1e8.
Gamma comes from ``math``, as do erf and erfc for the interval quantile
in ``effects``; the tests check both against 40 digits, not scipy's bits.
Loading ``scipy.special`` costs about 270 modules and 19 MB of resident
memory.  Powers are scalar ``math.pow``, the C library's, as in Cephes:
numpy's SIMD paths may round otherwise.
"""

from __future__ import annotations

import math

_MACHEP = 2.0**-53  # Cephes' MACHEP, 1.11022302462515654042e-16


def poch(a: float, m: float) -> float:
    """The rising factorial Gamma(a + m) / Gamma(a) for a > 0, m >= 0 and
    a + 1 < 171.6, below which ``math.gamma`` is finite: Cephes' downward
    recurrence takes m below 1, by exact products for an integer m, and
    ``math.gamma`` gives a fractional remainder where Cephes'
    exp(lgam(a + m) - lgam(a)) cancels, so E_2k / E_k^2 is 50 times closer
    to its exact value than scipy's, in the median over k."""
    r = 1.0
    while m >= 1.0:
        m -= 1.0
        r *= a + m
    return r if m == 0.0 else r * (math.gamma(a + m) / math.gamma(a))


# (2j)! / B_2j for j = 1..12, the Euler-Maclaurin remainder's terms
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9, 7.47242496e10,
    -2.950130727918164224e12, 1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
)


def zeta(x: float, q: float) -> float:
    """The Hurwitz zeta function sum_{i >= 0} (i + q)^-x for x > 1 and
    1 <= q <= 1e8 (Cephes ``zeta``): the terms up to at least i = 9 and
    i + q > 9, then the Euler-Maclaurin remainder.

    C's fabs(b / s) < MACHEP is NaN, so false, once every term has
    underflowed to s = 0, which continues the loops; so does s != 0 here.
    """
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if s != 0.0 and abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if s != 0.0 and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s
