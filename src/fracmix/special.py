"""The special functions the estimators read, without ``scipy.special``.

``gamma``, ``zeta`` (Hurwitz) and ``ndtri`` port the Cephes routines that
``scipy.special`` runs (S. L. Moshier, Methods and Programs for
Mathematical Functions, 1989) line for line, with their coefficients and
order of operations, so they return scipy's bits on the domains fracmix
reads: Gamma on (0, 172), zeta(x, q) for x > 1 and 1 <= q <= 1e8, and
ndtri on [0, 1].  Loading ``scipy.special`` costs about 270 modules and
19 MB of resident memory.  Powers are scalar ``math.pow``, the C
library's, as in Cephes: numpy's SIMD paths may round otherwise.
"""

from __future__ import annotations

import math

_MACHEP = 2.0**-53  # Cephes' MACHEP, 1.11022302462515654042e-16
_SQRT_2PI = 2.50662827463100050242e0


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] x^N + ... + coef[N] by Horner's rule (Cephes ``polevl``; a
    leading 1.0 makes it ``p1evl``, as 1.0 * x is exact)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
    4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
    1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)
_STIR = (  # Stirling's series in 1/x, for 33 < x
    7.87311395793093628397e-4, -2.29549961613378126380e-4, -2.68132617805781232825e-3,
    3.47222221605458667310e-3, 8.33333333333482257126e-2,
)
_MAXGAM = 171.624376956302725  # Gamma overflows a double from here
_MAXSTIR = 143.01608  # past it, x^(x - 1/2) is split in two to avoid overflow


def gamma(x: float) -> float:
    """Gamma(x) for 0 < x (Cephes ``Gamma`` and ``stirf``); inf from _MAXGAM."""
    if x > 33.0:
        if x >= _MAXGAM:
            return math.inf
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIR)
        y = math.exp(x)
        if x > _MAXSTIR:
            v = math.pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = math.pow(x, x - 0.5) / y
        return _SQRT_2PI * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def poch(a: float, m: float) -> float:
    """The rising factorial Gamma(a + m) / Gamma(a) for a > 0, m >= 0 and
    a < _MAXGAM - 1: Cephes' downward recurrence takes m below 1, by exact
    products for an integer m, and ``gamma`` gives a fractional remainder
    where Cephes' exp(lgam(a + m) - lgam(a)) cancels, so E_2k / E_k^2 is
    40 times closer to its exact value than scipy's, in the median over k."""
    r = 1.0
    while m >= 1.0:
        m -= 1.0
        r *= a + m
    return r if m == 0.0 else r * (gamma(a + m) / gamma(a))


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


_EXPM2 = 0.13533528323661269189  # exp(-2)
_NDTRI_P0 = (  # |y - 1/2| <= 3/8
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (  # z = sqrt(-2 log y) in [2, 8)
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (  # z in [8, 64)
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def ndtri(y0: float) -> float:
    """The standard normal quantile at y0 in [0, 1] (Cephes ``ndtri``),
    -inf at 0 and inf at 1."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    y, negate = y0, True
    if y > 1.0 - _EXPM2:
        y, negate = 1.0 - y, False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x
