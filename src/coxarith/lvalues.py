"""Certified evaluation of the zeta and L-values in the volume identity.

A value is carried as a Ball, an exact Fraction center with an exact
Fraction error radius, so every digit claimed is backed by an inequality
rather than floating point.  The long sums are integer fixed point (floor
divisions at a fixed unit), and the rounding they make is counted into the
exact error radius alongside the truncation bound.

Two independent routes are provided for each constant.  The certified one
is Euler-Maclaurin applied to the Hurwitz zeta function (the remainder has
the sign of the first omitted term because the derivatives of x^-s are of
one sign, so the first omitted term bounds it).  The plain one is direct
summation of the Dirichlet series with integral tail bounds; it reaches a
dozen digits and exists to catch bugs in the fast route, not to certify.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

__all__ = [
    "Ball",
    "bernoulli",
    "chi8",
    "hurwitz_zeta",
    "zeta3",
    "l_chi8",
    "sqrt_ball",
    "zeta3_direct",
    "l_chi8_direct",
    "volume_ball",
    "delta5_volume_check",
    "REFERENCE_VOLUME",
    "decimal_str",
]

# the Dirichlet character mod 8 attached to Q(sqrt(2)): +1 at 1,7 and -1 at 3,5
_CHI8 = {1: 1, 3: -1, 5: -1, 7: 1}


def chi8(n: int) -> int:
    """The primitive quadratic character mod 8 (zero on even arguments)."""
    return 0 if n % 2 == 0 else _CHI8[n % 8]

REFERENCE_VOLUME = Fraction(757347442200786763497722, 10**26)


class Ball:
    """Exact interval [value - err, value + err]."""

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        self.value = Fraction(value)
        self.err = Fraction(err)
        if self.err < 0:
            raise ValueError("ball radius must be nonnegative")

    def __add__(self, other: "Ball") -> "Ball":
        return Ball(self.value + other.value, self.err + other.err)

    def __sub__(self, other: "Ball") -> "Ball":
        return Ball(self.value - other.value, self.err + other.err)

    def __mul__(self, other: "Ball") -> "Ball":
        err = (abs(self.value) * other.err + abs(other.value) * self.err
               + self.err * other.err)
        return Ball(self.value * other.value, err)

    def scale(self, q) -> "Ball":
        q = Fraction(q)
        return Ball(self.value * q, self.err * abs(q))

    def contains(self, q) -> bool:
        return abs(self.value - Fraction(q)) <= self.err

    def agrees_with(self, other: "Ball") -> bool:
        return abs(self.value - other.value) <= self.err + other.err

    def __repr__(self) -> str:
        return f"Ball({self.value} +- {self.err})"


def decimal_str(q: Fraction, places: int) -> str:
    """q rounded to the given number of decimal places, half away from zero."""
    sign = "-" if q < 0 else ""
    scaled = abs(q) * 10**places
    n = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(n, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def _pochhammer(s: int, m: int) -> int:
    out = 1
    for t in range(m):
        out *= s + t
    return out


_EM_TERMS = 14  # Euler-Maclaurin correction terms; remainder uses B_30
_GUARD_DIGITS = 4  # fixed-point digits kept beyond the requested ones


def _int_at_least(name: str, n, least: int) -> int:
    """n as an int through operator.index (bool refused), at least `least`."""
    if isinstance(n, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    n = operator.index(n)
    if n < least:
        raise ValueError(f"need {name} >= {least}, got {n}")
    return n


def hurwitz_zeta(s: int, a: Fraction, digits: int) -> Ball:
    """zeta(s, a) = sum_{k>=0} (k+a)^-s with error below 10^-digits.

    Integer s >= 2, rational a in (0, 1] and integer digits >= 0.

    N terms of the series and J Euler-Maclaurin corrections are summed in
    integer fixed point, unit = 2 terms 10^(digits + _GUARD_DIGITS) with
    terms = N + J + 2.  Each summand, negative corrections included, is one
    floor division and falls short of its exact value by less than one ulp,
    so the exact truncated sum lies in [acc, acc + terms] / unit.  The ball
    is centred in that interval, and its exact Fraction radius is the
    Euler-Maclaurin remainder bound plus the rounding radius terms / (2 unit),
    for which the choice of N leaves room.
    """
    s = _int_at_least("s", s, 2)
    digits = _int_at_least("digits", digits, 0)
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("need 0 < a <= 1")
    eps = Fraction(1, 10**digits)
    J = _EM_TERMS
    # the rounding radius terms / (2 unit) does not depend on N
    rounding = Fraction(1, 4 * 10 ** (digits + _GUARD_DIGITS))
    tail_coeff = abs(bernoulli(2 * J + 2)) * Fraction(
        _pochhammer(s, 2 * J + 1), 1) / _factorial(2 * J + 2)
    N = 8
    while (err := 2 * tail_coeff / (N + a) ** (s + 2 * J + 1)) > eps - rounding:
        N += max(4, N // 2)
    # a = p/q and x = N + a = X/q turn every summand into an integer ratio
    p, q = a.numerator, a.denominator
    X = N * q + p
    terms = N + J + 2
    unit = 2 * terms * 10 ** (digits + _GUARD_DIGITS)
    top = unit * q**s
    acc = sum(top // (k * q + p) ** s for k in range(N))
    acc += unit * q ** (s - 1) // ((s - 1) * X ** (s - 1))  # x^(1-s) / (s-1)
    acc += top // (2 * X**s)  # 1 / (2 x^s)
    for j in range(1, J + 1):
        c = bernoulli(2 * j) / _factorial(2 * j) * _pochhammer(s, 2 * j - 1)
        e = s + 2 * j - 1
        acc += unit * c.numerator * q**e // (c.denominator * X**e)  # c / x^e
    return Ball(Fraction(2 * acc + terms, 2 * unit), err + rounding)


@lru_cache(maxsize=None)
def _factorial(n: int) -> int:
    out = 1
    for t in range(2, n + 1):
        out *= t
    return out


def zeta3(digits: int) -> Ball:
    return hurwitz_zeta(3, Fraction(1), digits)


def l_chi8(s: int, digits: int) -> Ball:
    """L(chi_8, s) through Hurwitz zeta at the four odd residues mod 8."""
    acc = Ball(0)
    for rem, sign in _CHI8.items():
        acc = acc + hurwitz_zeta(s, Fraction(rem, 8), digits + 2).scale(sign)
    return acc.scale(Fraction(1, 8**s))


def sqrt_ball(n: int, digits: int) -> Ball:
    """sqrt(n) for an integer n >= 0 with error below 10^-digits."""
    n = _int_at_least("n", n, 0)
    digits = _int_at_least("digits", digits, 0)
    m = digits + 2
    r = isqrt(n * 10 ** (2 * m))
    # true root lies in [r, r+1) / 10^m
    return Ball(Fraction(2 * r + 1, 2 * 10**m), Fraction(1, 2 * 10**m))


# -- slow independent routes ----------------------------------------------


def zeta3_direct(terms: int = 20000) -> Ball:
    """Partial sum with the integral bounds on the tail; ~9 digits at default."""
    scale = 10**40
    acc = sum(scale // n**3 for n in range(1, terms + 1))
    partial = Ball(Fraction(acc, scale), Fraction(terms, scale))
    lo = Fraction(1, 2 * (terms + 1) ** 2)
    hi = Fraction(1, 2 * terms**2)
    return partial + Ball((lo + hi) / 2, (hi - lo) / 2)


def l_chi8_direct(blocks: int = 2500) -> Ball:
    """Sum over blocks of 8; paired differences bound the alternating tail."""
    scale = 10**40
    acc = 0
    for k in range(blocks):
        for rem, sign in _CHI8.items():
            n = 8 * k + rem
            acc += sign * (scale // n**3)
    # |f(a) - f(a+2)| <= 2 |f'(a)| for f = x^-3, summed over k >= blocks
    tail = Fraction(1, 4 * (8 * blocks - 7) ** 3)
    return Ball(Fraction(acc, scale), Fraction(8 * blocks, scale) + tail)


# -- the volume identity ---------------------------------------------------

# 23040 = 2^9 * 3^2 * 5 and 360 = 2^3 * 3^2 * 5
ZETA_COEFF = Fraction(73, 23040)
L_COEFF = Fraction(1, 360)


def _volume_terms(digits: int, zeta_coeff: Fraction,
                  l_coeff: Fraction) -> tuple[Ball, Ball, Ball]:
    """(volume, zeta(3), L(chi_8, 3)) as balls, each evaluated at digits + 4."""
    work = digits + 4
    z, l3 = zeta3(work), l_chi8(3, work)
    return z.scale(zeta_coeff) + (sqrt_ball(2, work) * l3).scale(l_coeff), z, l3


def volume_ball(digits: int, zeta_coeff: Fraction = ZETA_COEFF,
                l_coeff: Fraction = L_COEFF) -> Ball:
    """zeta_coeff * zeta(3) + l_coeff * sqrt(2) * L(chi_8, 3), certified."""
    return _volume_terms(digits, zeta_coeff, l_coeff)[0]


def delta5_volume_check(digits: int = 24) -> dict:
    """Compare the closed form against the reference decimal.

    Returns the certified ball, the agreement verdict at the requested
    precision, and how many significant digits are certified to match.
    """
    if not 5 <= digits <= 60:
        raise ValueError("digits out of range [5, 60]")
    vol, z3, l3 = _volume_terms(digits, ZETA_COEFF, L_COEFF)
    ref_err = Fraction(1, 2 * 10**26)  # half ulp of the printed reference
    diff = abs(vol.value - REFERENCE_VOLUME)
    total = diff + vol.err + ref_err
    match = diff <= vol.err + ref_err + Fraction(1, 10 ** (digits + 2))
    certified = 0
    while (certified < 26
           and total <= Fraction(1, 10 ** (certified + 3))):
        certified += 1
    # the value is ~7.6e-3, so m decimal places carry m-2 significant digits
    direct = (zeta3_direct().scale(ZETA_COEFF)
              + (sqrt_ball(2, 12) * l_chi8_direct()).scale(L_COEFF))
    return {
        "digits": digits,
        "value": decimal_str(vol.value, digits + 2),
        "reference": decimal_str(REFERENCE_VOLUME, 26),
        "error_exponent": _exp10(vol.err),
        "match": bool(match),
        "certified_significant_digits": certified,
        "zeta3": decimal_str(z3.value, digits),
        "l_chi8_3": decimal_str(l3.value, digits),
        "zeta_coeff": str(ZETA_COEFF),
        "l_coeff": str(L_COEFF),
        "direct_route_consistent": bool(direct.agrees_with(vol)),
    }


def _exp10(q: Fraction) -> int:
    """Smallest e with q <= 10^e (q positive)."""
    if q <= 0:
        return -10**9
    e = 0
    while Fraction(10) ** e < q:
        e += 1
    while Fraction(10) ** (e - 1) >= q:
        e -= 1
    return e
