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
The terms of L(chi_8, 3) are the odd terms of zeta(3), so one shared pass
serves both direct sums; it divides only at odd n, and each even term
2^j m is the odd term at m shifted right by 3j bits.  Nothing is cached
across calls but the per-s Euler-Maclaurin coefficients and the table of
tangent numbers that their Bernoulli numbers are read off (integers only,
Brent and Harvey's recurrence).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt, perm
from numbers import Rational

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


_TANGENT: list[int] = []  # the tangent numbers T_1, T_3, T_5, ... (see _tangent)


def _tangent(m: int) -> int:
    """The tangent number T_{2m-1}, m >= 1: tan x = sum_m T_{2m-1} x^(2m-1) / (2m-1)!.

    The table is built by Brent and Harvey's TangentNumbers recurrence
    (arXiv:1108.0286, Algorithm 1): O(n^2) steps on integers for the first
    n values.  It is kept, and built again at twice the length when an m
    beyond it is asked for.
    """
    if m > len(_TANGENT):
        n = max(m, 2 * len(_TANGENT))
        t = [factorial(k) for k in range(n)]  # T_{2k-1} starts at t[k - 1] = (k - 1)!
        for k in range(1, n):
            for j in range(k, n):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        _TANGENT[:] = t
    return _TANGENT[m - 1]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    For n = 2m, B_n = (-1)^(m-1) n T_{n-1} / (4^m (4^m - 1)), read off the
    tangent numbers (_tangent).
    """
    n = _int_at_least("n", n, 0)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    m = n // 2
    return Fraction((n if m % 2 else -n) * _tangent(m), 4**m * (4**m - 1))


_EM_TERMS = 14  # Euler-Maclaurin correction terms; remainder uses B_30
_GUARD_DIGITS = 4  # fixed-point digits kept beyond the requested ones


def _as_int(name: str, n) -> int:
    """n as an int through operator.index; bool and non-integers are refused."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(n).__name__}")
    return operator.index(n)


def _int_at_least(name: str, n, least: int) -> int:
    """n as an int (see _as_int), at least `least`."""
    n = _as_int(name, n)
    if n < least:
        raise ValueError(f"need {name} >= {least}, got {n}")
    return n


@lru_cache(maxsize=None)
def _em_coefficients(s: int) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """The Euler-Maclaurin data of zeta(s, .) as integers, built once per s.

    (tail_num, tail_den, corrections): the remainder coefficient
    |B_{2J+2}| (s)_{2J+1} / (2J+2)! = tail_num / tail_den, and for j = 1..J
    the coefficient B_2j / (2j)! (s)_{2j-1} of x^-e, e = s + 2j - 1, as
    (numerator, denominator, e).  The rising factorial (s)_m is
    perm(s + m - 1, m) = (s + m - 1)! / (s - 1)!.
    """
    J = _EM_TERMS
    tail = abs(bernoulli(2 * J + 2)) * perm(s + 2 * J, 2 * J + 1) / factorial(2 * J + 2)
    corrections = []
    for j in range(1, J + 1):
        c = bernoulli(2 * j) / factorial(2 * j) * perm(s + 2 * j - 2, 2 * j - 1)
        corrections.append((c.numerator, c.denominator, s + 2 * j - 1))
    return tail.numerator, tail.denominator, tuple(corrections)


def hurwitz_zeta(s: int, a: Fraction, digits: int) -> Ball:
    """zeta(s, a) = sum_{k>=0} (k+a)^-s with error below 10^-digits.

    Integer s >= 2, rational a in (0, 1] and integer digits >= 0.  A float
    or str a raises TypeError: it would be read at a value the caller may
    not have meant (a float at its binary value).

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
    if isinstance(a, bool) or not isinstance(a, Rational):
        raise TypeError(f"a must be a rational number, not {type(a).__name__}")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("need 0 < a <= 1")
    tail_num, tail_den, corrections = _em_coefficients(s)
    # a = p/q and x = N + a = X/q turn every quantity into an integer ratio
    p, q = a.numerator, a.denominator
    E = s + 2 * _EM_TERMS + 1
    ulp = 10 ** (digits + _GUARD_DIGITS)
    # the remainder bound 2 tail x^-E plus the rounding radius 1 / (4 ulp)
    # (it does not depend on N) must stay within 10^-digits: times
    # 4 ulp tail_den X^E, that is bound <= slack X^E
    bound = 8 * tail_num * q**E * ulp
    slack = (4 * 10**_GUARD_DIGITS - 1) * tail_den
    N = 8
    while bound > slack * (N * q + p) ** E:
        N += max(4, N // 2)
    X = N * q + p
    XE = X**E
    err = Fraction(bound + tail_den * XE, 4 * ulp * tail_den * XE)
    terms = N + _EM_TERMS + 2
    unit = 2 * terms * ulp
    top = unit * q**s
    acc = sum(top // m**s for m in range(p, X, q))
    acc += unit * q ** (s - 1) // ((s - 1) * X ** (s - 1))  # x^(1-s) / (s-1)
    acc += top // (2 * X**s)  # 1 / (2 x^s)
    for num, den, e in corrections:
        acc += unit * num * q**e // (den * X**e)  # c / x^e
    return Ball(Fraction(2 * acc + terms, 2 * unit), err)


def zeta3(digits: int) -> Ball:
    return hurwitz_zeta(3, Fraction(1), _int_at_least("digits", digits, 0))


def l_chi8(s: int, digits: int) -> Ball:
    """L(chi_8, s) through Hurwitz zeta at the four odd residues mod 8."""
    digits = _int_at_least("digits", digits, 0)
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


_DIRECT_SCALE = 10**40  # fixed-point unit of the direct sums
_DIRECT_BLOCKS = 2500  # default blocks of 8 terms; zeta3_direct's default is 8 * 2500


def _cube_sums(n_max: int) -> tuple[int, int]:
    """(zeta_acc, chi_acc): the sums of 10^40 // n^3 over 1 <= n <= n_max,
    plain and weighted by chi8(n).

    Only odd m is divided, as q_m = (10^40 // m) // (m m): two divisions by
    one machine word while m m < 2^30, that is m <= 32767.  An even term
    n = 2^j m is then q_m >> 3j, since floor(floor(x) / b) = floor(x / b)
    for an integer b >= 1.  The odd m in the band (n_max >> (k+1),
    n_max >> k] have exactly k even multiples up to n_max, so each band is
    one list per residue mod 8, shifted k times.  chi8 weights q_m by its
    residue; the even terms go into the plain sum only.
    """
    zeta = chi = 0
    hi, k = n_max, 0
    while hi:
        lo = hi >> 1
        for r, sign in _CHI8.items():
            qs = [_DIRECT_SCALE // m // (m * m)
                  for m in range(lo + 1 + (r - lo - 1) % 8, hi + 1, 8)]
            band = sum(qs)
            chi += sign * band
            for _ in range(k):
                qs = [q >> 3 for q in qs]
                band += sum(qs)
            zeta += band
        hi, k = lo, k + 1
    return zeta, chi


def _zeta3_direct_ball(terms: int, acc: int) -> Ball:
    partial = Ball(Fraction(acc, _DIRECT_SCALE), Fraction(terms, _DIRECT_SCALE))
    lo = Fraction(1, 2 * (terms + 1) ** 2)
    hi = Fraction(1, 2 * terms**2)
    return partial + Ball((lo + hi) / 2, (hi - lo) / 2)


def _l_chi8_direct_ball(blocks: int, acc: int) -> Ball:
    # |f(a) - f(a+2)| <= 2 |f'(a)| for f = x^-3, summed over k >= blocks
    tail = Fraction(1, 4 * (8 * blocks - 7) ** 3)
    return Ball(Fraction(acc, _DIRECT_SCALE),
                Fraction(8 * blocks, _DIRECT_SCALE) + tail)


def zeta3_direct(terms: int = 8 * _DIRECT_BLOCKS) -> Ball:
    """Partial sum with the integral bounds on the tail; ~9 digits at default."""
    terms = _int_at_least("terms", terms, 1)
    return _zeta3_direct_ball(terms, _cube_sums(terms)[0])


def l_chi8_direct(blocks: int = _DIRECT_BLOCKS) -> Ball:
    """Sum over blocks of 8; paired differences bound the alternating tail."""
    blocks = _int_at_least("blocks", blocks, 1)
    return _l_chi8_direct_ball(blocks, _cube_sums(8 * blocks)[1])


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
    digits = _int_at_least("digits", digits, 0)
    return _volume_terms(digits, zeta_coeff, l_coeff)[0]


def delta5_volume_check(digits: int = 24) -> dict:
    """Compare the closed form against the reference decimal.

    Returns the certified ball, the agreement verdict at the requested
    precision, and how many significant digits are certified to match.
    """
    digits = _as_int("digits", digits)
    if not 5 <= digits <= 60:
        raise ValueError("digits out of range [5, 60]")
    vol, z3, l3 = _volume_terms(digits, ZETA_COEFF, L_COEFF)
    ref_err = Fraction(1, 2 * 10**26)  # half ulp of the printed reference
    diff = abs(vol.value - REFERENCE_VOLUME)
    total = diff + vol.err + ref_err
    match = diff <= vol.err + ref_err + Fraction(1, 10 ** (digits + 2))
    # total <= 10^-(c + 3) exactly for c <= -_exp10(total) - 3; the value is
    # ~7.6e-3, so m decimal places carry m-2 significant digits
    certified = min(26, max(0, -_exp10(total) - 2))
    # the default direct routes, from one shared pass
    zeta_acc, chi_acc = _cube_sums(8 * _DIRECT_BLOCKS)
    l_direct = _l_chi8_direct_ball(_DIRECT_BLOCKS, chi_acc)
    direct = (_zeta3_direct_ball(8 * _DIRECT_BLOCKS, zeta_acc).scale(ZETA_COEFF)
              + (sqrt_ball(2, 12) * l_direct).scale(L_COEFF))
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
    n, d = q.numerator, q.denominator

    def within(e: int) -> bool:  # q <= 10^e
        return n <= d * 10**e if e >= 0 else n * 10**-e <= d

    # k = n.bit_length() - d.bit_length() gives 2^(k-1) < q < 2^(k+1); as
    # 30103/100000 - log10(2) < 4.4e-9, e below has 10^(e-1) < q while
    # |k| < 1.6e8, and q <= 10^(e+2): at most two steps up, none down
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while not within(e):
        e += 1
    return e
