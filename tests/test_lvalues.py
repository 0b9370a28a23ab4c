"""Certified L-values: ball soundness against mpmath and exact identities.

mpmath is the independent oracle here (test-only dependency).  Frozen
30-digit strings are asserted too, so a broken mpmath install would not
silently weaken the suite.  The fixed-point Hurwitz sum is also compared
with the same sum in exact Fractions (`oracles.hurwitz_zeta_fraction`), the
Bernoulli numbers and Euler-Maclaurin data with the recursive Fraction sum
(`oracles.bernoulli_recurrence`), and
the volume check is pinned at every precision (`data/volume_checks.json`).
The shared pass of the direct routes is compared with the term-by-term
loops (`oracles.zeta3_direct_loop`, `oracles.l_chi8_direct_loop`).
"""

import hashlib
import json
import os
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from coxarith.lvalues import (
    Ball,
    REFERENCE_VOLUME,
    _em_coefficients,
    _exp10,
    bernoulli,
    chi8,
    decimal_str,
    delta5_volume_check,
    hurwitz_zeta,
    l_chi8,
    l_chi8_direct,
    sqrt_ball,
    volume_ball,
    zeta3,
    zeta3_direct,
)
from oracles import (
    bernoulli_recurrence,
    em_coefficients_reference,
    hurwitz_radius_fraction,
    hurwitz_remainder_coeff,
    hurwitz_zeta_fraction,
    l_chi8_direct_loop,
    zeta3_direct_loop,
)

# 30-digit references, computed once with mpmath at dps=50 and frozen
ZETA3_30 = "1.202056903159594285399738161511"
L3_30 = "0.958380454563094562051669402861"


def _frac(s: str, places: int) -> Fraction:
    whole, frac = s.split(".")
    frac = frac[:places]
    return Fraction(int(whole) * 10**len(frac) + int(frac), 10**len(frac))


def test_frozen_references_match_mpmath():
    mp.mp.dps = 50
    assert mp.nstr(mp.zeta(3), 31, strip_zeros=False).startswith(ZETA3_30[:30])
    # L(chi8, 3) by its Hurwitz decomposition in mpmath, independently
    val = (mp.zeta(3, mp.mpf(1) / 8) - mp.zeta(3, mp.mpf(3) / 8)
           - mp.zeta(3, mp.mpf(5) / 8) + mp.zeta(3, mp.mpf(7) / 8)) / 512
    assert mp.nstr(val, 31, strip_zeros=False).startswith(L3_30[:30])


def test_bernoulli_table():
    known = {
        0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
        4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
        10: Fraction(5, 66), 12: Fraction(-691, 2730), 3: Fraction(0),
        30: Fraction(8615841276005, 14322),
    }
    for n, want in known.items():
        assert bernoulli(n) == want


def test_bernoulli_from_tangent_numbers_matches_the_recurrence():
    # the tangent table is grown on demand, so read it past its first size too
    assert [bernoulli(n) for n in range(101)] == [bernoulli_recurrence(n) for n in range(101)]
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_bernoulli_takes_n_through_the_integer_gate():
    # like every lvalues entry: True is not read as 1 (B_1 = -1/2), nor 3.0
    # as 3 (B_3 = 0), nor is 2.0 passed on to the tangent table
    for bad in (True, False, 3.0, 2.0, 2.5, "2"):
        with pytest.raises(TypeError, match="^n must be an integer"):
            bernoulli(bad)
    with pytest.raises(ValueError, match="^need n >= 0, got -2$"):
        bernoulli(-2)
    assert bernoulli(np.int64(4)) == bernoulli(4) == Fraction(-1, 30)


def test_em_coefficients_match_the_recurrence():
    for s in range(2, 9):
        assert _em_coefficients(s) == em_coefficients_reference(s)


def test_ball_arithmetic_soundness():
    a = Ball(Fraction(1, 3), Fraction(1, 100))
    b = Ball(Fraction(2, 7), Fraction(1, 200))
    s = a + b
    assert s.contains(Fraction(1, 3) + Fraction(2, 7))
    p = a * b
    # worst case |a||db| + |b||da| + da db
    assert p.err == Fraction(1, 3) * Fraction(1, 200) + Fraction(2, 7) * Fraction(1, 100) + Fraction(1, 20000)
    assert a.agrees_with(Ball(Fraction(34, 100), Fraction(1, 100)))
    assert not a.agrees_with(Ball(Fraction(1, 2), Fraction(1, 100)))


def test_ball_refuses_a_float_or_bool_value_or_radius():
    # Ball(0.1) stored the float's binary value 3602879701896397/2^55
    for value, err in ((0.1, 0), (True, 0), (1, 0.5), (1, False), ("1/3", 0)):
        with pytest.raises(TypeError):
            Ball(value, err)
    ball = Ball(Fraction(1, 3), 1)
    for call in (lambda: ball.scale(0.5), lambda: ball.scale(True),
                 lambda: ball.contains(0.25)):
        with pytest.raises(TypeError):
            call()
    assert (Ball(1).value, Ball(1).err) == (1, 0)
    assert ball.scale(np.int64(2)).value == Fraction(2, 3)
    assert ball.contains(Fraction(1, 4))


def test_hurwitz_zeta_contains_oracle():
    mp.mp.dps = 45
    for s, a in ((2, Fraction(1)), (3, Fraction(1, 8)), (3, Fraction(7, 8)),
                 (4, Fraction(1, 3)), (3, Fraction(1))):
        ball = hurwitz_zeta(s, a, 35)
        want = mp.zeta(s, mp.mpf(a.numerator) / a.denominator)
        diff = abs(mp.mpf(ball.value.numerator) / ball.value.denominator - want)
        assert diff <= mp.mpf(ball.err.numerator) / ball.err.denominator + mp.mpf(10) ** -40


def test_hurwitz_zeta_exact_identities():
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    z = zeta3(35)
    half = hurwitz_zeta(3, Fraction(1, 2), 35)
    assert half.agrees_with(z.scale(7))
    # zeta(3, 1/4) + zeta(3, 3/4) = 56 zeta(3)
    quarter = hurwitz_zeta(3, Fraction(1, 4), 35) + hurwitz_zeta(3, Fraction(3, 4), 35)
    assert quarter.agrees_with(z.scale(56))


def test_hurwitz_zeta_input_validation():
    with pytest.raises(ValueError):
        hurwitz_zeta(1, Fraction(1), 10)
    with pytest.raises(ValueError):
        hurwitz_zeta(3, Fraction(9, 8), 10)
    with pytest.raises(ValueError):
        hurwitz_zeta(3, Fraction(0), 10)
    with pytest.raises(ValueError, match="s >= 2"):
        hurwitz_zeta(-2, Fraction(1), 10)
    with pytest.raises(ValueError, match="digits >= 0"):
        hurwitz_zeta(3, Fraction(1), -3)
    for s, digits in ((2.5, 10), (3, 10.0), (True, 10), (3, True), ("3", 10)):
        with pytest.raises(TypeError):
            hurwitz_zeta(s, Fraction(1), digits)
    # a float would be certified at its binary value, a str parsed: both refused
    for a in (True, False, 0.1, 1.0, "1/10", "1"):
        with pytest.raises(TypeError, match="^a "):
            hurwitz_zeta(3, a, 5)
    assert hurwitz_zeta(3, 1, 5).value == hurwitz_zeta(3, Fraction(1), 5).value
    # anything with __index__ is taken as the int it stands for
    same = hurwitz_zeta(np.int64(3), Fraction(3, 8), np.int64(20))
    want = hurwitz_zeta(3, Fraction(3, 8), 20)
    assert (same.value, same.err) == (want.value, want.err)


def test_fixed_point_ball_encloses_fraction_oracle():
    # the integer fixed-point sum against the same N-term Euler-Maclaurin sum
    # in exact Fractions: (a) its ball holds the oracle's ball, which fails if
    # the counted rounding radius is dropped or undercounted; (b) it meets the
    # requested precision; (c) it holds mpmath's value; (d) it nests as the
    # precision grows
    rng = random.Random(20261018)
    alphas = [Fraction(1), Fraction(1, 8), Fraction(3, 8), Fraction(5, 8),
              Fraction(7, 8), Fraction(1, 3), Fraction(96, 97)]
    for _ in range(9):
        q = rng.randint(2, 97)
        alphas.append(Fraction(rng.randint(1, q), q))
    with mp.workdps(100):
        for s in range(2, 7):
            for a in alphas:
                want = mp.zeta(s, mp.mpf(a.numerator) / a.denominator)
                prev = None
                for digits in sorted(rng.sample(range(5, 71), 3)):
                    ball = hurwitz_zeta(s, a, digits)
                    exact = hurwitz_zeta_fraction(s, a, digits)
                    case = (s, a, digits)
                    assert abs(ball.value - exact.value) + exact.err <= ball.err, case
                    assert ball.err <= Fraction(1, 10**digits), case
                    got = mp.mpf(ball.value.numerator) / ball.value.denominator
                    err = mp.mpf(ball.err.numerator) / ball.err.denominator
                    assert abs(got - want) <= err + mp.mpf(10) ** -95, case
                    if prev is not None:
                        assert abs(prev.value - ball.value) + ball.err <= prev.err, case
                    prev = ball


def test_integer_stop_rule_matches_fraction_rule():
    # the radius is a strictly decreasing function of N, so equal radii
    # mean the integer comparison chose the Fraction rule's N
    rng = random.Random(20261019)
    for _ in range(60):
        s, q = rng.randint(2, 7), rng.randint(1, 200)
        a, digits = Fraction(rng.randint(1, q), q), rng.randint(0, 80)
        got = hurwitz_zeta(s, a, digits).err
        assert got == hurwitz_radius_fraction(s, a, digits), (s, a, digits)
    # a boundary case: with a = p / 10^7 the remainder bound at N = 8 lies
    # between 10^-19 less the rounding radius and 10^-19, so the rounding
    # radius alone moves N on to 12
    s, digits, q = 2, 19, 10**7
    eps = Fraction(1, 10**digits)
    rounding = Fraction(1, 4 * 10 ** (digits + 4))  # 4 guard digits
    coeff, E = hurwitz_remainder_coeff(s), s + 29

    def bound(n, p):
        return 2 * coeff / (n + Fraction(p, q)) ** E

    lo, hi = 1, q
    assert bound(8, lo) > eps - rounding >= bound(8, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if bound(8, mid) > eps - rounding else (lo, mid)
    assert eps - rounding < bound(8, lo) <= eps
    ball = hurwitz_zeta(s, Fraction(lo, q), digits)
    assert ball.err == bound(12, lo) + rounding
    assert ball.err == hurwitz_radius_fraction(s, Fraction(lo, q), digits)
    assert ball.err <= eps


def test_zeta3_and_l3_against_frozen():
    for ball, ref in ((zeta3(34), ZETA3_30), (l_chi8(3, 34), L3_30)):
        want = _frac(ref, 30)
        assert abs(ball.value - want) <= ball.err + Fraction(1, 10**30)


def test_refinement_is_monotone_and_consistent():
    prev = None
    for digits in (10, 20, 30, 40):
        ball = zeta3(digits)
        assert ball.err <= Fraction(1, 10**digits)
        if prev is not None:
            assert ball.agrees_with(prev)
            assert ball.err <= prev.err
        prev = ball
    assert zeta3(40).err < zeta3(10).err


def test_direct_routes_agree():
    assert zeta3_direct().agrees_with(zeta3(20))
    assert l_chi8_direct().agrees_with(l_chi8(3, 20))
    assert zeta3_direct().err < Fraction(1, 10**8)


def test_direct_routes_match_term_loops():
    # the shared pass against one division per term: the same integers, so
    # the same exact value and radius.  The pass divides only odd m and
    # shifts each band's quotients, so every small n_max and every one on a
    # band edge (2^k - 1, 2^k, 2^k + 1) is checked
    edges = {2**k + d for k in range(15) for d in (-1, 0, 1)} - {0}
    for terms in sorted(set(range(1, 601)) | edges | {2000, 19999, 20000, 20001}):
        got, want = zeta3_direct(terms), zeta3_direct_loop(terms)
        assert (got.value, got.err) == (want.value, want.err), terms
    edges = {2**k + d for k in range(12) for d in (-1, 1)} - {0}
    for blocks in sorted(set(range(1, 81)) | edges | {250, 2500}):
        got, want = l_chi8_direct(blocks), l_chi8_direct_loop(blocks)
        assert (got.value, got.err) == (want.value, want.err), blocks
    default = zeta3_direct(), l_chi8_direct()
    assert [(b.value, b.err) for b in default] == [
        (b.value, b.err) for b in (zeta3_direct(20000), l_chi8_direct(2500))]


def test_direct_route_and_volume_argument_errors():
    for fn, name in ((zeta3_direct, "terms"), (l_chi8_direct, "blocks")):
        for bad in (0, -3):
            with pytest.raises(ValueError, match=f"need {name} >= 1"):
                fn(bad)
        for bad in (True, 2.5, 8.0, "8"):
            with pytest.raises(TypeError, match=name):
                fn(bad)
    for bad in (True, False, 24.5, 24.0, "24"):
        with pytest.raises(TypeError, match="digits"):
            delta5_volume_check(bad)
    for bad in (4, 61, 0, -3):
        with pytest.raises(ValueError, match=r"digits out of range \[5, 60\]"):
            delta5_volume_check(bad)
    assert delta5_volume_check(np.int64(5)) == delta5_volume_check(5)
    # the certified entry points name the caller's digits, not the working
    # precision they pass on
    for fn in (volume_ball, zeta3, lambda d: l_chi8(3, d)):
        for bad in (-1, -3, -10):
            with pytest.raises(ValueError, match=f"need digits >= 0, got {bad}$"):
                fn(bad)
        for bad in (True, False, 2.5, 8.0, "8"):
            with pytest.raises(TypeError, match="digits"):
                fn(bad)
        same, want = fn(np.int64(7)), fn(7)
        assert (same.value, same.err) == (want.value, want.err)


# sha256 over str(value) and str(err), one line each, of hurwitz_zeta(s, a,
# digits) for the grid below, recorded before the per-s integer set-up
HURWITZ_GRID_SHA256 = "ba7dd17bd1848594c11edd8cda1fd865b4f5c470c1ba70ac1eb6e411c5f833c8"


def test_hurwitz_zeta_matches_recorded_digest():
    h = hashlib.sha256()
    for s in (2, 3, 4, 5):
        for a in (Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(1, 8),
                  Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)):
            for digits in (0, 5, 24, 60):
                ball = hurwitz_zeta(s, a, digits)
                h.update(f"{ball.value}\n{ball.err}\n".encode())
    assert h.hexdigest() == HURWITZ_GRID_SHA256


def test_sqrt_ball():
    b = sqrt_ball(2, 30)
    lo, hi = b.value - b.err, b.value + b.err
    assert lo * lo < 2 < hi * hi
    assert b.err <= Fraction(1, 10**30)
    with pytest.raises(ValueError):
        sqrt_ball(-1, 10)
    with pytest.raises(ValueError, match="digits >= 0"):
        sqrt_ball(2, -5)
    for digits in (2.5, True):
        with pytest.raises(TypeError):
            sqrt_ball(2, digits)
    for n in (True, False, 2.0, 2.5):
        with pytest.raises(TypeError):
            sqrt_ball(n, 10)


def test_volume_identity_certified():
    res = delta5_volume_check(24)
    assert res["match"]
    assert res["certified_significant_digits"] >= 20
    assert res["direct_route_consistent"]
    assert res["value"].startswith("0.0075734744220078676349772")


def test_volume_negative_control():
    wrong = volume_ball(24, zeta_coeff=Fraction(74, 23040))
    assert abs(wrong.value - REFERENCE_VOLUME) > 10**6 * wrong.err
    wrong2 = volume_ball(24, l_coeff=Fraction(1, 361))
    assert abs(wrong2.value - REFERENCE_VOLUME) > 10**6 * wrong2.err
    right = volume_ball(24)
    assert abs(right.value - REFERENCE_VOLUME) <= right.err + Fraction(1, 2 * 10**26)


def test_volume_digit_range():
    assert delta5_volume_check(5)["match"]
    assert delta5_volume_check(60)["certified_significant_digits"] == 24
    for bad in (4, 61, 0, -3):
        with pytest.raises(ValueError):
            delta5_volume_check(bad)


def test_volume_checks_match_recorded_json():
    # the whole delta5_volume_check(d) dict at every allowed precision,
    # recorded while the Hurwitz sums were exact Fractions; the fixed-point
    # sums must reproduce every digit, error exponent and certified count
    with open(os.path.join(os.path.dirname(__file__), "data", "volume_checks.json")) as fh:
        recorded = json.load(fh)
    assert list(recorded) == [str(d) for d in range(5, 61)]
    for digits in range(5, 61):
        got = json.dumps(delta5_volume_check(digits), indent=2)
        assert got == json.dumps(recorded[str(digits)], indent=2), digits


def test_volume_check_prints_correctly_rounded_constants():
    # zeta(3) and L(chi_8, 3) at every allowed precision, against mpmath
    # rounded half away from zero (the values are positive)
    with mp.workdps(90):
        want = {"zeta3": mp.zeta(3),
                "l_chi8_3": mp.dirichlet(3, [0, 1, 0, -1, 0, -1, 0, 1])}
        for digits in range(5, 61):
            res = delta5_volume_check(digits)
            for key, x in want.items():
                n = int(mp.floor(x * 10**digits + mp.mpf(1) / 2))
                whole, frac = divmod(n, 10**digits)
                assert res[key] == f"{whole}.{frac:0{digits}d}", (digits, key)


def test_zeta2_matches_pi_squared_over_six():
    mp.mp.dps = 45
    ball = hurwitz_zeta(2, Fraction(1), 30)
    want = mp.pi ** 2 / 6
    got = mp.mpf(ball.value.numerator) / ball.value.denominator
    err = mp.mpf(ball.err.numerator) / ball.err.denominator
    assert abs(got - want) <= err + mp.mpf(10) ** -35


def test_chi8_multiplicative_and_zero_on_evens():
    assert [chi8(n) for n in (1, 3, 5, 7)] == [1, -1, -1, 1]
    assert all(chi8(n) == 0 for n in range(0, 100, 2))
    for m in range(1, 100, 2):
        for n in range(1, 100, 2):
            assert chi8(m) * chi8(n) == chi8(m * n)


def test_chi8_takes_integers_only():
    # chi8(3.0) read -1, chi8(True) read 1 and chi8(1.5) raised KeyError
    for n in (3.0, 1.5, True, False, "3"):
        with pytest.raises(TypeError, match="^n must be an integer"):
            chi8(n)
    assert [chi8(np.int64(n)) for n in (-1, 3, 5, 8)] == [1, -1, -1, 0]


def test_l3_matches_backsolved_reference():
    # the printed volume pins the L-value once zeta(3) is known:
    # sqrt(2) L(chi8, 3) = (V - 73/23040 zeta(3)) * 360
    v = Ball(REFERENCE_VOLUME, Fraction(1, 2 * 10**26))
    target = (v - zeta3(30).scale(Fraction(73, 23040))).scale(360)
    assert (l_chi8(3, 30) * sqrt_ball(2, 30)).agrees_with(target)


def test_l3_bracketed_by_grouped_partial_sums():
    # pair consecutive terms of the character series: b_j = (8k+r)^-3 -
    # (8k+r+2)^-3 with r = 1 (even j) or 5 (odd j).  b_j decreases to 0, so
    # partial sums of sum (-1)^j b_j bracket the limit on alternate sides.
    ball = l_chi8(3, 30)
    partials, s = [], Fraction(0)
    for j in range(10):
        k, odd = divmod(j, 2)
        a = 8 * k + (5 if odd else 1)
        b = Fraction(1, a**3) - Fraction(1, (a + 2) ** 3)
        s += -b if odd else b
        partials.append(s)
    assert all(x > y for x, y in zip(partials[0::2], partials[2::2]))
    assert all(x < y for x, y in zip(partials[1::2], partials[3::2]))
    for hi, lo in zip(partials[0::2], partials[1::2]):
        assert lo + ball.err < ball.value < hi - ball.err


def test_random_expression_trees_nest_across_precision():
    rng = random.Random(20260814)

    def leaf():
        kind = rng.randrange(4)
        if kind == 0:
            return ("zeta3",)
        if kind == 1:
            return ("l3",)
        if kind == 2:
            return ("sqrt", rng.choice((2, 3, 5, 7, 13)))
        return ("const", Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaf()
        op = rng.choice(("add", "sub", "mul", "scale"))
        if op == "scale":
            return ("scale", tree(depth - 1),
                    Fraction(rng.randint(-8, 8), rng.randint(1, 8)))
        return (op, tree(depth - 1), tree(depth - 1))

    def ev(t, digits):
        tag = t[0]
        if tag == "zeta3":
            return zeta3(digits)
        if tag == "l3":
            return l_chi8(3, digits)
        if tag == "sqrt":
            return sqrt_ball(t[1], digits)
        if tag == "const":
            return Ball(t[1])
        if tag == "scale":
            return ev(t[1], digits).scale(t[2])
        a, b = ev(t[1], digits), ev(t[2], digits)
        return a + b if tag == "add" else a - b if tag == "sub" else a * b

    for _ in range(100):
        t = tree(3)
        coarse, fine = ev(t, 12), ev(t, 24)
        assert coarse.contains(fine.value)
        assert coarse.agrees_with(fine)


def test_exp10_is_the_least_power_of_ten_above():
    rng = random.Random(20261019)
    cases = [Fraction(10) ** e for e in range(-70, 71, 7)]
    cases += [Fraction(10) ** e + d for e in range(-40, 41, 8)
              for d in (Fraction(1, 10**90), -Fraction(1, 10**90))]
    cases += [Fraction(rng.randint(1, 10**rng.randint(1, 60)),
                       rng.randint(1, 10**rng.randint(1, 60))) for _ in range(200)]
    for q in cases:
        e = _exp10(q)
        assert q <= Fraction(10) ** e and Fraction(10) ** (e - 1) < q, q
    assert _exp10(Fraction(0)) == _exp10(Fraction(-1)) == -10**9


def test_exp10_against_a_scan_of_powers_of_ten():
    # the oracle scans e upward from below 1/d, so it has no estimate to
    # trust: powers of 2 and 10, each moved by one in a far decimal place,
    # and random fractions of 1 to 400 bits
    def least(q):
        e = -q.denominator.bit_length()
        while q > Fraction(10) ** e:
            e += 1
        return e

    rng = random.Random(20261021)
    cases = [Fraction(2) ** j for j in range(-400, 401, 9)]
    cases += [Fraction(10) ** e + s * Fraction(1, 10**90) for e in range(-60, 61, 6)
              for s in (1, -1)]
    cases += [Fraction(rng.getrandbits(rng.randint(1, 400)) | 1,
                       rng.getrandbits(rng.randint(1, 400)) | 1) for _ in range(300)]
    for q in cases:
        assert _exp10(q) == least(q), q


def test_decimal_str_rounding():
    assert decimal_str(Fraction(1, 3), 5) == "0.33333"
    assert decimal_str(Fraction(2, 3), 4) == "0.6667"
    assert decimal_str(Fraction(-5, 4), 1) == "-1.3"  # half away from zero
    assert decimal_str(Fraction(7), 0) == "7"
    assert decimal_str(Fraction(1, 2), 0) == "1"


def test_decimal_str_takes_an_exact_value_and_integer_places():
    # places 2.0 raised AttributeError and True ValueError; a float q was
    # read at its binary value
    for places in (2.0, True, "2"):
        with pytest.raises(TypeError, match="^places must be an integer"):
            decimal_str(Fraction(1, 3), places)
    with pytest.raises(ValueError, match="places >= 0"):
        decimal_str(Fraction(1, 3), -1)
    for q in (0.5, True):
        with pytest.raises(TypeError, match="^q must be a rational"):
            decimal_str(q, 2)
    assert decimal_str(1, np.int64(2)) == "1.00"
