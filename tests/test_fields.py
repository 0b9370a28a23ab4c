import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import oracles
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from coxarith import fields
from coxarith.fields import (
    Embedding,
    FieldElement,
    element_literal,
    factorize,
    intersect,
    integral_rescale,
    is_algebraic_integer,
    is_square,
    make_field,
    parse_element,
    rational_square_classes,
    sign_at,
    squarefree_part,
    subfields_index2,
)

Q = make_field([])
TOWERS = [Q, make_field([2]), make_field([2, 3]), make_field([2, 3, 5])]


def rand_element(tower, rng, scale=3, dens=(1, 2, 3)):
    return tower.element(
        [Fraction(rng.randint(-scale, scale), rng.choice(dens)) for _ in range(tower.degree)]
    )


def rand_nonzero(tower, rng, **kw):
    while True:
        x = rand_element(tower, rng, **kw)
        if x:
            return x


# -- canonicalization ------------------------------------------------------


def test_factorize_and_squarefree():
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert squarefree_part(360) == 10
    assert squarefree_part(-12) == -3
    assert squarefree_part(1) == 1
    with pytest.raises(ValueError):
        squarefree_part(0)


@pytest.mark.parametrize("n", [
    pytest.param(10007**2, id="10007^2"),
    pytest.param(99999989**2, id="99999989^2"),
    pytest.param(78721**70, id="78721^70"),
    pytest.param(2**5 * 3 * 78721**70, id="96*78721^70"),
    pytest.param(7 * 9973**2 * 10007**3, id="7*9973^2*10007^3"),
    pytest.param(-(99991**11), id="-99991^11"),
    pytest.param(100000007**2, id="100000007^2"),
    pytest.param(10007 * 10009, id="10007*10009"),
    pytest.param(10007**2 * 10009, id="10007^2*10009"),
    pytest.param(6 * 10007 * 10009**3, id="6*10007*10009^3"),
])
def test_factorize_large_leftovers_match_sympy(n):
    # prime powers q^e with 1e4 < q < 1e8 are taken by an exact e-th root (78721^70 is
    # about 1e343, past float range); other leftovers, q > 1e8 included, go to sympy
    from sympy import factorint

    assert factorize(n) == tuple(sorted((int(p), int(e)) for p, e in factorint(abs(n)).items()))


def test_prime_power_leftovers_skip_the_fallback():
    assert fields._prime_power(78721**70) == (78721, 70)
    assert fields._prime_power(99999989**3) == (99999989, 3)
    for n in (10007 * 10009, 10007**2 * 10009, 100000007**2, 10007**2 * 10009**2):
        assert fields._prime_power(n) is None


def test_factorize_seeded_prime_powers_match_sympy():
    from sympy import factorint, nextprime

    rng = random.Random(1009)
    for _ in range(40):
        q = nextprime(rng.randrange(10**4, 10**8 - 100))
        n = q ** rng.randint(2, 90) * rng.choice((1, 2, 15, 9973, 2**7 * 7**3))
        assert factorize(n) == tuple(sorted((int(p), int(e)) for p, e in factorint(n).items()))


def test_make_field_examples():
    t = make_field([2, 3])
    assert t.radicands == (2, 3)
    assert t.degree == 4
    assert t.basis_radicand == (1, 2, 3, 6)
    assert make_field([8]).radicands == (2,)
    assert make_field([2, 3, 6]).radicands == (2, 3)


def test_make_field_canonical_across_generating_sets():
    assert make_field([6, 10, 15]) is make_field([10, 15])
    assert make_field([6, 10, 15]).radicands == (6, 10)
    assert make_field([30, 6, 5]) is make_field([5, 6])


def test_make_field_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_field([-2])
    with pytest.raises(ValueError):
        make_field([0])


def test_inexact_inputs_are_refused():
    # make_field([2.9]) was Q(sqrt 2), make_field([True, 3]) Q(sqrt 3), and
    # K.rational(0.1) the binary value 3602879701896397/2^55
    K = make_field([2, 3])
    for bad in ([2.9], [True, 3], ["2"], [Fraction(5, 2)]):
        with pytest.raises(TypeError):
            make_field(bad)
    for call in (lambda: K.rational(0.1), lambda: K.rational(True), lambda: K.rational("1/2"),
                 lambda: K.element([0.5, 0, 0, 1]), lambda: K.element([1, False, 0, 0]),
                 lambda: K.sqrt(2.0), lambda: K.coerce(1.5)):
        with pytest.raises(TypeError):
            call()
    assert K.rational(Fraction(6, 4)) == Fraction(3, 2)
    assert K.element([1, 0, Fraction(1, 2), 0]) == 1 + K.sqrt(Fraction(3, 4))


# -- arithmetic ------------------------------------------------------------


def test_element_arithmetic_examples():
    t = make_field([2])
    r2 = t.sqrt(2)
    one = t.one()
    assert (one + r2) * (one - r2) == t.rational(-1)
    assert one / r2 == r2 * Fraction(1, 2)
    t23 = make_field([2, 3])
    prod = t23.sqrt(2) * t23.sqrt(3)
    assert prod.coeffs == (0, 0, 0, 1)
    assert prod == t23.sqrt(6)


def test_division_by_zero():
    t = make_field([2])
    with pytest.raises(ZeroDivisionError):
        t.one() / t.zero()


def test_arithmetic_laws_500_random_pairs_per_tower():
    rng = random.Random(20240811)
    for tower in TOWERS:
        one = tower.one()
        for _ in range(500):
            x = rand_element(tower, rng)
            y = rand_element(tower, rng)
            z = rand_element(tower, rng)
            assert x + y == y + x
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * (one / x) == one


def test_cross_tower_coercion():
    sub = make_field([2])
    big = make_field([2, 3])
    x = sub.sqrt(2)
    y = big.sqrt(3)
    assert (x + y) * (x - y) == big.rational(-1)
    q6 = make_field([6])
    with pytest.raises(ValueError):
        q6.sqrt(6) + sub.sqrt(2)  # incomparable towers


def test_cross_tower_equality_and_hash():
    big = make_field([2, 3])
    small = make_field([6])
    a = big.sqrt(6)
    b = small.sqrt(6)
    assert a == b
    assert hash(a) == hash(b)
    assert big.rational(5) == 5
    assert small.zero() == 0


def test_rational_elements_hash_as_their_fraction():
    # K.rational(3) == 3 held while 3 in {K.rational(3)} did not
    for tower in TOWERS + [make_field([6, 10, 14])]:
        for q in (0, 3, -7, Fraction(1, 2), Fraction(-22, 7)):
            x = tower.rational(q)
            assert x == q and hash(x) == hash(q)
            assert q in {x} and x in {q} and {q: 1}[x] == 1
    assert len({TOWERS[1].rational(3), TOWERS[2].rational(3), 3, Fraction(6, 2)}) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*(st.fractions(max_denominator=6) for _ in range(4))),
    st.tuples(*(st.fractions(max_denominator=6) for _ in range(4))),
)
def test_mul_distributes_hypothesis(cx, cy):
    t = make_field([2, 3])
    x, y = t.element(cx), t.element(cy)
    assert (x + y) * (x - y) == x * x - y * y


# -- square testing --------------------------------------------------------


def test_is_square_examples():
    t2 = make_field([2])
    ok, w = is_square(t2.element([3, 2]))  # 3 + 2*sqrt(2)
    assert ok and w == t2.element([1, 1])
    t3 = make_field([3])
    ok, w = is_square(t3.rational(2))
    assert not ok and w is None
    t23 = make_field([2, 3])
    ok, w = is_square(t23.rational(6))
    assert ok and w == t23.sqrt(6)


def test_two_not_square_in_q_sqrt3_brute_oracle():
    # independent bounded search: no (a + b*sqrt(3))/c with small height squares to 2
    for c in range(1, 13):
        for a in range(-24, 25):
            for b in range(-24, 25):
                # (a + b sqrt3)^2 = a^2 + 3 b^2 + 2ab sqrt3 == 2 c^2 requires ab == 0
                if 2 * a * b != 0:
                    continue
                assert a * a + 3 * b * b != 2 * c * c or (a == 0 and b == 0 and c == 0)


def test_is_square_witness_property_200_random():
    rng = random.Random(7)
    for _ in range(200):
        tower = rng.choice(TOWERS)
        y = rand_element(tower, rng, scale=4)
        ok, w = is_square(y * y)
        assert ok
        assert w * w == y * y


_CLASS_TOWERS = [make_field(rads) for rads in
                 ((), (2,), (5,), (3, 5), (2, 7), (2, 3, 5), (6, 10, 14))]
_SQUAREFREE_60 = [q for n in range(1, 61) if squarefree_part(n) == n for q in (n, -n)]


@seed(20181030)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_square_classes_match_brute_force(data):
    # half the cases are q0 * y^2, which have a nonempty set; the others are
    # generic elements, mostly in no rational class at all
    tower = data.draw(st.sampled_from(_CLASS_TOWERS))
    y = tower.element(data.draw(st.tuples(*(st.fractions(max_denominator=6)
                                            for _ in range(tower.degree)))))
    assume(y)
    if data.draw(st.booleans()):
        y = y * y * data.draw(st.sampled_from(_SQUAREFREE_60))
    got = rational_square_classes(y)
    assert {q for q in _SQUAREFREE_60 if q in got} == \
        {q for q in _SQUAREFREE_60 if is_square(y * q)[0]}
    assert len(got) in (0, tower.degree)


def test_rational_square_classes_of_zero_raise():
    for tower in _CLASS_TOWERS:
        with pytest.raises(ValueError):
            rational_square_classes(tower.zero())


def test_is_square_edge_cases():
    assert is_square(Fraction(9, 4))[0]
    assert not is_square(Fraction(-4))[0]
    ok, w = is_square(Fraction(0))
    assert ok and w == 0
    t = make_field([2, 3])
    ok, w = is_square(t.zero())
    assert ok and w == t.zero()
    # square in a proper subtower, witness in the big tower
    ok, w = is_square(t.element([3, 2, 0, 0]))
    assert ok and w * w == t.element([3, 2, 0, 0])


_DESCENT_TOWERS = [make_field(rads) for rads in
                   ((), (2,), (5,), (2, 3), (3, 5), (2, 3, 5), (6, 10, 14), (5, 13, 17))]


@pytest.mark.parametrize("tower", _DESCENT_TOWERS, ids=str)
def test_numerator_descent_matches_the_element_descent(tower):
    # the integer descent against the recursive FieldElement one of oracles:
    # the same answer and the same root, nums and den, the same class set and
    # the same integrality, on squares, squares times each squarefree q up to
    # +-30, random elements, their negatives, rationals and zero
    rng = random.Random(41 * tower.degree + sum(tower.radicands))
    qs = [q for n in range(2, 31) if squarefree_part(n) == n for q in (n, -n)] + [-1]
    cases = [tower.zero(), tower.one(), -tower.one()]
    for _ in range(12):
        y = rand_nonzero(tower, rng, scale=7, dens=(1, 2, 3, 4, 6, 9))
        z = rand_element(tower, rng, scale=5, dens=(1,))  # integral, and z(z+1)/2 may be
        cases += [y, -y, y * y, -(y * y), y * y * rng.choice(qs), y * y * rng.choice(qs),
                  tower.rational(Fraction(rng.randint(-40, 40), rng.randint(1, 12))),
                  z, (z * z + z) * Fraction(1, 2)]
    cases += [y * y * q for q in qs[:8]]
    squares = classes = integral = 0
    for x in cases:
        ok, w = is_square(x)
        ok_ref, w_ref = oracles.is_square(x)
        assert (ok, w and (w.nums, w.den)) == (ok_ref, w_ref and (w_ref.nums, w_ref.den)), x
        assert w is None or w.tower is tower
        squares += ok
        if x:
            got = rational_square_classes(x)
            assert got == oracles.rational_square_classes(x), x
            classes += bool(got)
        integral += is_algebraic_integer(x)
        assert is_algebraic_integer(x) == oracles.is_algebraic_integer(x), x
    # every kind of answer is met on every tower
    assert squares >= 14 and len(cases) - squares >= 14
    assert classes >= 20 and integral >= 12 and len(cases) - integral >= 12


def test_descent_reads_ints_and_fractions_over_q_and_refuses_other_types():
    for q, want in ((4, 2), (Fraction(9, 4), Fraction(3, 2)), (0, 0), (-4, None), (2, None)):
        ok, w = is_square(q)
        assert ok == (want is not None)
        assert w is None if want is None else (w.tower is Q and w == want)
    assert rational_square_classes(4) == {1} and rational_square_classes(Fraction(-3, 2)) == {-6}
    assert is_algebraic_integer(4) and not is_algebraic_integer(Fraction(4, 3))
    for bad in (True, False, 2.0, 4.0, "4", None, [4]):
        for call in (is_square, rational_square_classes, is_algebraic_integer):
            with pytest.raises(TypeError):
                call(bad)


# -- embeddings and signs --------------------------------------------------


def test_embeddings_form_group():
    t = make_field([2, 3])
    embs = t.embeddings()
    assert len(embs) == 4
    assert embs[0].mask == 0
    assert len({e.mask for e in embs}) == 4


def test_sign_at_examples():
    t = make_field([2])
    x = t.element([1, 1])  # 1 + sqrt(2)
    conj = Embedding(t, 1)
    assert sign_at(x, conj) == -1
    assert sign_at(x, t.identity_embedding) == 1
    assert sign_at(t.zero(), conj) == 0
    t23 = make_field([2, 3])
    both = Embedding(t23, 0b11)
    assert sign_at(t23.sqrt(6), both) == 1


def test_sign_at_square_is_nonnegative():
    rng = random.Random(99)
    for _ in range(80):
        tower = rng.choice(TOWERS)
        x = rand_element(tower, rng)
        for sigma in tower.embeddings():
            assert sign_at(x * x, sigma) in (0, 1)


def pell_convergent(min_q: int) -> tuple[int, int]:
    """The first p/q with p^2 - 2q^2 = +-1 and q >= min_q: |p/q - sqrt2| < 1/(2q^2)."""
    p, q = 1, 1
    while q < min_q:
        p, q = p + 2 * q, p + q
    return p, q


def assert_sign(x, sigma, expected):
    """sign_at(x, sigma) and signs(x) at sigma's mask are `expected`, which
    the dense oracle gives too."""
    assert sign_at(x, sigma) == fields.signs(x)[sigma.mask] == expected
    assert oracles.dense_sign(x.tower.radicands, list(x.coeffs), sigma.mask) == expected


def test_sign_at_tight_cancellation():
    # |p/q - sqrt2| < 2^-141 with q >= 2^70
    p, q = pell_convergent(1 << 70)
    above = 1 if p * p - 2 * q * q > 0 else -1  # sign of p/q - sqrt2
    t = make_field([2])
    ident, conj = t.embeddings()
    x = t.element([Fraction(p, q), -1])  # p/q - sqrt2
    y = t.element([Fraction(p, q), 1])  # p/q + sqrt2, tight where sqrt2 -> -sqrt2
    for z, sigma, expected in ((x, ident, above), (-x, ident, -above),
                               (y, conj, above), (-y, conj, -above)):
        assert_sign(z, sigma, expected)
    # degree 8, at sqrt3 -> -sqrt3: sigma(p/q*sqrt15 - sqrt30) = -sqrt15 * (p/q - sqrt2)
    t235 = make_field([2, 3, 5])
    z = t235.sqrt(15) * Fraction(p, q) - t235.sqrt(30)
    sigma = Embedding(t235, 0b010)
    assert sigma.signs == (1, -1, 1)
    assert_sign(z, sigma, -above)


def test_signs_run_on_integers_alone(monkeypatch):
    p, q = pell_convergent(1 << 70)
    t235 = make_field([2, 3, 5])
    cases = [(t235.sqrt(15) * Fraction(p, q) - t235.sqrt(30), Embedding(t235, 0b010)),
             (t235.element([Fraction(1, 3), -2, 5, 0, 1, 0, -1, 7]), Embedding(t235, 0b101))]
    expected = [sign_at(x, sigma) for x, sigma in cases]
    expected_all = [fields.signs(x) for x, _ in cases]

    def refuse(*args):
        raise AssertionError("a sign left the integers")

    monkeypatch.setattr(fields, "Fraction", refuse)
    monkeypatch.setattr(fields, "isqrt", refuse)
    assert [sign_at(x, sigma) for x, sigma in cases] == expected
    assert [fields.signs(x) for x, _ in cases] == expected_all


def test_signs_match_the_dense_oracle_at_every_mask():
    # degrees 1, 2, 4 and 8: zero, random elements, and Pell near-cancellations
    # at some masks and not at others, one perturbed by 2^-150
    p, q = pell_convergent(1 << 70)
    t2, t23, t235 = TOWERS[1:]
    cases = [T.zero() for T in TOWERS]
    cases += [t2.element([Fraction(p, q), -1]), t2.element([Fraction(p, q), 1]),
              t23.sqrt(3) * Fraction(p, q) - t23.sqrt(6) + t23.rational(Fraction(1, 1 << 150)),
              t235.sqrt(15) * Fraction(p, q) - t235.sqrt(30)]
    rng = random.Random(131)
    cases += [rand_element(T, rng, scale=9, dens=(1, 2, 3, 7)) for T in TOWERS for _ in range(12)]
    for x in cases:
        got = fields.signs(x)
        assert len(got) == x.tower.degree
        for sigma in x.tower.embeddings():
            want = oracles.dense_sign(x.tower.radicands, list(x.coeffs), sigma.mask)
            assert got[sigma.mask] == sign_at(x, sigma) == want


@pytest.mark.parametrize("rads", [(), (2,), (2, 3), (2, 3, 5)])
def test_mul_nums_matches_the_dense_product(rads):
    # the closed forms at degrees 1 and 2 and the loop at 4 and 8, on seeded
    # sparse and dense integer vectors
    tower = make_field(rads)
    rad, deg = tower.basis_radicand, tower.degree
    rng = random.Random(2500 + deg)
    for trial in range(48):
        a, b = ([rng.randint(-40, 40) if trial % 3 or rng.random() < 0.5 else 0
                 for _ in range(deg)] for _ in range(2))
        want = oracles.dense_mul(rads, a, b)
        got = fields._mul_nums(a, b, rad)
        assert got == want and all(type(x) is int for x in got), (a, b)


def test_signs_over_q_are_read_off_the_numerator(monkeypatch):
    # degree 1: the one sign is the numerator's (den > 0), zero included,
    # and no norm is formed for it
    def refuse(*args):
        raise AssertionError("signs formed a norm over Q")

    monkeypatch.setattr(fields, "_norm_step", refuse)
    rng = random.Random(251)
    cases = [Q.zero(), Q.one(), -Q.one(), Q.rational(Fraction(1, 1 << 200)),
             Q.rational(Fraction(-7, 3))] + [rand_element(Q, rng, scale=9) for _ in range(20)]
    for x in cases:
        want = oracles.dense_sign((), list(x.coeffs), 0)
        assert fields.signs(x) == (want,) and sign_at(x, Q.identity_embedding) == want


def test_sign_at_rejects_an_embedding_of_another_tower():
    # sqrt3 in Q(sqrt2, sqrt3) read at Q(sqrt3)'s sqrt3 -> -sqrt3 used to give +1
    t23, t3 = make_field([2, 3]), make_field([3])
    foreign = t3.embeddings()[1]
    for x in (t23.sqrt(3), t23.zero()):
        for call in (lambda: sign_at(x, foreign), lambda: oracles.conjugate(x, foreign)):
            with pytest.raises(ValueError, match="embedding belongs to a different tower"):
                call()
    x = t23.sqrt(3)
    assert sign_at(x, Embedding(t23, 0b10)) == -1
    assert sign_at(t3.sqrt(3), foreign) == -1


def test_signs_are_multiplicative():
    # every embedding is a ring map: signs(x * y) = signs(x) * signs(y) at every mask
    rng = random.Random(5)
    for t in TOWERS:
        for _ in range(50):
            x, y = rand_element(t, rng), rand_element(t, rng)
            assert fields.signs(x * y) == tuple(a * b for a, b in zip(fields.signs(x),
                                                                      fields.signs(y)))


# -- subfield lattice ------------------------------------------------------


def test_subfields_index2_examples():
    t = make_field([2, 3])
    subs = subfields_index2(t)
    assert sorted(s.radicands for s in subs) == [(2,), (3,), (6,)]
    assert subfields_index2(make_field([2])) == [Q]
    assert intersect(make_field([2]), make_field([3])) is Q


def test_tower_tables_are_kept_and_refusals_are_not():
    # one tower table, kept by _class_tower; make_field keeps nothing, so a
    # refusal leaves the table as it was; a tower keeps its subfield list and
    # hands each caller a copy
    assert [name for name in vars(fields) if name.endswith(("_CACHE", "TOWERS"))] == ["_TOWERS"]
    make_field([2])
    before = dict(fields._TOWERS)
    for raw in ([0], [-3], [2, -5], [2**64 + 13], [3, 2**64]):
        for _ in range(2):
            with pytest.raises(ValueError, match="radicand"):
                make_field(raw)
        assert fields._TOWERS == before
    assert make_field((6, 10, 15)) is make_field([10, 15]) is make_field(iter([15, 10]))
    K = make_field([10, 15])
    assert fields._TOWERS[(6, 10)] is fields._TOWERS[(10, 15)] is K and K.radicands == (6, 10)
    assert fields._class_tower([6, 10, 15]) is K
    t = make_field([2, 3, 5])
    subs = subfields_index2(t)
    subs.clear()
    again = subfields_index2(t)
    assert len(again) == 7 and all(a is b for a, b in zip(again, subfields_index2(t)))
    assert t.one() is t.one() and t.one() == t.rational(1) == t.rational(Fraction(2, 2))


# three primes below 2^64 whose products are not: a tower of them, its
# subfields and intersections are built from its own classes
BIG_PRIMES = (5000000000000023, 300000000000000011, 9223372036854775783)


def _factor_below_2_to_the_64(monkeypatch):
    def guarded(n):
        assert abs(n) < 2**64, f"factored a {abs(n).bit_length()}-bit number"
        return real(n)

    real = fields.factorize
    monkeypatch.setattr(fields, "factorize", guarded)


def test_a_tower_of_large_radicands_factors_no_product(monkeypatch):
    # each basis class is the _sqfree_mul fold of its radicands and each
    # scale is read from it, so no product of radicands is factored
    _factor_below_2_to_the_64(monkeypatch)
    monkeypatch.setattr(fields, "_TOWERS", {})
    K = make_field(BIG_PRIMES[::-1])
    assert K.radicands == BIG_PRIMES
    for S, (m, t, c) in enumerate(zip(K.basis_radicand, K.basis_class, K.basis_scale)):
        want = 1
        for j, q in enumerate(BIG_PRIMES):
            want *= q if (S >> j) & 1 else 1
        assert (m, t, c) == (want, want, 1)
    subs = subfields_index2(K)
    assert len(subs) == 7 and sorted(F.degree for F in subs) == [4] * 7
    assert intersect(subs[0], subs[1]).degree == 2
    assert make_field([BIG_PRIMES[0] * 4, BIG_PRIMES[1] * 9]).radicands == BIG_PRIMES[:2]
    with pytest.raises(ValueError, match="radicands not independent"):
        fields.FieldTower((BIG_PRIMES[0], BIG_PRIMES[0] * 4), fields._TOKEN)


def test_outside_radicands_of_2_to_the_64_are_refused_before_factoring(monkeypatch):
    # make_field and FieldTower.sqrt refuse before anything is factored,
    # even an input whose tower another path has built
    def refuse(n):
        raise AssertionError(f"factored {n}")

    K = make_field([2])
    monkeypatch.setattr(fields, "factorize", refuse)
    for n in (2**64, (2**89 - 1) * (2**107 - 1)):
        for call, what, got in ((lambda: make_field([n]), "a radicand", n),
                                (lambda: make_field([3, n, -1]), "a radicand", n),
                                (lambda: K.sqrt(n), "sqrt", n),
                                (lambda: K.sqrt(Fraction(3, n)), "sqrt", 3 * n)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{what} takes values below 2^64, got {got}"
    fields._class_tower([2**64 + 13])
    with pytest.raises(ValueError, match="a radicand takes values below 2"):
        make_field([2**64 + 13])


def test_subfield_lattice_r3():
    t = make_field([2, 3, 5])
    subs = subfields_index2(t)
    assert len(subs) == 7
    assert all(s.r == 2 for s in subs)
    assert len({s.radicands for s in subs}) == 7
    meets = {
        intersect(a, b).radicands
        for i, a in enumerate(subs)
        for b in subs[i + 1 :]
    }
    rank1 = {rs for rs in meets if len(rs) == 1}
    assert rank1 == {(2,), (3,), (5,), (6,), (10,), (15,), (30,)}


def test_minimal_field_of_examples():
    t = make_field([2, 3])
    half = t.rational(Fraction(1, 2))
    r2half = t.sqrt(2) * Fraction(1, 2)
    assert oracles.minimal_field_of([half, r2half]).radicands == (2,)
    assert oracles.minimal_field_of([t.rational(Fraction(1, 3))]) is Q
    assert oracles.minimal_field_of([t.sqrt(6)]).radicands == (6,)


def test_fixing_embeddings():
    t = make_field([2, 3])
    fixed = oracles.fixing_embeddings(t, make_field([6]))
    assert sorted(e.mask for e in fixed) == [0, 0b11]


# -- integrality -----------------------------------------------------------


def _integral_by_oracle(x):
    return all(c.denominator == 1 for c in oracles.minimal_polynomial(x))


def test_is_algebraic_integer_examples():
    t = make_field([2])
    assert is_algebraic_integer(t.sqrt(2))
    assert not is_algebraic_integer(t.rational(Fraction(1, 2)))
    t5 = make_field([5])
    golden = t5.element([Fraction(1, 2), Fraction(1, 2)])
    assert is_algebraic_integer(golden)
    assert oracles.minimal_polynomial(golden) == [Fraction(-1), Fraction(-1), Fraction(1)]
    for x in (t.sqrt(2), t.rational(Fraction(1, 2)), golden):
        assert is_algebraic_integer(x) == _integral_by_oracle(x)


def test_is_algebraic_integer_matches_minimal_polynomial():
    # descent down the tower against the minimal polynomial over Q, on
    # seeded towers of degree 2..16: integer combinations of integral
    # generators ((1+sqrt(t))/2 for classes t = 1 mod 4, and sqrt(t)),
    # some shifted by a half or a quarter of a basis element
    t513 = make_field([5, 13])
    h5, h13 = (1 + t513.sqrt(5)) / 2, (1 + t513.sqrt(13)) / 2
    cases = [(h5, True), (h13, True), (h5 * h13, True), ((t513.sqrt(5) + t513.sqrt(13)) / 2, True),
             ((1 + t513.sqrt(65)) / 2, True), ((1 + t513.sqrt(5)) / 4, False),
             ((t513.sqrt(5) + 1) / 2 + t513.sqrt(13) / 2, False), (h5 / 2, False)]
    for x, want in cases:
        assert is_algebraic_integer(x) is want, x
        assert _integral_by_oracle(x) is want, x
    rng = random.Random(20181030)
    towers = [make_field(r) for r in ([5], [3], [13], [2, 5], [5, 13], [3, 7], [2, 3, 5],
                                      [5, 13, 17], [3, 5, 7, 13], [2, 5, 13, 17])]
    verdicts = Counter()
    for tower in towers:
        gens = [tower.sqrt(t) for t in sorted(tower.subgroup_classes)]
        gens += [(1 + tower.sqrt(t)) / 2 for t in sorted(tower.subgroup_classes) if t % 4 == 1]
        for _ in range(30):
            x = tower.rational(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 3)):
                x = x + rng.choice(gens) * rng.choice(gens) * rng.randint(-2, 2)
            if rng.random() < 0.5:
                x = x + tower.sqrt(rng.choice(sorted(tower.subgroup_classes))) * \
                    Fraction(1, rng.choice((2, 4)))
            got = is_algebraic_integer(x)
            assert got == _integral_by_oracle(x), (tower, x)
            verdicts[got, x.den > 1] += 1
    # integral elements with and without denominators, and non-integral ones
    assert min(verdicts[True, True], verdicts[True, False], verdicts[False, True]) >= 20


def test_algebraic_integers_closed_under_ring_ops():
    rng = random.Random(321)
    t5 = make_field([5])
    golden = t5.element([Fraction(1, 2), Fraction(1, 2)])
    pool = [t5.sqrt(5), golden, t5.rational(3), golden * golden - golden]
    for tower in TOWERS:
        pool.append(tower.element([rng.randint(-4, 4) for _ in range(tower.degree)]))
    for _ in range(100):
        x = rng.choice(pool)
        y = rng.choice(pool)
        if x.tower is not y.tower:
            continue
        assert is_algebraic_integer(x + y)
        assert is_algebraic_integer(x * y)


def test_minimal_polynomial_of_rational():
    assert oracles.minimal_polynomial(Q.rational(7)) == [Fraction(-7), Fraction(1)]
    assert is_algebraic_integer(Q.rational(7))
    assert not is_algebraic_integer(Q.rational(Fraction(7, 2)))


# -- literals --------------------------------------------------------------


def test_parse_element_examples():
    x = parse_element("1/2 + 1/2*sqrt(6)")
    assert x.tower.radicands == (6,)
    assert x == make_field([6]).element([Fraction(1, 2), Fraction(1, 2)])
    y = parse_element("-sqrt(2) + 3")
    assert y == make_field([2]).element([3, -1])
    z = parse_element("2*sqrt(8)")  # normalizes into the sqrt(2) tower
    assert z == make_field([2]).element([0, 4])


def test_parse_element_into_given_tower():
    t = make_field([2, 3])
    x = parse_element("sqrt(6) - 1", t)
    assert x.tower is t
    assert x.coeffs == (-1, 0, 0, 1)
    with pytest.raises(ValueError):
        parse_element("sqrt(5)", t)


def test_parse_element_errors():
    for bad in ["", "sqrt(0)", "1 + + 2", "sqrt(2)sqrt(3)", "2^3", "sqrt(-2)", "1/0",
                "1 + 3/00*sqrt(2)"]:
        with pytest.raises(ValueError):
            parse_element(bad)


def test_literal_roundtrip_random():
    rng = random.Random(2718)
    for _ in range(60):
        tower = rng.choice(TOWERS)
        x = rand_element(tower, rng)
        assert parse_element(element_literal(x)) == x


def test_literal_formatting():
    t = make_field([2])
    assert element_literal(t.zero()) == "0"
    assert element_literal(t.element([Fraction(-1, 2), 1])) == "-1/2+sqrt(2)"
    assert element_literal(t.element([0, -1])) == "-sqrt(2)"


# -- integer numerators against the dense Fraction-vector oracle -------------

SUPER = make_field([2, 3, 5, 7])


def assert_matches(x, dense):
    """x is normalised and has the oracle's coefficients."""
    assert len(x.nums) == x.tower.degree
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert any(x.nums) or x.den == 1
    assert list(x.coeffs) == list(dense)


def test_field_ops_match_dense_fraction_oracle():
    rng = random.Random(20261018)
    dens = (1, 2, 3, 4, 5, 6, 9, 10)
    for tower in TOWERS:
        rads = tower.radicands
        for _ in range(16):
            x = rand_element(tower, rng, scale=7, dens=dens)
            y = rand_nonzero(tower, rng, scale=7, dens=dens)
            dx, dy = list(x.coeffs), list(y.coeffs)
            assert_matches(FieldElement(tower, tuple(-3 * n for n in x.nums), -3 * x.den), dx)
            assert_matches(x + y, [a + b for a, b in zip(dx, dy)])
            assert_matches(x - y, [a - b for a, b in zip(dx, dy)])
            assert_matches(x - x, [0] * tower.degree)
            assert_matches(-x, [-a for a in dx])
            assert_matches(x * y, oracles.dense_mul(rads, dx, dy))
            assert_matches(x * Fraction(-4, 15), [a * Fraction(-4, 15) for a in dx])
            assert_matches(3 - x, [3 - dx[0]] + [-a for a in dx[1:]])
            inv = oracles.dense_inverse(rads, dy)
            assert_matches(y.inverse(), inv)
            assert_matches(x / y, oracles.dense_mul(rads, dx, inv))
            assert_matches(y ** -2, oracles.dense_mul(rads, inv, inv))
            assert_matches(3 / y, [3 * a for a in inv])
            assert oracles.rational_norm(y) == oracles.dense_norm(rads, dy)
            assert_matches(integral_rescale(y), oracles.dense_integral_rescale(dy))
            for sigma in tower.embeddings():
                assert_matches(oracles.conjugate(x, sigma), oracles.dense_conjugate(dx, sigma.mask))
                for z, dz in ((x, dx), (y, dy), (x * y, oracles.dense_mul(rads, dx, dy))):
                    assert sign_at(z, sigma) == oracles.dense_sign(rads, dz, sigma.mask)
            # up to a supertower and back
            up = x.express_in(SUPER)
            assert_matches(up, oracles.dense_express(rads, dx, SUPER.radicands))
            assert up.express_in(tower) == x and up == x and hash(up) == hash(x)
            assert up.canonical_terms() == tuple(oracles.dense_canonical(rads, dx))
            assert up + 1 != x
            # across towers, through _pair in both directions: x is carried
            # up to the larger tower, where the product and sum are taken
            w = rand_nonzero(SUPER, rng, scale=7, dens=dens)
            dup, dw = oracles.dense_express(rads, dx, SUPER.radicands), list(w.coeffs)
            for z in (x * w, w * x):
                assert z.tower is SUPER
                assert_matches(z, oracles.dense_mul(SUPER.radicands, dup, dw))
            for z in (x + w, w + x):
                assert z.tower is SUPER
                assert_matches(z, [a + b for a, b in zip(dup, dw)])
            # down from the tower to a subtower and back
            for sub in subfields_index2(tower):
                z = rand_element(sub, rng, scale=7, dens=dens)
                dz = list(z.coeffs)
                zt = z.express_in(tower)
                assert_matches(zt, oracles.dense_express(sub.radicands, dz, rads))
                assert_matches(zt.express_in(sub), dz)
                assert zt == z and hash(zt) == hash(z)
                if any(c for t, c in oracles.dense_canonical(rads, dx)
                       if t not in sub.subgroup_classes):
                    with pytest.raises(ValueError):
                        x.express_in(sub)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*(st.fractions(max_denominator=12) for _ in range(4))),
    st.tuples(*(st.fractions(max_denominator=12) for _ in range(4))),
)
def test_mul_and_inverse_match_dense_oracle_hypothesis(cx, cy):
    t = make_field([2, 3])
    x, y = t.element(cx), t.element(cy)
    assert_matches(x * y, oracles.dense_mul(t.radicands, list(cx), list(cy)))
    if y:
        assert_matches(y.inverse(), oracles.dense_inverse(t.radicands, list(cy)))


# parse_element, sqrt and express_in, all built through fields._term_nums
TERM_TOWERS = [make_field(r) for r in ([2], [2, 3], [2, 3, 5], [6, 10, 14])]


def dense_term(rads, t, c):
    """c * sqrt(t) over the tower of rads, by oracles.dense_express from Q(sqrt(t))."""
    return oracles.dense_express([t] if t > 1 else [], [0, c] if t > 1 else [c], rads)


@pytest.mark.parametrize("tower", TERM_TOWERS, ids=str)
def test_term_building_matches_the_dense_oracle(tower):
    rads = tower.radicands
    rng = random.Random(97 * sum(rads))
    classes = sorted(tower.subgroup_classes)
    for _ in range(40):
        # up to five terms q * sqrt(t * s^2), classes repeating
        terms = [(Fraction(rng.randint(-30, 30), rng.randint(1, 12)), rng.choice(classes),
                  rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
        text = "".join(f"{'-' if q < 0 else '+'}{abs(q)}*sqrt({t * s * s})" for q, t, s in terms)
        want = [sum(col) for col in zip(*(dense_term(rads, t, q * s) for q, t, s in terms))]
        x = parse_element(text, tower)
        assert x.tower is tower and list(x.coeffs) == want
        assert parse_element(text) == x
        t, r = rng.choice(classes), Fraction(rng.randint(1, 40), rng.randint(1, 40))
        assert list(tower.sqrt(r * r * t).coeffs) == dense_term(rads, t, r)
        assert list(tower.sqrt(r * r / t).coeffs) == dense_term(rads, t, r / t)
        up = x.express_in(SUPER)
        assert list(up.coeffs) == oracles.dense_express(rads, want, SUPER.radicands)
        assert up.express_in(tower).coeffs == x.coeffs
        sub = rng.choice(subfields_index2(tower))
        z = rand_element(sub, rng, scale=9, dens=(1, 2, 3, 7))
        assert list(z.express_in(tower).coeffs) == oracles.dense_express(
            sub.radicands, list(z.coeffs), rads)
    # a nonzero term outside the tower is refused, a zero one is not
    with pytest.raises(ValueError, match=r"sqrt\(7\) does not lie in"):
        parse_element("1 + 3*sqrt(28)", tower)
    with pytest.raises(ValueError, match=r"sqrt\(7\) does not lie in"):
        tower.sqrt(Fraction(7, 4))
    assert parse_element("1 + sqrt(7) - sqrt(7)", tower) == 1


# -- checks that survive python -O --------------------------------------------

_CHECKS_UNDER_O = """
import sys
from coxarith import diagrams, fields, forms, lvalues

if __debug__:
    sys.exit("expected python -O")
d = diagrams.parse_diagram("dim 2\\nvertices 3\\nedge 1 2 3\\nedge 2 3 3\\nedge 1 3 4\\n", "t334")
try:
    d.relabeled([1, 1, 2])
except ValueError as exc:
    print(exc)
for bad in (lambda: lvalues.Ball(1, -1), lambda: fields.FieldTower((2, 8), fields._TOKEN)):
    try:
        bad()
    except ValueError as exc:
        print(exc)
honest = fields._sqrt_nums


def doubled(y, rad):  # every root the descent returns, twice too large
    root = honest(y, rad)
    return root and ([2 * n for n in root[0]], root[1])


fields._sqrt_nums = doubled
t = fields.make_field([2])
for q in (4, 2):  # a square of the prefix field, and one times sqrt(2)
    try:
        fields.is_square(t.rational(q))
    except RuntimeError as exc:
        print(q, exc)
foreign = fields.make_field([3]).embeddings()[1]
t23 = fields.make_field([2, 3])
for call in (fields.sign_at,
             lambda x, s: forms.signature_at(forms.QuadraticForm(t23, [x]), s)):
    try:
        call(t23.sqrt(3), foreign)
    except ValueError as exc:
        print(exc)
"""


def test_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(fields.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", _CHECKS_UNDER_O], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "relabeling is not a permutation of the vertices",
        "ball radius must be nonnegative",
        "radicands not independent",
        "4 square witness check failed",
        "2 square witness check failed",
        "embedding belongs to a different tower",
        "embedding belongs to a different tower",
    ]
