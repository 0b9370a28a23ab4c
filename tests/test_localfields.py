"""Local places, Hilbert symbols, Hasse invariants, hyperbolicity.

The independent oracles live in oracles.py (brute solvability enumeration)
and are checked first against textbook values, then the library is checked
against the oracles.
"""

import ast
import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import oracles
from coxarith import fields, forms, localfields
from coxarith.fields import is_square, make_field
from coxarith.localfields import (
    hasse_invariant,
    hilbert_symbol_Q,
    hilbert_symbol_local,
    is_hyperbolic,
    real_places,
    relevant_finite_places,
    splitting,
    square_class_vector,
)

Q = make_field([])
Q2 = make_field([2])
Q5 = make_field([5])
Q23 = make_field([2, 3])
Q235 = make_field([2, 3, 5])
# two radicands divisible by 3 (resp. 5): one local generator is ramified,
# the other is the unit quotient
Q15_21 = make_field([15, 21])
Q30_35 = make_field([30, 35])

PRODUCT_TOWERS = [Q, Q2, Q5, Q23, Q235, Q15_21, Q30_35]


def rand_nonzero(tower, rng, scale=4):
    while True:
        x = tower.element([Fraction(rng.randint(-scale, scale),
                                    rng.choice((1, 2, 3))) for _ in range(tower.degree)])
        if x:
            return x


def global_symbol_product(tower, a, b):
    out = 1
    for pl in real_places(tower):
        out *= hilbert_symbol_local(a, b, pl)
    for pl in relevant_finite_places(tower, [a, b]):
        out *= hilbert_symbol_local(a, b, pl)
    return out


# -- the oracle itself, pinned against textbook values ---------------------

# (a, b, p, symbol): the standard table entries every treatment agrees on
_KNOWN_QP = [
    (-1, -1, 2, -1),
    (-1, 2, 2, 1),
    (2, 2, 2, 1),
    (-1, 3, 2, -1),
    (2, 3, 2, -1),
    (2, 5, 2, -1),
    (3, 5, 2, 1),
    (2, 7, 2, 1),
    (-1, -1, 3, 1),
    (3, 3, 3, -1),     # (3,3)_3 = (3,-1)_3 = (-1|3) = -1
    (3, 1, 3, 1),
    (2, 3, 3, -1),     # 2 is not a square mod 3
    (5, 5, 5, 1),      # (5,-1)_5 = (-1|5) = +1
    (5, 2, 5, -1),     # 2 is not a square mod 5
    (7, -1, 7, -1),    # -1 is not a square mod 7
    (13, 2, 13, -1),   # 2 is not a square mod 13
]


def test_brute_oracle_matches_textbook_table():
    for a, b, p, expected in _KNOWN_QP:
        assert oracles.brute_hilbert_Qp(a, b, p) == expected, (a, b, p)


def test_brute_oracle_is_symmetric_and_square_stable():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice((2, 3, 5, 7))
        a = rng.choice((1, -1, 2, 3, -2, 5, 7, 10)) * p ** rng.randint(0, 1)
        b = rng.choice((1, -1, 2, 3, -2, 5, 7, 10)) * p ** rng.randint(0, 1)
        s = oracles.brute_hilbert_Qp(a, b, p)
        assert oracles.brute_hilbert_Qp(b, a, p) == s
        assert oracles.brute_hilbert_Qp(a * 9, b, p) == s or p == 3
        assert oracles.brute_hilbert_Qp(a, b * 25, p) == s or p == 5


# -- library vs oracle ------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_tame_symbols_against_brute_solvability(p):
    """Every square-class pair at an odd prime, library vs enumeration."""
    r = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
    classes = [1, r, p, p * r, -1, -r, -p, -p * r]
    place = splitting(Q, p)[0]
    for a in classes:
        for b in classes:
            got = hilbert_symbol_local(Q.rational(a), Q.rational(b), place)
            want = oracles.brute_hilbert_Qp(a, b, p)
            assert got == want == hilbert_symbol_Q(a, b, p), (a, b, p)


def test_dyadic_symbols_against_brute_solvability():
    classes = [1, 3, 5, 7, 2, 6, 10, 14, -1, -3, -5, -7, -2, -6, -10, -14]
    place = splitting(Q, 2)[0]
    for a in classes:
        for b in classes:
            got = hilbert_symbol_local(Q.rational(a), Q.rational(b), place)
            want = oracles.brute_hilbert_Qp(a, b, 2)
            assert got == want == hilbert_symbol_Q(a, b, 2), (a, b)


def test_ramified_dyadic_symbol_by_enumeration():
    """(sqrt2, sqrt2) and friends at the ramified place of Q(sqrt(2)) over 2."""
    place = splitting(Q2, 2)[0]
    assert place.e == 2 and place.f == 1
    root2 = Q2.sqrt(2)
    cases = [
        ((0, 1), (0, 1), root2, root2),            # (pi, pi)
        ((0, 1), (-1, 0), root2, Q2.rational(-1)),  # (pi, -1)
        ((3, 0), (0, 1), Q2.rational(3), root2),
        ((-1, 0), (-1, 0), Q2.rational(-1), Q2.rational(-1)),
        ((1, 1), (0, 1), Q2.one() + root2, root2),
        ((5, 0), (0, 1), Q2.rational(5), root2),
    ]
    for pa, pb, xa, xb in cases:
        want = oracles.brute_hilbert_Q2_sqrt2(pa, pb)
        got = hilbert_symbol_local(xa, xb, place)
        assert got == want, (pa, pb, got, want)


def test_known_splitting_shapes():
    # facts checkable by Legendre symbols: 2 is a QR mod 7 and mod 17,
    # a non-residue mod 3 and mod 5; 5 is a QR mod 11, 2-adically 5 = 5 mod 8
    def shape(tower, p):
        pls = splitting(tower, p)
        return (len(pls), pls[0].e, pls[0].f)

    assert shape(Q2, 2) == (1, 2, 1)
    assert shape(Q2, 7) == (2, 1, 1)
    assert shape(Q2, 17) == (2, 1, 1)
    assert shape(Q2, 3) == (1, 1, 2)
    assert shape(Q2, 5) == (1, 1, 2)
    assert shape(Q5, 5) == (1, 2, 1)
    assert shape(Q5, 11) == (2, 1, 1)
    assert shape(Q5, 2) == (1, 1, 2)
    assert shape(Q23, 2) == (1, 4, 1)   # both sqrt2 and sqrt3 ramify
    assert shape(Q23, 5) == (2, 1, 2)   # 2,3 non-residues, 6 a residue mod 5
    assert shape(Q235, 2) == (1, 4, 2)
    assert shape(Q235, 7) == (4, 1, 2)  # 2 splits, 3 and 5 inert mod 7


def test_square_class_vector_is_a_homomorphism():
    rng = random.Random(23)
    for tower, primes in ((Q2, (2, 3, 5)), (Q23, (2, 3, 5)), (Q15_21, (3, 5)), (Q30_35, (3, 5))):
        for p in primes:
            for pl in splitting(tower, p):
                x = rand_nonzero(tower, rng)
                y = rand_nonzero(tower, rng)
                vx = square_class_vector(x, pl)
                assert square_class_vector(x * x * y, pl) == square_class_vector(y, pl)
                vxy = square_class_vector(x * y, pl)
                vy = square_class_vector(y, pl)
                assert vxy == tuple(a ^ b for a, b in zip(vx, vy))


def test_symbol_bilinearity_at_places():
    rng = random.Random(31)
    for tower in (Q, Q2, Q23):
        pls = list(splitting(tower, 2)) + list(splitting(tower, 3))
        for pl in pls:
            a = rand_nonzero(tower, rng)
            b = rand_nonzero(tower, rng)
            c = rand_nonzero(tower, rng)
            left = hilbert_symbol_local(a, b * c, pl)
            right = hilbert_symbol_local(a, b, pl) * hilbert_symbol_local(a, c, pl)
            assert left == right
            assert hilbert_symbol_local(a, -a, pl) == 1
            if (a - tower.one()):
                assert hilbert_symbol_local(a, tower.one() - a, pl) == 1


def test_product_formula_seeded():
    rng = random.Random(41)
    for tower in PRODUCT_TOWERS:
        for _ in range(25):
            a = rand_nonzero(tower, rng)
            b = rand_nonzero(tower, rng)
            assert global_symbol_product(tower, a, b) == 1


def test_product_formula_rationals_vs_brute():
    rng = random.Random(43)
    small = (2, 3, 5, 7, 11, 13)
    for _ in range(20):
        a = rng.choice((-1, 1))
        b = rng.choice((-1, 1))
        for p in rng.sample(small, rng.randint(1, 3)):
            a *= p ** rng.randint(0, 1)
            b *= p ** rng.randint(0, 1)
        primes = sorted({p for p, _ in fields.factorize(2 * abs(a * b))})
        assert oracles.brute_hilbert_product(a, b, primes) == 1
        assert global_symbol_product(Q, Q.rational(a), Q.rational(b)) == 1


def test_rank2_hyperbolic_iff_minus_det_square():
    rng = random.Random(53)
    for tower in (Q, Q2, Q23):
        for _ in range(30):
            a = rand_nonzero(tower, rng)
            b = rand_nonzero(tower, rng)
            form = forms.QuadraticForm(tower, [a, b])
            want, _ = is_square(-(a * b))
            assert is_hyperbolic(form) == want


def test_hyperbolic_examples():
    assert is_hyperbolic(forms.QuadraticForm(Q, [1, -1]))
    assert is_hyperbolic(forms.QuadraticForm(Q, [2, -2, 3, -3]))
    assert not is_hyperbolic(forms.QuadraticForm(Q, [1, -2]))
    assert not is_hyperbolic(forms.QuadraticForm(Q, [1, 1, -1, -1, 1, -2]))
    r2 = Q2.sqrt(2)
    assert is_hyperbolic(forms.QuadraticForm(Q2, [r2, -r2]))
    # signature balanced at every embedding but the determinant class is wrong
    assert not is_hyperbolic(forms.QuadraticForm(Q2, [Q2.one(), -r2]))
    assert is_hyperbolic(forms.QuadraticForm(Q15_21, [3, -3]))


def test_odd_rank_never_hyperbolic():
    assert not is_hyperbolic(forms.QuadraticForm(Q, [1, -1, 1]))


def test_hasse_invariant_against_symbol_definition():
    # a form and its entry list, and a form over a subfield read at a place
    # of a larger tower, at real, odd and dyadic places; at a real place the
    # symbol (a, b) is -1 exactly when a and b are both negative there
    def want(entries, tower, pl):
        out = 1
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                if pl.kind == "real":
                    sigma = tower.embeddings()[pl.eps_mask]
                    both = all(fields.sign_at(tower.coerce(c), sigma) < 0 for c in (a, b))
                    out *= -1 if both else 1
                else:
                    out *= hilbert_symbol_local(a, b, pl)
        return out

    rng = random.Random(61)
    for tower, sub in ((Q, Q), (Q2, Q), (Q23, Q2), (Q235, Q5)):
        for pl in real_places(tower) + splitting(tower, 2) + splitting(tower, 3):
            entries = [rand_nonzero(tower, rng) for _ in range(4)]
            expect = want(entries, tower, pl)
            assert hasse_invariant(forms.QuadraticForm(tower, entries), pl) == expect
            assert hasse_invariant(entries, pl) == expect
            small = forms.QuadraticForm(sub, [rand_nonzero(sub, rng) for _ in range(3)])
            assert hasse_invariant(small, pl) == want(small.diagonal, tower, pl)
            assert hasse_invariant(list(small.diagonal), pl) == want(small.diagonal, tower, pl)


def test_degenerate_forms_are_refused_at_every_place():
    # a zero entry used to count as positive at a real place
    for pl in (real_places(Q2)[0], splitting(Q2, 3)[0], splitting(Q2, 2)[0]):
        with pytest.raises(ValueError, match="degenerate"):
            hasse_invariant([0, -1], pl)
        with pytest.raises(ZeroDivisionError):
            hilbert_symbol_local(0, -1, pl)


def test_square_class_vector_refuses_a_real_place():
    # a caller's error, not an internal consistency failure (RuntimeError)
    with pytest.raises(ValueError, match="not finite"):
        square_class_vector(Q2.sqrt(2), real_places(Q2)[0])


def test_place_equality_hash_and_repr():
    K = make_field([2, 3])
    place = localfields.splitting(K, 5)[0]
    same = localfields.Place(K, "finite", 5, place.eps_mask, place.e, place.f)
    assert place == same and hash(place) == hash(same) and {place: 1}[same] == 1
    assert place != localfields.Place(K, "finite", 7, place.eps_mask, place.e, place.f)
    assert place.degree == place.e * place.f == 2
    assert repr(place) == (f"Place(5, Q(sqrt(2),sqrt(3)), e={place.e}, f={place.f}, "
                           f"signs={place.eps_mask:b})")
    real = localfields.real_places(K)[2]
    assert (real.kind, real.p, real.e, real.f) == ("real", None, 1, 1)
    assert repr(real) == "Place(real, Q(sqrt(2),sqrt(3)), signs=10)"
    assert real != localfields.real_places(K)[1]


def test_real_place_symbols_track_signs():
    t = Q2
    r2 = t.sqrt(2)
    x = r2 - t.rational(1)          # positive at identity, negative at conjugate
    pls = real_places(t)
    assert hilbert_symbol_local(x, x, pls[0]) == 1
    assert hilbert_symbol_local(x, x, pls[1]) == -1


def test_relevant_places_cover_odd_norm_primes():
    x = Q2.rational(21)
    pls = relevant_finite_places(Q2, [x])
    primes = {pl.p for pl in pls}
    assert {2, 3, 7} <= primes


def test_square_class_settles_after_exact_cancellation():
    # elements like -3*sqrt(3) in Q(sqrt(3)) reduce to 1 exactly inside the
    # dyadic class expression; the leftover junk digit must not be mistaken
    # for a unit with unresolvable valuation (regression: precision blowup)
    t = make_field([3])
    pl = splitting(t, 2)[0]
    r3 = t.sqrt(3)
    v3 = square_class_vector(r3, pl)
    vm1 = square_class_vector(t.rational(-1), pl)
    assert square_class_vector(t.rational(3), pl) == (0, 0, 0, 0)
    got = square_class_vector(r3 * -3, pl)
    assert got == tuple(a ^ b for a, b in zip(v3, vm1))
    rng = random.Random(7)
    for _ in range(60):
        x = rand_nonzero(t, rng, scale=9)
        y = rand_nonzero(t, rng, scale=9)
        vx = square_class_vector(x, pl)
        vy = square_class_vector(y, pl)
        assert square_class_vector(x * y, pl) == tuple(a ^ b for a, b in zip(vx, vy))


@pytest.mark.parametrize("tower,p", [(Q, 2), (Q2, 2), (Q23, 2), (Q5, 5), (Q2, 3)])
def test_pairing_matrix_check_raises_on_any_flipped_bit(tower, p):
    # explicit exceptions, not asserts, so the check also runs under python -O
    md = localfields._model(tower, p)
    rows = list(md.M_rows)
    try:
        md._validate_matrix()
        for i in range(md.dim):
            for j in range(md.dim):
                md.M_rows = list(rows)
                md.M_rows[i] ^= 1 << j
                with pytest.raises(RuntimeError):
                    md._validate_matrix()
    finally:
        md.M_rows = rows


# -- pinned dyadic tables ------------------------------------------------------

# (radicands, (e, f), square class basis, pairing rows, square class vectors of
# 20 seeded elements), one tower with g = 1 for each of the 15 nontrivial
# multiquadratic extensions of Q_2 (Q_2*/Q_2*^2 has order 8), and Q itself.
# The first six were recorded when construction and square class vectors
# still ran separate defect loops; the shared loop must reproduce them.
_DYADIC_TABLES = [
    ((), (1, 1), ['pi', 'D', '1+pi^1'],
     ['011', '100', '101'],
     '111 000 111 100 100 110 100 110 100 001 111 110 111 011 110 000 100 010 000 011'),
    ((2,), (2, 1), ['pi', 'D', '1+pi^1', '1+pi^3'],
     ['1110', '1000', '1011', '0010'],
     '0101 1000 0000 1101 0001 0010 0100 1010 0001 0111 1100 1011 0101 0101 1110 0011 0111 1111 '
     '0001 0011'),
    ((5,), (1, 2), ['pi', 'D', '1+pi^1', '1+pi^1*w'],
     ['0101', '1000', '0001', '1011'],
     '1010 1001 1000 1001 1110 0000 1100 0111 1110 1001 1011 0101 1010 1110 0101 1000 0000 0111 '
     '1010 0110'),
    ((2, 3), (4, 1), ['pi', 'D', '1+pi^1', '1+pi^3', '1+pi^5', '1+pi^7'],
     ['110000', '100000', '000111', '001010', '001100', '001000'],
     '010100 000000 010000 010000 010001 011011 010001 010010 011000 101011 010100 010101 010011 '
     '011011 000010 010101 000110 000011 001010 011011'),
    ((2, 5), (2, 2), ['pi', 'D', '1+pi^1', '1+pi^1*w', '1+pi^3', '1+pi^3*w'],
     ['010000', '100000', '000001', '000111', '000100', '001100'],
     '011001 000000 000010 000000 010010 110000 000001 010000 110010 110111 000010 011000 000010 '
     '100011 010000 001011 001001 010011 110001 110010'),
    ((2, 3, 5), (4, 2),
     ['pi', 'D', '1+pi^1', '1+pi^1*w', '1+pi^3', '1+pi^3*w', '1+pi^5', '1+pi^5*w', '1+pi^7',
      '1+pi^7*w'],
     ['0101000000', '1000000000', '0001010001', '1010011111', '0000010100', '0011101100',
      '0001010000', '0001110000', '0001000000', '0011000000'],
     '0010011110 0100000001 0100101010 0100000010 1010101011 0000100010 0110100010 1101011101 '
     '0100101010 0110101010 0000111011 0100000011 1111111001 0010000100 0010000000 0010001001 '
     '1010001011 1111101010 0010001000 0000100010'),
    # the other ten nontrivial multiquadratic extensions of Q_2, recorded with
    # the seeded norm sampler (oracles.sampled_rows)
    ((3,), (2, 1), ['pi', 'D', '1+pi^1', '1+pi^3'],
     ['1100', '1000', '0001', '0010'],
     '0111 0101 0111 0101 0110 1101 0110 0011 0010 1011 0101 0011 0111 0010 0111 1001 1110 0111 '
     '0011 1101'),
    ((6,), (2, 1), ['pi', 'D', '1+pi^1', '1+pi^3'],
     ['0110', '1000', '1011', '0010'],
     '0100 1100 0101 1001 0100 0110 0101 1011 0100 0010 1100 1110 0100 0000 1011 0010 0011 1110 '
     '0000 0011'),
    ((7,), (2, 1), ['pi', 'D', '1+pi^1', '1+pi^3'],
     ['0100', '1000', '0001', '0010'],
     '0110 0100 0010 0100 0111 1101 0011 0011 0011 1010 0000 0111 0110 0011 0011 1001 1011 0111 '
     '0010 1001'),
    ((10,), (2, 1), ['pi', 'D', '1+pi^1', '1+pi^3'],
     ['1110', '1000', '1011', '0010'],
     '0001 1100 0100 1001 0101 0110 0000 1010 0101 0111 1000 1011 0001 0001 1110 0011 0011 1111 '
     '0101 0111'),
    ((14,), (2, 1), ['pi', 'D', '1+pi^1', '1+pi^3'],
     ['0110', '1000', '1011', '0010'],
     '0000 1000 0001 1101 0000 0010 0001 1011 0000 0010 1000 1110 0000 0100 1011 0010 0111 1110 '
     '0100 0111'),
    ((2, 7), (4, 1), ['pi', 'D', '1+pi^1', '1+pi^3', '1+pi^5', '1+pi^7'],
     ['010000', '100000', '000111', '001010', '001100', '001000'],
     '000110 000000 000000 010000 010001 001000 000000 000011 011010 101000 000101 000110 '
     '000010 011001 010011 000111 010101 000011 001000 011000'),
    ((3, 5), (2, 2), ['pi', 'D', '1+pi^1', '1+pi^1*w', '1+pi^3', '1+pi^3*w'],
     ['010001', '100000', '000001', '000011', '000100', '101100'],
     '110101 001010 001000 001000 001010 010010 001010 000011 001010 000011 001010 101100 '
     '011011 001010 000001 111101 100010 000011 010000 010010'),
    ((3, 10), (4, 1), ['pi', 'D', '1+pi^1', '1+pi^3', '1+pi^5', '1+pi^7'],
     ['110000', '100000', '000111', '001010', '001100', '001000'],
     '000110 000000 010001 010001 010001 000001 001111 010011 001101 000011 010100 000111 '
     '000010 011111 010011 010111 001010 101011 001011 000001'),
    ((5, 6), (2, 2), ['pi', 'D', '1+pi^1', '1+pi^1*w', '1+pi^3', '1+pi^3*w'],
     ['010000', '100000', '000001', '000111', '000100', '001100'],
     '011001 000010 010000 010010 010000 010001 110000 000000 100000 000001 001000 001010 '
     '010000 110011 000000 001001 111101 111100 111011 010001'),
    ((6, 7), (4, 1), ['pi', 'D', '1+pi^1', '1+pi^3', '1+pi^5', '1+pi^7'],
     ['010000', '100000', '000111', '001010', '001100', '001000'],
     '000100 010000 000000 010000 010001 001011 010000 010011 011001 111100 010101 010100 '
     '000010 011010 010011 000101 000111 000011 011011 001011'),
]


@pytest.mark.parametrize("radicands,ef,basis,rows,vectors", _DYADIC_TABLES)
def test_dyadic_tables_are_pinned(radicands, ef, basis, rows, vectors):
    K = make_field(radicands)
    place = splitting(K, 2)[0]
    assert (place.e, place.f) == ef
    audit = localfields.local_audit(K, 2)
    assert audit["square_class_basis"] == basis
    assert ["".join(map(str, r)) for r in audit["pairing_matrix"]] == rows
    rng = random.Random(1030)
    got = [square_class_vector(rand_nonzero(K, rng, scale=40), place) for _ in range(20)]
    assert " ".join("".join(map(str, v)) for v in got) == vectors


# Towers in which 2 splits: (radicands, local class basis, (e, f, signs) per
# place, square class basis, pairing rows, square class vectors of 20 seeded
# elements times 2^k, k < 4, at each place, drawn in turn).  Recorded with the
# model that worked mod 2^N with a precision retry.
_SPLIT_DYADIC_TABLES = [
    ((17,), [], [(1, 1, '+'), (1, 1, '-')], ['pi', 'D', '1+pi^1'], ['011', '100', '101'],
     ['011 110 000 101 101 111 000 110 101 110 010 010 110 000 010 101 111 001 111 001',
      '010 010 101 100 111 001 001 101 001 110 110 111 110 111 101 011 101 010 000 010']),
    ((2, 17), [2], [(2, 1, '++'), (2, 1, '+-')], ['pi', 'D', '1+pi^1', '1+pi^3'],
     ['1110', '1000', '1011', '0010'],
     ['0010 0001 0100 0010 1100 1010 0000 0000 0000 0100 0011 1100 0011 0011 0111 0100 0110 '
      '0000 0111 1111',
      '1110 0101 1100 1110 0100 0010 1110 0101 0001 1000 1101 1111 0110 1110 0011 0100 1000 '
      '1001 0001 0100']),
    ((5, 13), [5], [(1, 2, '++'), (1, 2, '-+')], ['pi', 'D', '1+pi^1', '1+pi^1*w'],
     ['0101', '1000', '0001', '1011'],
     ['1000 0110 0000 1010 1010 1010 0100 0101 1101 0101 0010 1011 0010 0100 0000 0000 0001 '
      '0001 1010 1001',
      '1110 0010 1100 0100 1100 1101 1001 0001 0010 1111 1110 0101 1011 0110 1001 1111 1010 '
      '0010 1011 1100']),
    ((17, 41), [], [(1, 1, '++'), (1, 1, '-+'), (1, 1, '+-'), (1, 1, '--')],
     ['pi', 'D', '1+pi^1'], ['011', '100', '101'],
     ['100 011 000 001 111 111 010 000 110 100 011 101 010 101 010 001 011 000 101 110',
      '111 001 110 001 111 111 001 000 011 100 000 010 011 011 010 111 101 011 000 100',
      '001 101 011 101 100 101 100 111 011 001 111 110 111 100 001 110 111 110 010 001',
      '010 110 101 010 100 001 010 110 011 110 110 100 011 001 101 001 101 101 100 110']),
    # local generators 10 and 14: sqrt(19) = 2r/140 * sqrt(10)*sqrt(14) with r a
    # 2-adic unit, so the embedding multiplies by 2^2 to keep coordinates integral
    ((10, 14, 19), [10, 14], [(4, 1, '+++'), (4, 1, '-++')],
     ['pi', 'D', '1+pi^1', '1+pi^3', '1+pi^5', '1+pi^7'],
     ['110000', '100000', '000111', '001010', '001100', '001000'],
     ['010101 000000 000000 010101 010100 001010 100001 011010 001111 010100 000011 001110 '
      '111101 011101 010100 000001 000110 011111 000101 010000',
      '010011 000110 000100 100001 000000 010101 111000 000100 100111 011110 011000 101110 '
      '010111 001011 010010 000010 101110 001000 010101 011100']),
]


@pytest.mark.parametrize("radicands,gens,places,basis,rows,vectors", _SPLIT_DYADIC_TABLES)
def test_split_dyadic_tables_are_pinned(radicands, gens, places, basis, rows, vectors):
    K = make_field(radicands)
    audit = localfields.local_audit(K, 2)
    assert audit["local_class_basis"] == gens
    assert [(pl["e"], pl["f"], "".join("-" if s < 0 else "+" for s in pl["signs"]))
            for pl in audit["places"]] == places
    assert audit["square_class_basis"] == basis
    assert ["".join(map(str, r)) for r in audit["pairing_matrix"]] == rows
    rng = random.Random(1030)
    got = [" ".join("".join(map(str, square_class_vector(
                rand_nonzero(K, rng, scale=40) * 2 ** rng.randrange(4), pl)))
                    for _ in range(20))
           for pl in splitting(K, 2)]
    assert got == vectors


@pytest.mark.parametrize("radicands", [row[0] for row in _SPLIT_DYADIC_TABLES])
def test_hyperbolic_target_is_the_rational_symbol(radicands, monkeypatch):
    # is_hyperbolic's target at P above 2 is (-1,-1)_2^deg(P), built with no model
    K = make_field(radicands)
    minus_one = K.rational(-1)
    for P in splitting(K, 2):
        assert hilbert_symbol_local(minus_one, minus_one, P) == \
            hilbert_symbol_Q(-1, -1, 2) ** P.degree

    def refuse(*args):
        raise AssertionError("is_hyperbolic computed a symbol for its target")

    monkeypatch.setattr(localfields, "hilbert_symbol_local", refuse)
    a, b = K.rational(3) + K.sqrt(radicands[0]), K.rational(5)
    f = forms.QuadraticForm(K, [a, -a, b, -b])  # rank 4: the target is (-1,-1)
    assert is_hyperbolic(f)


def test_finite_hasse_target_is_read_off_the_prime():
    # finite_hasse_hyperbolic's target -1 exactly at p = 2 with t*deg(P)
    # odd, (-1,-1)_p being -1 at 2 and +1 at every odd p: no call to
    # hilbert_symbol_Q is left in it, and the closed form is the symbol's
    tree = ast.parse(pathlib.Path(localfields.__file__).read_text())
    node = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "finite_hasse_hyperbolic")
    called = {getattr(c.func, "id", None) or getattr(c.func, "attr", None)
              for c in ast.walk(node) if isinstance(c, ast.Call)}
    assert "hilbert_symbol_Q" not in called and "hasse_invariant" in called
    for p in (2, 3, 5, 7, 11, 13):
        for power in range(4):
            assert hilbert_symbol_Q(-1, -1, p) ** power == (-1 if p == 2 and power % 2 else 1)


@pytest.mark.parametrize("radicands,ef,g", [((6, 10, 14), (4, 2), 1), ((6, 7, 10), (4, 1), 2),
                                             ((3, 5, 7), (2, 2), 2)])
def test_pairing_rows_match_the_seeded_sampler(radicands, ef, g):
    K = make_field(radicands)
    md = localfields._model(K, 2)
    assert ((md.e, md.f), len(splitting(K, 2))) == (ef, g)
    assert md.M_rows == oracles.sampled_rows(md)


@pytest.mark.parametrize("radicands", [(2, 3, 5), (6, 10, 14)])
def test_dyadic_valuation_matches_the_conjugate_product_at_every_stage(radicands):
    # LocalModel.val reads v_2 off the integer norm of the stage numerators;
    # the probe checks it on stage elements as each stage is entered
    rng = random.Random(sum(radicands))
    stages = []

    class Probe(localfields.LocalModel):
        def _stage(self, nbits, e, f, pi, omega):
            super()._stage(nbits, e, f, pi, omega)
            stage = make_field(self.gens[:nbits])
            xs = [pi, self.mrat(12)] + [rand_nonzero(stage, rng, scale=40) * Fraction(
                rng.randint(1, 9), 2 ** rng.randrange(6)) for _ in range(30)]
            for x in (self.L.coerce(x) for x in xs):
                assert self.val(x) == oracles.stage_valuation(x, nbits, f)
            stages.append(nbits)

    md = Probe(localfields._local_structure(make_field(radicands), 2).gens, 2)
    assert stages == list(range(len(md.gens) + 1)) and len(md.gens) == 3
    md._nbits = 1  # the last generator lies outside the first stage
    with pytest.raises(RuntimeError, match="outside the current stage"):
        md.val(md.L.sqrt(md.gens[2]))


# generator sets on which the seeded sampler stopped short of the rank of the
# norm group ("norm group rank not reached")
_SAMPLER_FAILURES = [(7, 34, 38), (15, 26, 46), (11, 38, 42), (23, 34, 38)]


@pytest.mark.parametrize("radicands", _SAMPLER_FAILURES)
def test_product_formula_where_the_sampler_failed(radicands):
    # relevant_finite_places starts with the place above 2, so the dyadic
    # symbol is computed, not inferred by reciprocity
    K = make_field(radicands)
    place = splitting(K, 2)[0]
    assert localfields._local_structure(K, 2).gens == radicands
    assert (place.e, place.f, len(splitting(K, 2))) == (4, 2, 1)
    rng = random.Random(sum(radicands))
    for _ in range(20):
        a, b = rand_nonzero(K, rng, scale=1), rand_nonzero(K, rng, scale=1)
        assert relevant_finite_places(K, [a, b])[0] == place
        assert global_symbol_product(K, a, b) == 1


def _src_absolute_imports():
    """(file name, top-level module) of every absolute import in the package."""
    for path in sorted(pathlib.Path(localfields.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, n.split(".")[0]) for n in names)


def test_src_imports_no_random():
    # read the source: importing coxarith.cli loads random via concurrent.futures
    assert [f for f, top in _src_absolute_imports() if top == "random"] == []


def test_src_runtime_imports_are_stdlib_or_sympy():
    # the one runtime dependency is sympy; the rest is the standard library
    # or the package itself (relative imports)
    allowed = sys.stdlib_module_names | {"sympy"}
    assert [(f, top) for f, top in _src_absolute_imports() if top not in allowed] == []


def test_localfields_reads_signs_from_forms():
    # real-place Hasse invariants read QuadraticForm.negatives(), not sign_at
    tree = ast.parse(pathlib.Path(localfields.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    used = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert "sign_at" not in imported + used


def test_local_valuations_are_taken_on_ints():
    # one integer valuation (_split_val): a Fraction is built only for
    # hilbert_symbol_Q's rational arguments, LocalModel.val multiplies no
    # conjugates, and splitting reads _local_structure with no cache of its own
    tree = ast.parse(pathlib.Path(localfields.__file__).read_text())
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    builds_fraction = sorted(name for name, node in defs.items() if any(
        isinstance(c, ast.Call) and getattr(c.func, "id", None) == "Fraction"
        for c in ast.walk(node)))
    assert builds_fraction == ["hilbert_symbol_Q"]
    assert "conjugate" not in [node.attr for node in ast.walk(defs["val"])
                               if isinstance(node, ast.Attribute)]
    assert defs["splitting"].decorator_list == []


_IMPORT_FIRST = """
import coxarith.{first}
from coxarith import forms, localfields
from coxarith.fields import make_field

K = make_field([2])
print(localfields.is_hyperbolic(forms.QuadraticForm(K, [K.sqrt(2), -K.sqrt(2)])),
      localfields.hasse_invariant([-1, -1], localfields.real_places(K)[0]))
"""


@pytest.mark.parametrize("first", ["localfields", "forms"])
def test_forms_and_localfields_import_in_either_order(first):
    # localfields imports forms as a module and forms imports localfields
    src = os.path.dirname(os.path.dirname(localfields.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _IMPORT_FIRST.format(first=first)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "-1"]


def test_rational_symbol_refuses_inexact_arguments():
    # (0.1, 3)_3 read 0.1 at its binary value and gave -1; (1/10, 3)_3 is +1
    assert hilbert_symbol_Q(Fraction(1, 10), 3, 3) == 1
    for a in (0.1, True, "1/10"):
        with pytest.raises(TypeError):
            hilbert_symbol_Q(a, 3, 3)
        with pytest.raises(TypeError):
            hilbert_symbol_Q(3, a, "inf")


@pytest.mark.parametrize("p", [1, 0, -3, 4, 9])
def test_numbers_that_are_not_prime_are_refused(p):
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        hilbert_symbol_Q(2, 3, p)
    for tower in (Q, Q2):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            splitting(tower, p)
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            localfields.local_audit(tower, p)


# -- pinned odd tables ---------------------------------------------------------

# (radicands, p, local class basis, (e, f, signs) per place, pairing rows,
# square class vectors of 20 seeded elements at each place, drawn in turn).
# Recorded from the 64-digit p-adic model that odd places used before the
# tame closed form; the closed form must reproduce them.
_ODD_TABLES = [
    ((), 3, [], [(1, 1, '')], ['11', '10'],
     ['11 00 00 01 00 01 11 01 10 10 00 11 01 01 10 00 10 01 00 10']),
    ((), 7, [], [(1, 1, '')], ['11', '10'],
     ['00 00 01 00 00 01 01 01 01 01 01 01 10 01 00 00 01 01 00 11']),
    ((2,), 7, [], [(1, 1, '+'), (1, 1, '-')], ['11', '10'],
     ['00 01 01 10 11 01 00 00 11 00 00 01 01 00 01 00 00 01 00 00',
      '01 10 01 10 01 01 01 10 01 00 10 01 01 00 11 01 01 00 00 00']),
    ((2,), 3, [2], [(1, 2, '+')], ['01', '10'],
     ['10 01 01 10 11 10 00 00 00 10 00 01 00 01 10 00 10 10 10 00']),
    ((5,), 5, [5], [(2, 1, '+')], ['01', '10'],
     ['00 01 01 11 01 01 00 00 00 00 11 10 01 00 00 01 00 01 10 00']),
    ((3, 5), 3, [3, 5], [(2, 2, '++')], ['01', '10'],
     ['00 00 10 00 10 01 00 00 00 10 11 00 01 10 00 01 00 10 10 00']),
    ((2, 3), 5, [2], [(1, 2, '++'), (1, 2, '-+')], ['01', '10'],
     ['01 01 01 01 01 01 00 01 01 01 00 01 01 00 00 01 01 01 01 00',
      '01 01 00 10 00 01 00 00 01 01 00 00 00 00 01 00 01 01 00 01']),
    ((2, 3, 5), 7, [3], [(1, 2, '+++'), (1, 2, '-++'), (1, 2, '+-+'), (1, 2, '--+')],
     ['01', '10'],
     ['00 01 00 00 01 00 00 00 01 00 01 01 00 01 01 01 00 00 01 01',
      '01 01 01 01 00 11 00 00 01 01 01 01 00 01 00 00 00 00 00 00',
      '00 01 00 00 00 01 01 01 01 00 01 01 00 01 00 00 01 00 00 01',
      '01 00 01 01 00 00 00 00 00 00 00 00 01 01 01 00 01 01 00 01']),
]


@pytest.mark.parametrize("radicands,p,gens,places,rows,vectors", _ODD_TABLES)
def test_odd_tables_are_pinned(radicands, p, gens, places, rows, vectors):
    K = make_field(radicands)
    audit = localfields.local_audit(K, p)
    assert audit["local_class_basis"] == gens
    assert [(pl["e"], pl["f"], "".join("-" if s < 0 else "+" for s in pl["signs"]))
            for pl in audit["places"]] == places
    assert audit["square_class_basis"] == ["pi", "u"]
    assert ["".join(map(str, r)) for r in audit["pairing_matrix"]] == rows
    rng = random.Random(1030)
    got = [" ".join("".join(map(str, square_class_vector(rand_nonzero(K, rng, scale=40), pl)))
                    for _ in range(20))
           for pl in splitting(K, p)]
    assert got == vectors


# -- residue square roots ------------------------------------------------------


def test_residue_roots_against_brute_force():
    odd_primes = [p for p in range(3, 500, 2) if all(p % q for q in range(3, p, 2) if q * q <= p)]
    for p in odd_primes:
        roots: dict[int, int] = {}
        for r in range(p - 1, 0, -1):
            roots[r * r % p] = r  # ends at the smaller of r and p - r
        for a in range(1, p):
            if a in roots:
                assert localfields._hensel_sqrt(a, p, 1) == (0, roots[a])
            else:
                with pytest.raises(RuntimeError, match="not a square"):
                    localfields._hensel_sqrt(a, p, 1)


def test_dyadic_roots_are_correct_to_every_digit():
    # a root of u mod 2^(d+1) is fixed only mod 2^d, so the lift must run past d
    rng = random.Random(8)
    units = [1, 9, 17, 33, 41, -7, -15, 17 * 9]
    units += [(8 * rng.randrange(1, 10**6) + 1) * (8 * rng.randrange(10**6) + 1)
              for _ in range(30)]
    for u in units:
        _, deep = localfields._hensel_sqrt(u, 2, 80)
        for d in range(1, 40):
            for j in (0, 1, 3):
                k, r = localfields._hensel_sqrt(u * 4**j, 2, d)
                assert (k, r) == (j, deep % 2**d)
                assert (r * r - u) % 2 ** (d + 1) == 0


@pytest.mark.parametrize("p", [65537, 998244353, 3221225473])
def test_residue_roots_with_large_two_power_against_sympy(p):
    # p - 1 = 2^16, 119 * 2^23 and 3 * 2^30: Tonelli-Shanks runs its longest loops
    from sympy.ntheory.residue_ntheory import sqrt_mod

    rng = random.Random(p)
    for a in [1, p - 1, 2, 3] + [rng.randrange(1, p) for _ in range(60)]:
        want = sqrt_mod(a, p)
        if want is None:
            with pytest.raises(RuntimeError, match="not a square"):
                localfields._hensel_sqrt(a, p, 3)
            continue
        k, root = localfields._hensel_sqrt(a, p, 3)
        assert (k, root % p) == (0, min(want, p - want))
        assert (root * root - a) % p**3 == 0


# -- the dyadic model is built only at p = 2 ------------------------------------


def test_odd_places_never_build_a_p_adic_model(monkeypatch):
    # odd places are served by the tame closed form, which has no digits
    monkeypatch.setattr(localfields, "_MODELS", {})
    dyadic = localfields.LocalModel
    builds = []

    def counting(*args):
        builds.append(args)
        return dyadic(*args)

    monkeypatch.setattr(localfields, "LocalModel", counting)
    rng = random.Random(211)
    for tower, p in ((Q, 3), (Q2, 7), (Q5, 5), (Q23, 5), (Q15_21, 3), (Q235, 19997)):
        localfields.local_audit(tower, p)
        for pl in splitting(tower, p):
            a, b = rand_nonzero(tower, rng), rand_nonzero(tower, rng)
            hilbert_symbol_local(a, b, pl)
            hasse_invariant([a, b, a * b], pl)
            square_class_vector(a * p, pl)
        gens = localfields._local_structure(tower, p).gens
        assert not isinstance(localfields._MODELS[(gens, p)], dyadic)
    assert builds == []


# -- one completion per local field ---------------------------------------------


def _fresh_models(monkeypatch):
    monkeypatch.setattr(localfields, "_MODELS", {})


def test_towers_with_the_same_local_generators_share_one_completion(monkeypatch):
    # 21 and 33 are squares or the class of 3 mod 5, so Q(sqrt 3), Q(sqrt 3,
    # sqrt 7) and Q(sqrt 3, sqrt 11) all have the local generators (3,) at 5
    _fresh_models(monkeypatch)
    towers = [make_field([3]), make_field([3, 7]), make_field([3, 11])]
    assert {localfields._local_structure(K, 5).gens for K in towers} == {(3,)}
    md = localfields._model(towers[0], 5)
    assert all(localfields._model(K, 5) is md for K in towers[1:])
    assert localfields._MODELS == {((3,), 5): md}
    # the one completion table: no second one keyed by (tower, p)
    assert [name for name in vars(localfields) if name.endswith("MODELS")] == ["_MODELS"]


def test_a_shared_completion_keeps_each_towers_classes_apart(monkeypatch):
    # the same numerators name different elements of Q(sqrt 3, sqrt 7) and
    # Q(sqrt 3, sqrt 11); their square classes at 5, read through the one
    # completion both share, do not depend on which tower reached it first
    rng = random.Random(35)
    K7, K11 = make_field([3, 7]), make_field([3, 11])
    nums = [n for n in (tuple(rng.randint(-30, 30) for _ in range(4)) for _ in range(40)) if any(n)]

    def classes(order):
        _fresh_models(monkeypatch)
        return {(str(K), pl.eps_mask): [square_class_vector(fields.FieldElement(K, n), pl)
                                        for n in nums]
                for K in order for pl in splitting(K, 5)}

    first = classes([K7, K11])
    assert first == classes([K11, K7])
    assert len(first) == 4 and len({tuple(map(tuple, v)) for v in first.values()}) == 4


def _held(value):
    """Every object inside value, through dicts, lists and tuples (a Place
    is one)."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _held(k)
            yield from _held(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _held(v)
    else:
        yield value


def _census(seed: int) -> list:
    """The benchmark's census of `seed` (perfbench/census.py), read as it is."""
    bench = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("census", bench / "census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    with open(bench / "reference.json") as fh:
        return census.census(seed, json.load(fh)["pool"])


def test_a_cold_census_pass_builds_one_completion_per_local_field(monkeypatch):
    # the census of seed 7 reaches 27 local fields from 55 (tower, p) pairs:
    # each completion is built, and its pairing checked, once, and none
    # holds a tower (a LocalModel holds only L, the field of its generators);
    # transfers are checked above their source form's primes alone, so no
    # pair comes from the primes of a, K = F(sqrt a), by itself
    from coxarith.classify import classify_diagram
    from coxarith.diagrams import parse_diagram

    _fresh_models(monkeypatch)
    checked, pairs = [], set()
    honest, model = localfields._Completion._validate_matrix, localfields._model
    monkeypatch.setattr(localfields._Completion, "_validate_matrix",
                        lambda self: (checked.append(self), honest(self))[1])
    monkeypatch.setattr(localfields, "_model",
                        lambda tower, p: (pairs.add((tower, p)), model(tower, p))[1])
    for name, text in _census(7):
        classify_diagram(parse_diagram(text, name))
    models = list(localfields._MODELS.values())
    assert len(pairs) == 55
    assert len(models) == len(checked) == len(set(map(id, checked))) == 27
    for md in models:
        towers = {id(v.tower if isinstance(v, fields.FieldElement) else v) for v in _held(vars(md))
                  if isinstance(v, (fields.FieldTower, fields.FieldElement))}
        assert towers == ({id(md.L)} if md.p == 2 else set())


def test_outside_primes_of_2_to_the_64_are_refused_before_factoring(monkeypatch):
    # splitting, hilbert_symbol_Q and local_audit take a prime from outside
    def refuse(n):
        raise AssertionError(f"factored {n}")

    for module in (fields, localfields):
        monkeypatch.setattr(module, "factorize", refuse)
    for n in (2**64, (2**89 - 1) * (2**107 - 1)):
        for call in (lambda: splitting(Q2, n), lambda: hilbert_symbol_Q(2, 3, n),
                     lambda: localfields.local_audit(Q2, n)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"a prime takes values below 2^64, got {n}"


@pytest.mark.parametrize("p", [2.5, 3.9, "7", True, 5.0])
def test_outside_primes_that_are_no_exact_integers_are_refused_before_factoring(monkeypatch, p):
    # int() would read 3.9 as 3 and "7" as 7; a float, str or bool prime is
    # refused as fields._exact refuses a radicand, before anything is factored
    def refuse(n):
        raise AssertionError(f"factored {n}")

    for module in (fields, localfields):
        monkeypatch.setattr(module, "factorize", refuse)
    for call in (lambda: splitting(Q2, p), lambda: hilbert_symbol_Q(3, 5, p),
                 lambda: localfields.local_audit(Q2, p)):
        with pytest.raises(TypeError, match="expected integral value"):
            call()


def test_places_the_library_finds_above_2_to_the_64_need_no_gate():
    # a prime of a norm reaches its places unrefused, and so do their
    # symbols and the rational cross-check; only outside input is gated
    P = 2**64 + 13  # the least prime above 2^64; 2 and 3 are not squares mod P
    for K, degree in ((Q, 1), (Q2, 2)):
        pl = relevant_finite_places(K, [K.rational(P)])[-1]
        assert (pl.p, pl.degree) == (P, degree)
        want = (-1) ** degree  # (P, 3)_P = (3/P) = -1, to the local degree
        assert hasse_invariant([P, 3], pl) == want
        assert hilbert_symbol_local(K.rational(P), K.rational(3), pl) == want
        with pytest.raises(ValueError, match="a prime takes values below 2"):
            splitting(K, P)


_FLIPPED_RATIONAL_SYMBOL = """
import sys
from coxarith import localfields
from coxarith.fields import make_field

if __debug__:
    sys.exit("expected python -O")
Q = make_field([])
honest = localfields._symbol_at  # hilbert_symbol_Q past its gate
for p in (2, 3):
    place = localfields.splitting(Q, p)[0]
    a, b = Q.rational(-1), Q.rational(3)
    localfields.hilbert_symbol_local(a, b, place)
    localfields._symbol_at = lambda *args: -honest(*args)
    try:
        localfields.hilbert_symbol_local(a, b, place)
    except RuntimeError as exc:
        print(p, exc)
    localfields._symbol_at = honest
"""


def test_rational_cross_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(localfields.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", _FLIPPED_RATIONAL_SYMBOL], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "2 local symbol disagrees with rational formula",
        "3 local symbol disagrees with rational formula",
    ]
