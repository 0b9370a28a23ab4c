"""Diagonalization, scaled trace transfer, global isometry, admissibility."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

import oracles
from coxarith import fields, forms, localfields
from coxarith.fields import is_square, make_field
from coxarith.forms import (
    QuadraticForm,
    globally_isometric,
    is_admissible,
    signature_at,
    transfer,
)

Q = make_field([])
Q2 = make_field([2])
Q23 = make_field([2, 3])
Q235 = make_field([2, 3, 5])


def rand_nonzero(tower, rng, scale=4):
    while True:
        x = tower.element([Fraction(rng.randint(-scale, scale),
                                    rng.choice((1, 2))) for _ in range(tower.degree)])
        if x:
            return x


def rand_symmetric(tower, rng, n):
    G = [[tower.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = tower.element([Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                               for _ in range(tower.degree)])
            G[i][j] = G[j][i] = x
    return G


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum((A[i][t] * B[t][j] for t in range(k)),
                 start=A[0][0].tower.zero()) for j in range(m)] for i in range(n)]


def transpose(A):
    return [list(row) for row in zip(*A)]


# -- diagonalization --------------------------------------------------------


def diagonalize(G, tower):
    """(form, T): the library's diagonal, checked against the oracle's
    congruence T^t G T = diag(D); ValueError on a singular G."""
    diag, T = oracles.congruence_diagonalize(G, tower)
    assert oracles.sym_diagonalize(G, tower) == diag
    return QuadraticForm(tower, diag), T


def test_congruence_is_exact():
    rng = random.Random(97)
    done = 0
    while done < 25:
        tower = rng.choice((Q, Q2, Q23))
        n = rng.randint(1, 5)
        G = rand_symmetric(tower, rng, n)
        try:
            form, T = diagonalize(G, tower)
        except ValueError:
            continue  # singular draw
        done += 1
        D = mat_mul(transpose(T), mat_mul(G, T))
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert D[i][j] == form.diagonal[i]
                else:
                    assert not D[i][j]


def test_diagonalize_handles_zero_diagonal_blocks():
    # hyperbolic plane: no nonzero diagonal entry to pivot on
    G = [[Q.zero(), Q.one()], [Q.one(), Q.zero()]]
    form, T = diagonalize(G, Q)
    assert localfields.is_hyperbolic(form)
    prod = form.diagonal[0] * form.diagonal[1]
    ok, _ = is_square(-prod)
    assert ok


def test_singular_gram_rejected():
    G = [[Q.one(), Q.one()], [Q.one(), Q.one()]]
    with pytest.raises(ValueError, match="degenerate"):
        diagonalize(G, Q)
    with pytest.raises(ValueError, match="degenerate"):
        QuadraticForm(Q, oracles.sym_diagonalize(G, Q))
    with pytest.raises(ValueError, match="degenerate"):
        QuadraticForm(Q, [1, 0, 2])


def singular_gram(tower, rng, blocks, n, isotropic):
    """(X^t B X, m, the signatures of B at every embedding), X of size m x n.

    B is block diagonal: "d" is a nonzero 1x1 entry, "h" a scaled
    hyperbolic plane [[0, c], [c, 0]].  X has the m unit vectors among its
    columns, so it has full row rank and X^t B X is congruent to B + 0: its
    rank is m and its signatures are B's.  With isotropic=True every column
    of X is a multiple of a unit vector of some plane (all blocks must be
    "h"), so the Gram has zero diagonal; otherwise the first column is
    isotropic whenever B has a plane.
    """
    entries, planes = [], []
    for kind in blocks:
        if kind == "d":
            entries.append([len(entries), len(entries), rand_nonzero(tower, rng)])
        else:
            p, c = len(entries), rand_nonzero(tower, rng)
            planes.append(p)
            entries += [[p, p + 1, c], [p + 1, p, c]]
    m = len(entries)  # one entry per coordinate
    B = [[tower.zero()] * m for _ in range(m)]
    for i, j, c in entries:
        B[i][j] = c
    unit = [[tower.rational(int(i == j)) for i in range(m)] for j in range(m)]
    cols = list(unit)
    while len(cols) < n:
        if isotropic:
            col = [tower.zero()] * m
            col[rng.randrange(m)] = rand_nonzero(tower, rng)
        else:
            col = [tower.element([Fraction(rng.randint(-2, 2)) for _ in range(tower.degree)])
                   for _ in range(m)]
        cols.append(col)
    rng.shuffle(cols)
    if planes and not isotropic:
        first = unit[planes[0]]
        cols.remove(first)
        cols.insert(0, first)
    X = transpose(cols)
    singles = [c for i, j, c in entries if i == j]
    sigs = []
    for sigma in tower.embeddings():
        pos = sum(1 for c in singles if fields.sign_at(c, sigma) > 0)
        sigs.append((pos + len(planes), len(singles) - pos + len(planes)))
    return mat_mul(transpose(X), mat_mul(B, X)), m, sigs


def test_sym_diagonalize_counts_the_rank_of_singular_grams():
    rng = random.Random(113)
    swaps = pairs = 0
    for tower in (Q, Q2, Q23):
        for blocks, extra in ((["d"], 2), (["d", "d"], 2), (["h"], 1), (["h"], 3),
                              (["d", "h"], 2), (["h", "d", "d"], 1), (["h", "h"], 2),
                              (["d", "d", "d"], 0)):
            for isotropic in ((False, True) if "d" not in blocks else (False,)):
                width = len(blocks) + blocks.count("h") + extra
                A, m, sigs = singular_gram(tower, rng, blocks, width, isotropic)
                n = len(A)
                if all(not A[i][i] for i in range(n)):
                    pairs += 1  # the hyperbolic-pair branch runs at step 0
                elif not A[0][0]:
                    swaps += 1  # the swap branch runs at step 0
                diag, T = oracles.congruence_diagonalize(A, tower)
                assert oracles.sym_diagonalize(A, tower) == diag
                D = [c for c in diag if c]
                assert len(D) == m, (tower, blocks, isotropic)
                TAT = mat_mul(transpose(T), mat_mul(A, T))
                for i in range(n):
                    for j in range(n):
                        assert TAT[i][j] == (diag[i] if i == j else tower.zero())
                form = QuadraticForm(tower, D)
                for sigma, sig in zip(tower.embeddings(), sigs):
                    assert signature_at(form, sigma) == sig
    assert swaps >= 6 and pairs >= 6

    # a zero pivot that only the Schur updates of the first pivots produce
    mid_swaps = mid_pairs = 0
    for tower in (Q, Q2, Q23):
        for lead in (1, 2):
            for kind, rank in (("swap", 3), ("swap", 2), ("pair", 2), ("late-pair", 2)):
                A, C = deferred_gram(tower, rng, lead, kind, rank)
                assert all(A[i][i] for i in range(len(A)))
                diag, T = oracles.congruence_diagonalize(A, tower)
                assert oracles.sym_diagonalize(A, tower) == diag
                assert sum(1 for c in diag if c) == lead + rank
                assert diag[:lead] == [A[i][i] for i in range(lead)]
                if kind == "swap":
                    # C[0][0] is zero, so step `lead` swaps C[1][1] in
                    assert diag[lead] == C[1][1]
                    mid_swaps += 1
                else:
                    # C's diagonal is zero: its first nonzero pair folds to twice its entry
                    p = 0 if kind == "pair" else 1
                    assert diag[lead] == C[p][p + 1] * 2
                    mid_pairs += 1
                n = len(A)
                TAT = mat_mul(transpose(T), mat_mul(A, T))
                for i in range(n):
                    for j in range(n):
                        assert TAT[i][j] == (diag[i] if i == j else tower.zero())
    assert mid_swaps >= 6 and mid_pairs >= 6


def deferred_gram(tower, rng, lead, kind, rank):
    """(A, C): A = [[D0, D0 X], [X^t D0, X^t D0 X + C]], D0 a positive
    rational diagonal of size `lead` and X an entrywise nonzero lead x 3.

    Eliminating the first `lead` pivots leaves exactly C, while every
    diagonal entry of A is totally positive (C's diagonal is zero or a
    positive rational).  C is 3x3 of the given rank with
    C[0][0] = 0: "swap" has C[1][1] != 0 (and C[2][2] != 0 at rank 3);
    "pair" is a plane on coordinates 0, 1 and "late-pair" one on 1, 2,
    both with zero diagonal.
    """
    z = tower.zero()
    b = rand_nonzero(tower, rng)
    c = tower.rational(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    if kind == "swap":
        last = tower.rational(rng.randint(1, 5)) if rank == 3 else z
        C = [[z, b, z], [b, c, z], [z, z, last]]
    elif kind == "pair":
        C = [[z, b, z], [b, z, z], [z, z, z]]
    else:
        C = [[z, z, z], [z, z, b], [z, b, z]]
    D0 = [tower.rational(rng.randint(1, 5)) for _ in range(lead)]
    X = [[rand_nonzero(tower, rng, scale=2) for _ in range(3)] for _ in range(lead)]
    n = lead + 3
    A = [[z] * n for _ in range(n)]
    for t in range(lead):
        A[t][t] = D0[t]
        for j in range(3):
            A[t][lead + j] = A[lead + j][t] = D0[t] * X[t][j]
    for i in range(3):
        for j in range(3):
            A[lead + i][lead + j] = C[i][j] + sum(
                (D0[t] * X[t][i] * X[t][j] for t in range(lead)), start=z)
    return A, C


def kernel_gram(tower, rng, n, kind):
    """A seeded symmetric n x n Gram over the tower: "dense" and "sparse"
    (about half its entries zero), "fold" with a zero diagonal, so that
    step 0 folds a pair, and "singular" = X^t B X of rank below n."""
    if kind == "singular":
        m = rng.randint(0, n - 1)
        B = [[rand_nonzero(tower, rng) if i == j else tower.zero() for j in range(m)]
             for i in range(m)]
        X = [[tower.rational(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        return mat_mul(transpose(X), mat_mul(B, X)) if m else \
            [[tower.zero()] * n for _ in range(n)]
    G = rand_symmetric(tower, rng, n)
    for i in range(n):
        for j in range(i, n):
            if kind == "fold" and i == j or kind == "sparse" and rng.random() < 0.5:
                G[i][j] = G[j][i] = tower.zero()
    return G


@pytest.mark.parametrize("rads", [(), (2,), (2, 3), (2, 3, 5)])
def test_integer_kernel_equals_the_field_elimination(rads):
    # the fraction-free kernel against the FieldElement elimination of the
    # oracle, entry by entry as (tower, nums, den), at degree 1, 2, 4 and 8
    tower = make_field(rads)
    rng = random.Random(2100 + tower.degree)
    seen = Counter()
    for trial in range(32):
        kind = ("dense", "sparse", "fold", "singular")[trial % 4]
        n = rng.randint(2, 6 if tower.degree < 8 else 5)
        G = kernel_gram(tower, rng, n, kind)
        want, _ = oracles.congruence_diagonalize(G, tower)
        got = oracles.sym_diagonalize(G, tower)
        assert [(c.tower, c.nums, c.den) for c in got] == \
            [(c.tower, c.nums, c.den) for c in want], (kind, G)
        # the same matrix over a denominator with a common factor left in
        den = lcm(*(x.den for row in G for x in row)) * 6
        M = [[tuple(v * (den // x.den) for v in x.nums) for x in row] for row in G]
        assert forms._sym_diagonalize(M, den, tower) == want
        seen[kind] += 1
        seen["rank<n"] += sum(1 for c in want if c) < n
    assert seen["fold"] == 8 and seen["rank<n"] >= 8


def test_integer_kernel_refuses_a_nonsymmetric_or_nonsquare_matrix():
    one, two, z = (1, 0), (2, 0), (0, 0)
    with pytest.raises(ValueError, match="not symmetric"):
        forms._sym_diagonalize([[one, one], [two, one]], 1, Q2)
    with pytest.raises(ValueError, match="not square"):
        forms._sym_diagonalize([[one, z], [z]], 1, Q2)
    with pytest.raises(ValueError, match="not symmetric"):
        forms._sym_diagonalize([[(1,), (1,)], [(3,), (1,)]], 2, Q)


# -- transfer ---------------------------------------------------------------


def test_transfer_of_unit_form_is_hyperbolic():
    s = transfer(QuadraticForm(Q2, [1]), Q)
    assert s.tower == Q and s.rank == 2
    assert localfields.is_hyperbolic(s)
    # 1 lies in Q, so its block is the hyperbolic plane itself
    assert [c.rational_value() for c in s.diagonal] == [1, -1]


def test_transfer_of_sqrt2_form_is_one_two():
    s = transfer(QuadraticForm(Q2, [Q2.sqrt(2)]), Q)
    assert [c.rational_value() for c in s.diagonal] == [1, 2]


def test_transfer_respects_witt_addition():
    rng = random.Random(101)
    for _ in range(10):
        a = rand_nonzero(Q2, rng)
        b = rand_nonzero(Q2, rng)
        s_ab = transfer(QuadraticForm(Q2, [a, b]), Q)
        s_a = transfer(QuadraticForm(Q2, [a]), Q)
        s_b = transfer(QuadraticForm(Q2, [b]), Q)
        joined = QuadraticForm(Q, list(s_a.diagonal) + list(s_b.diagonal))
        assert globally_isometric(s_ab, joined)


def test_frobenius_reciprocity_seeded():
    rng = random.Random(103)
    pairs = [(Q2, Q), (Q23, Q2), (Q23, make_field([6])), (Q235, Q23)]
    for K, F in pairs:
        for _ in range(8):
            g = QuadraticForm(F, [rand_nonzero(F, rng) for _ in range(rng.randint(1, 3))])
            s = transfer(QuadraticForm(K, g.diagonal), F)
            assert localfields.is_hyperbolic(s), (K, F, g.diagonal)


def block_transfer_diagonal(form, F):
    """Generic elimination of the transfer Gram, blocks in diagonal order.

    The block of <c> is the Gram of (x, y) -> s(c x y) on the basis
    {1, sqrt(a)} of K over F, with s the sqrt(a)-coordinate
    s(x) = (x - conj(x)) / (2 sqrt(a)); its corner s(c) is zero exactly
    when c lies in F.  Also returns whether a zero corner precedes a
    nonzero one, the one case where the elimination pivots out of order.
    """
    K = form.tower
    a = min(K.subgroup_classes - F.subgroup_classes)
    root = K.sqrt(a)
    sigma = next(t for t in oracles.fixing_embeddings(K, F) if t.mask != 0)

    def s(x):
        return ((x - oracles.conjugate(x, sigma)) / (root * 2)).express_in(F)

    basis = [K.one(), root]
    n = 2 * form.rank
    G = [[F.zero()] * n for _ in range(n)]
    for i, c in enumerate(form.diagonal):
        for j in range(2):
            for k in range(2):
                G[2 * i + j][2 * i + k] = s(c * basis[j] * basis[k])
    corners = [bool(G[i][i]) for i in range(0, n, 2)]
    reordered = any(not corners[i] and any(corners[i + 1:]) for i in range(len(corners)))
    return oracles.sym_diagonalize(G, F), reordered


def division_free_blocks(form, F, ref):
    """A reference transfer diagonal in the blocks <v, (a*v^2 - u^2)/v> and
    <2u, -u/2> (the entry lies in F), rewritten block by block to the ones
    `transfer` emits: [v, w] becomes [v, w*v^2], [2u, -u/2] becomes [1, -1]."""
    out = []
    for c, v, w in zip(form.diagonal, ref[0::2], ref[1::2]):
        try:
            u = c.express_in(F)
        except ValueError:
            out += [v, w * v * v]
        else:
            assert [v, w] == [u * 2, u * Fraction(-1, 2)]
            out += [F.one(), -F.one()]
    return out


def test_closed_form_transfer_matches_generic_elimination():
    rng = random.Random(109)
    reorders = 0
    for K in (Q2, Q23, Q235):
        for F in fields.subfields_index2(K):
            diagonals = [[rand_nonzero(K, rng) for _ in range(rng.randint(1, 3))]
                         for _ in range(2)]
            # entries from F (the v = 0 blocks): last, then first
            in_F = K.coerce(rand_nonzero(F, rng, scale=2))
            diagonals.append([rand_nonzero(K, rng), in_F, K.coerce(rand_nonzero(F, rng))])
            if K.r < 3:  # the isometry oracle needs local models of F
                diagonals.append([in_F, rand_nonzero(K, rng, scale=2)])
            for entries in diagonals:
                form = QuadraticForm(K, entries)
                got = transfer(form, F)
                want, reordered = block_transfer_diagonal(form, F)
                assert got.tower == F and got.rank == 2 * form.rank
                if reordered:
                    reorders += 1
                    assert globally_isometric(got, QuadraticForm(F, want)), (K, F, entries)
                else:
                    assert list(got.diagonal) == division_free_blocks(form, F, want), \
                        (K, F, entries)
    assert reorders >= 4


def test_transfer_matches_conjugate_oracle():
    # Q(sqrt6, sqrt10, sqrt14) has basis scales != 1 (alpha_{6,10} = 2 sqrt(15))
    # and classes t outside F with t*a carrying a square (6 * 14 = 4 * 21)
    Q6_10_14 = make_field([6, 10, 14])
    assert Q6_10_14.radicands == (6, 10, 14) and max(Q6_10_14.basis_scale) > 1
    rescaled = 0
    rng = random.Random(127)
    for K in (Q2, Q23, Q235, Q6_10_14):
        for F in fields.subfields_index2(K):
            a = min(K.subgroup_classes - F.subgroup_classes)
            rescaled += sum(1 for t in K.subgroup_classes - F.subgroup_classes
                            if gcd(t, a) > 1 and t != a)
            for _ in range(2):
                entries = [rand_nonzero(K, rng, scale=9) for _ in range(3)]
                # entries of F take the v = 0 branch
                entries.insert(rng.randint(0, 3), K.coerce(rand_nonzero(F, rng)))
                form = QuadraticForm(K, entries)
                got = transfer(form, F)
                want = oracles.conjugate_transfer(form, F)
                assert got.tower is F
                assert list(got.diagonal) == division_free_blocks(form, F, want), \
                    (K, F, entries)
    assert rescaled > 0


def test_transfer_needs_index_two_subfield():
    with pytest.raises(ValueError):
        transfer(QuadraticForm(Q235, [1]), Q)  # index 4
    with pytest.raises(ValueError):
        transfer(QuadraticForm(Q2, [1]), Q23)  # not a subfield


# -- global isometry --------------------------------------------------------


def test_isometry_invariance_under_congruence():
    rng = random.Random(107)
    done = 0
    while done < 12:
        tower = rng.choice((Q, Q2))
        n = rng.randint(2, 4)
        G = rand_symmetric(tower, rng, n)
        try:
            f, _ = diagonalize(G, tower)
        except ValueError:
            continue
        done += 1
        # re-diagonalize a shuffled congruent copy
        perm = list(range(n))
        rng.shuffle(perm)
        H = [[G[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        g, _ = diagonalize(H, tower)
        assert globally_isometric(f, g)


def test_isometry_examples_over_Q():
    def f(*entries):
        return QuadraticForm(Q, list(entries))

    assert globally_isometric(f(1, -1), f(2, -2))
    assert globally_isometric(f(1, 1), f(2, 2))
    assert not globally_isometric(f(1, 1), f(1, 2))     # determinant
    assert not globally_isometric(f(1, 1), f(1, -1))    # signature
    assert not globally_isometric(f(2, 3), f(1, 6))     # Hasse at 2
    assert globally_isometric(f(2, 3), f(18, 27))


def test_isometry_scaling_by_squares_of_the_field():
    r2 = Q2.sqrt(2)
    f = QuadraticForm(Q2, [-1, 1, 1, 3])
    g = QuadraticForm(Q2, [c * r2 * r2 for c in f.diagonal])
    assert globally_isometric(f, g)


# towers where 2 has one place, then towers where 2 splits (radicands 1 mod 8)
RECIPROCITY_TOWERS = [make_field([2]), make_field([3]), Q235,
                      make_field([17]), make_field([41]), make_field([2, 17])]


def rand_small(tower, rng):
    # integral coordinates in [-2, 2] keep norms small enough to factor fast
    while True:
        x = tower.element([rng.randint(-2, 2) for _ in range(tower.degree)])
        if x:
            return x


def totally_positive(tower, rng):
    t, u = rand_small(tower, rng), rand_small(tower, rng)
    return t * t + u * u


def product(xs):
    out = xs[0]
    for x in xs[1:]:
        out = out * x
    return out


def reciprocity_case(tower, rng, kind, isometric):
    """(shortcut, oracle, differences) for a drawn isometry pair or
    hyperbolicity candidate that agrees with its partner in rank, det class
    and real signatures; each entry is scaled by a totally positive element,
    or by a square when isometric is set."""
    n = rng.randint(2, 3)
    a = [rand_small(tower, rng) for _ in range(n)]
    if isometric:
        s = [rand_small(tower, rng) ** 2 for _ in range(n)]
    else:
        s = [totally_positive(tower, rng) for _ in range(n - 1)]
        s.append(product(s))  # the product of s is a square
    if kind == "isometry":
        f = QuadraticForm(tower, a)
        g = QuadraticForm(tower, [x * y for x, y in zip(a, s)][::-1])
        return (lambda: globally_isometric(f, g), lambda: oracles.all_places_isometric(f, g),
                lambda places=None: oracles.isometry_differences(f, g, places))
    f = QuadraticForm(tower, [c for x, y in zip(a, s) for c in (x, -x * y)])
    return (lambda: localfields.is_hyperbolic(f), lambda: oracles.all_places_hyperbolic(f),
            lambda places=None: oracles.hyperbolic_differences(f, places))


@pytest.mark.parametrize("tower", RECIPROCITY_TOWERS, ids=str)
def test_reciprocity_shortcut_matches_all_places_oracle(tower):
    # only Hasse invariants can tell the drawn forms apart, at an even number
    # of places; when the first place above 2, which the shortcut leaves to
    # Hilbert reciprocity, is one of exactly two, the other must decide, and
    # where 2 splits that other place is sometimes the second place above 2
    rng = random.Random(4091 + sum(tower.radicands))
    dyadic = localfields.splitting(tower, 2)
    verdicts, caught = Counter(), Counter()
    for k in range(400):
        kind = ("isometry", "hyperbolic")[k % 2]
        drawn_both = min(verdicts[kind, v] for v in (True, False)) >= 2
        if drawn_both and caught[kind] and (caught["above 2"] or len(dyadic) == 1):
            continue
        shortcut, oracle, differences = reciprocity_case(tower, rng, kind, k % 6 < 2)
        if drawn_both and not differences(dyadic[:1]):
            continue  # only cases that differ at the first place above 2 are still wanted
        diff = differences()
        assert len(diff) % 2 == 0
        assert shortcut() == oracle() == (not diff)
        verdicts[kind, not diff] += 1
        if len(diff) == 2 and diff[0] == dyadic[0]:
            caught[kind] += 1
            caught["above 2"] += diff[1] in dyadic
    assert min(verdicts.values()) >= 2 and len(verdicts) == 4
    assert caught["isometry"] and caught["hyperbolic"]
    assert caught["above 2"] or len(dyadic) == 1


def one_place_negative(tower, sigma, rng):
    """A drawn element negative at the embedding sigma only."""
    while True:
        t = rand_small(tower, rng)
        if all((fields.sign_at(t, tau) < 0) == (tau == sigma) for tau in tower.embeddings()):
            return t


def invariant_gap_pair(tower, rng, kind):
    """A drawn pair (f, g) that differs only in rank, only in the signature
    at one non-identity embedding, or only in determinant class; or, for
    kind "isometric", g is f reversed with entries scaled by squares."""
    a = [rand_small(tower, rng) for _ in range(rng.randint(2, 3))]
    if kind == "rank":
        return a, a + [rand_small(tower, rng) ** 2]
    if kind == "isometric":
        return a, [x * rand_small(tower, rng) ** 2 for x in a][::-1]
    if kind == "signature":
        sigma = rng.choice(tower.embeddings()[1:])
        while fields.sign_at(a[1], sigma) != fields.sign_at(a[0], sigma):
            a[1] = rand_small(tower, rng)
        t = one_place_negative(tower, sigma, rng)  # t^2 keeps the det class
        return a, [a[0] * t, a[1] * t] + a[2:]
    t = totally_positive(tower, rng)
    while is_square(t)[0]:
        t = totally_positive(tower, rng)
    return a, [a[0] * t] + a[1:]


@pytest.mark.parametrize("tower", [Q2, make_field([17]), Q235], ids=str)
def test_isometry_where_rank_signature_or_determinant_differ(tower):
    # pairs that the reciprocity test never draws: the verdict must rest on
    # is_hyperbolic's rank, signature and determinant checks of f + (-g),
    # and unequal ranks must return False before any form is built
    rng = random.Random(5003 + sum(tower.radicands))
    for kind in ("rank", "signature", "determinant", "isometric"):
        for _ in range(2):
            a, b = invariant_gap_pair(tower, rng, kind)
            f, g = QuadraticForm(tower, a), QuadraticForm(tower, b)
            sigs = [signature_at(f, s) != signature_at(g, s) for s in tower.embeddings()]
            assert (f.rank != g.rank) == (kind == "rank")
            if kind != "rank":
                assert (sum(sigs) == 1 and not sigs[0]) == (kind == "signature")
                assert (not is_square(f.det() * g.det())[0]) == (kind == "determinant")
            want = kind == "isometric"
            assert globally_isometric(f, g) is globally_isometric(g, f) is want, (kind, a, b)
            assert oracles.all_places_isometric(f, g) == oracles.all_places_isometric(g, f) == want

def test_isometry_needs_same_tower():
    with pytest.raises(ValueError):
        globally_isometric(QuadraticForm(Q, [1]), QuadraticForm(Q2, [1]))


# -- admissibility ----------------------------------------------------------


def test_admissibility_over_Q_is_just_signature():
    assert is_admissible(QuadraticForm(Q, [-1, 1, 1]))
    assert is_admissible(QuadraticForm(Q, [1, -2, 3]))
    assert not is_admissible(QuadraticForm(Q, [1, 1, 1]))
    assert not is_admissible(QuadraticForm(Q, [-1, -1, 1]))


def test_admissibility_needs_definite_conjugates():
    r2 = Q2.sqrt(2)
    one = Q2.one()
    # 1 - sqrt2 < 0 at the identity, 1 + sqrt2 > 0 at the conjugate
    good = QuadraticForm(Q2, [one - r2, one, one])
    assert is_admissible(good)
    bad = QuadraticForm(Q2, [-1, 1, 1])  # conjugate also indefinite
    assert not is_admissible(bad)


def test_cleared_entries_square_class_and_integrality():
    rng = random.Random(109)
    for tower in (Q2, Q23):
        for _ in range(10):
            x = rand_nonzero(tower, rng)
            f = QuadraticForm(tower, [x])
            (y,) = [fields.integral_rescale(c) for c in f.diagonal]
            ok, _ = is_square(x * y)
            assert ok
            assert fields.is_algebraic_integer(y)


def test_signature_at_rejects_another_towers_embedding():
    f = QuadraticForm(Q23, [Q23.sqrt(2), -1, Q23.sqrt(3)])
    assert [signature_at(f, s) for s in Q23.embeddings()] == [(2, 1), (1, 2), (1, 2), (0, 3)]
    # same masks, another tower: an unchecked table lookup would answer
    for foreign in (make_field([2, 5]).embeddings()[1], Q2.embeddings()[1]):
        with pytest.raises(ValueError, match="different tower"):
            signature_at(f, foreign)


def test_each_sign_is_certified_once_per_form(monkeypatch):
    # negatives() certifies each entry's signs at every embedding in one
    # fields.signs call, so a form costs one call per entry
    calls = Counter()
    real = fields.signs

    def counting(x):
        calls[x] += 1
        return real(x)

    monkeypatch.setattr(forms, "signs", counting)
    rng = random.Random(127)
    f = QuadraticForm(Q235, [rand_nonzero(Q235, rng) for _ in range(4)])
    for _ in range(2):
        is_admissible(f)
        for sigma in Q235.embeddings():
            signature_at(f, sigma)
        localfields.is_hyperbolic(f)
    assert sum(calls.values()) == f.rank
    assert f.negatives() == tuple(sum(1 for c in f.diagonal if fields.sign_at(c, s) < 0)
                                  for s in Q235.embeddings())
    # globally_isometric reads the real check of f + (-g) off f's and g's
    # tables: g's signs are certified once and the sum's never, and the
    # verdict is that of the sum with every sign certified
    two = Q235.rational(2)
    verdicts = []
    for g in (QuadraticForm(Q235, [c * two * two for c in reversed(f.diagonal)]),
              QuadraticForm(Q235, [rand_nonzero(Q235, rng) for _ in range(4)])):
        calls.clear()
        got = [globally_isometric(f, g) for _ in range(2)]
        assert set(calls) == set(g.diagonal)
        assert sum(calls.values()) == g.rank
        monkeypatch.setattr(forms, "signs", real)
        total = QuadraticForm(Q235, f.diagonal + tuple(-c for c in g.diagonal))
        assert got == [localfields.is_hyperbolic(total)] * 2
        monkeypatch.setattr(forms, "signs", counting)
        verdicts.append(got[0])
    assert verdicts == [True, False]


def test_isometry_builds_a_plain_sum_past_the_real_and_determinant_checks(monkeypatch):
    # globally_isometric reads the real and determinant checks of f + (-g)
    # off f and g, so the sum that reaches the finite places has no table
    # of negatives and no determinant of its own, and each verdict is
    # is_hyperbolic's on the same sum built fresh
    sums = []
    real = localfields.finite_hasse_hyperbolic

    def recording(form, primes):
        sums.append((form._negatives, form._det))
        return real(form, primes)

    monkeypatch.setattr(localfields, "finite_hasse_hyperbolic", recording)
    rng = random.Random(139)
    cases = []
    four = Q.rational(4)
    for tower in (Q, Q2, Q23, Q235):
        for rank in (1, 2, 3, 4):
            f = QuadraticForm(tower, [rand_nonzero(tower, rng) for _ in range(rank)])
            g = QuadraticForm(tower, [rand_nonzero(tower, rng) for _ in range(rank)])
            for h in (g, QuadraticForm(tower, [-c for c in f.diagonal]),
                      QuadraticForm(tower, [c * four for c in reversed(f.diagonal)])):
                cases.append((f, h, globally_isometric(f, h)))
    monkeypatch.undo()
    assert len(sums) >= 16 and sums == [(None, None)] * len(sums)
    for f, h, got in cases:
        total = QuadraticForm(f.tower, f.diagonal + tuple(-c for c in h.diagonal))
        assert got == localfields.is_hyperbolic(total), (f, h)
    assert sum(got for *_, got in cases) >= 16


def test_square_class_oracle_agreement_quadratic():
    """Library square test vs the norm-equation oracle over Q(sqrt d)."""
    rng = random.Random(113)
    for d in (2, 3, 5):
        t = make_field([d])
        for _ in range(40):
            c0 = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            c1 = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            x = t.element([c0, c1])
            if not x:
                continue
            want = oracles.is_square_quadratic(c0, c1, d)
            got, wit = is_square(x)
            assert got == want
            if got:
                assert wit * wit == x
