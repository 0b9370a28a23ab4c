"""Diagonal quadratic forms over real multiquadratic towers.

A form is stored by its diagonal after exact congruence reduction of a
symmetric Gram matrix; only the diagonal is kept, not the transformation
that reaches it.  The reduction (_sym_diagonalize) runs on integer
numerator vectors over one common denominator, fraction-free in the
manner of Bareiss: each pivot is cleared with its integer adjugate, the
trailing block is divided by its content once per pivot, and a
FieldElement is built only for each diagonal entry.  Scaling numerators
and denominator together changes no element and no zero test, so the
diagonal is the one an elimination over FieldElement gives.  Isometry
over the field is decided by Witt cancellation: f and g are isometric
exactly when they have equal rank and f + (-g) is hyperbolic.
globally_isometric reads the real and determinant checks of that off f
and g, as classify.descend_field reads a transfer's off its source form,
and only the finite places go to localfields.finite_hasse_hyperbolic.

Every real-place question is read off one table per form, negatives():
its negative entries at each embedding, indexed by mask, with the signs
of each entry at every embedding certified at once (fields.signs).
signature_at, is_admissible, globally_isometric, is_hyperbolic,
real-place Hasse invariants and classify's witness and transfer fibre
test all read it.  Each form also keeps its determinant and one prime
set, primes(): 2 and the primes that divide the norms of its entries
(localfields._norm_primes, the routine of relevant_finite_places).  All
three are read off the form's own diagonal on first use; a derived form
(a transfer, or the sum f + (-g)) is a plain form that computes none of
them, and its finite places lie above the primes of the forms it comes
from: a transfer's above its source form's alone (classify.descend_field).

The transfer along a quadratic subextension K/F sends a rank-1 form <c>
to the rank-2 F-form with Gram [[v, u], [u, a*v]] where c = u + v*sqrt(a)
and a is the smallest squarefree generator of K over F; its determinant
is -Norm_{K/F}(c), so blocks never degenerate.  u and v are read straight
from the numerators of c: each basis element of K lies in F or in
F*sqrt(a), so each numerator moves to u or to v with an integer
multiplier (fields._over_subfield, one map per (K, F)).  Each block is
diagonalized in closed form on numerators, up to squares and with no
division: to <v, -v*Norm(c)> when v != 0, and to <1, -1> when v = 0.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Sequence

from . import fields, localfields
from .fields import (Embedding, FieldElement, FieldTower, _adjugate, _mul_nums, _norm_step,
                     _over_subfield, element_literal, signs)

__all__ = [
    "QuadraticForm",
    "signature_at",
    "transfer",
    "globally_isometric",
    "is_admissible",
]


class QuadraticForm:
    """A nondegenerate diagonal quadratic form <a_1,...,a_n> over a tower."""

    __slots__ = ("tower", "diagonal", "_negatives", "_det", "_primes")

    def __init__(self, tower: FieldTower, diagonal):
        diag = tuple(tower.coerce(c) for c in diagonal)
        if not all(diag):
            raise ValueError("degenerate form")
        self.tower = tower
        self.diagonal = diag
        self._negatives = None
        self._det = None
        self._primes = None

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def det(self) -> FieldElement:
        """The product of the diagonal, formed once on numerators and kept."""
        if self._det is None:
            nums, den = [1] + [0] * (self.tower.degree - 1), 1
            for c in self.diagonal:
                nums = _mul_nums(nums, c.nums, self.tower.basis_radicand)
                den *= c.den
            self._det = FieldElement(self.tower, tuple(nums), den)
        return self._det

    def negatives(self) -> tuple[int, ...]:
        """Negative entries at each real embedding, indexed by its mask;
        fields.signs runs once per entry, certifying its sign at every
        embedding together, and the table is kept."""
        if self._negatives is None:
            neg = [0] * self.tower.degree
            for c in self.diagonal:
                for m, s in enumerate(signs(c)):
                    if s < 0:
                        neg[m] += 1
            self._negatives = tuple(neg)
        return self._negatives

    def primes(self) -> frozenset[int]:
        """The primes of localfields.relevant_finite_places for the diagonal:
        2 and each prime dividing the norm of an entry's integral rescale,
        found on first use (localfields._norm_primes) and kept.  Forms built
        from this one (transfers, sums) read their finite places off it."""
        if self._primes is None:
            self._primes = localfields._norm_primes(self.tower, self.diagonal)
        return self._primes

    def literals(self) -> list[str]:
        return [element_literal(c) for c in self.diagonal]

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuadraticForm)
                and self.tower == other.tower and self.diagonal == other.diagonal)

    def __hash__(self) -> int:
        return hash((self.tower, self.diagonal))

    def __repr__(self) -> str:
        return "<" + ", ".join(self.literals()) + f"> over {self.tower}"


def _sym_diagonalize(M: Sequence[Sequence[Sequence[int]]], den: int,
                     tower: FieldTower) -> list[FieldElement]:
    """Exact congruence diagonalization of the symmetric A = M / den: D with
    T^t A T = diag(D); T is not formed.  Each entry M[i][j] is a sequence of
    integer numerators over the tower's basis, all over the one nonzero den;
    the entries are read as they are (diagrams._rescaled_gram writes them
    there) and never written to, and only the rows are copied.

    Step k takes a nonzero diagonal pivot, swapping one in if A[k][k] is
    zero, or else folds the first nonzero off-diagonal pair onto the
    diagonal (col_i += col_j and row_i += row_j, which puts
    A[i][i] + 2*A[i][j] + A[j][j] there).  Then the trailing block becomes
    its Schur complement A[i][j] - A[k][i] * A[k][j] / A[k][k] for
    k < i <= j (mirrored into A[j][i]), the congruence that the column
    operations col_j -= (A[k][j] / A[k][k]) * col_k would perform.

    The complement is taken fraction-free, in the manner of Bareiss's
    elimination (Math. Comp. 22, 1968): with the integer adjugate (Q, e) of
    the pivot, M[k][k] * Q = e (fields._adjugate: conjugate products, as in
    FieldElement.inverse),

        A[i][j] - A[k][i] * A[k][j] / A[k][k]
            = (e * M[i][j] - (M[k][i] * Q) * M[k][j]) / (den * e),

    so the block keeps one common denominator, den * e, and is divided by
    its content (the gcd of that denominator and all its numerators) once
    per pivot, not once per product.  Each product (M[k][i] * Q) * M[k][j]
    runs over the nonzero numerators of both factors alone, and those
    (mask, numerator) pairs are listed once per pivot: for each row entry
    M[k][j] and for each f = -M[k][i] * Q, not once per product.  On a
    degree-1 tower the entries are plain ints, Q = 1 and e = M[k][k].  The
    denominator may turn negative; FieldElement gives each D[k] a positive
    one.

    The diagonal is the one an elimination over FieldElement gives, element
    for element: every block is the same exact matrix, only written over
    another denominator; an entry is zero exactly when its numerators are,
    so the pivots, swaps and folds are the same; and D[k] = M[k][k] / den,
    read at step k, is brought to lowest terms by FieldElement.

    A may be singular: D then ends in zeros, and its nonzero entries number
    the rank of A.
    """
    n = len(M)
    flat = tower.degree == 1
    if flat:
        A = [[x[0] for x in row] for row in M]
        nonzero = bool

        def add(x, y):
            return x + y
    else:
        A = [list(row) for row in M]  # the entries themselves are never written to
        nonzero = any

        def add(x, y):
            return [s + t for s, t in zip(x, y)]
    for i in range(n):
        if len(A[i]) != n:
            raise ValueError("gram matrix is not square")
        for j in range(i):
            if A[i][j] != A[j][i]:
                raise ValueError("gram matrix is not symmetric")

    rad = tower.basis_radicand
    D: list[FieldElement] = []
    for k in range(n):
        if not nonzero(A[k][k]):
            piv = next((j for j in range(k + 1, n) if nonzero(A[j][j])), None)
            if piv is not None:
                i, j = k, piv
            else:
                pair = next(((i, j) for i in range(k, n)
                             for j in range(i + 1, n) if nonzero(A[i][j])), None)
                if pair is None:
                    break  # remaining block is identically zero
                i, j = pair
                for t in range(k, n):
                    A[t][i] = add(A[t][i], A[t][j])
                A[i] = [add(x, y) for x, y in zip(A[i], A[j])]
                j = k
            if i != j:  # swap indices i and j of the trailing block
                for t in range(k, n):
                    A[t][i], A[t][j] = A[t][j], A[t][i]
                A[i], A[j] = A[j], A[i]
        row = A[k]
        p = row[k]
        D.append(FieldElement(tower, (p,) if flat else tuple(p), den))
        if k == n - 1:
            break
        if flat:
            e = p
            for i in range(k + 1, n):
                Ai, f = A[i], row[i]
                for j in range(i, n):
                    Ai[j] = A[j][i] = e * Ai[j] - f * row[j]
            cells = (x for i in range(k + 1, n) for x in A[i][i:])
        else:
            Q, e = _adjugate(p, rad)
            Q = [-q for q in Q]  # f = -(M[k][i] * Q) is added into e * M[i][j]
            # nonzero (mask, numerator) pairs, once per pivot: of each row entry
            sup = [None] * (k + 1) + [[(T, y) for T, y in enumerate(row[j]) if y]
                                      for j in range(k + 1, n)]
            for i in range(k + 1, n):
                Ai = A[i]
                fs = sup[i] and [(S, y) for S, y in enumerate(_mul_nums(row[i], Q, rad)) if y]
                for j in range(i, n):
                    if fs and sup[j]:
                        x = [e * s for s in Ai[j]]
                        for S, a in fs:
                            for T, b in sup[j]:
                                x[S ^ T] += a * b * rad[S & T]
                    elif e != 1:
                        x = [e * s for s in Ai[j]]
                    else:
                        continue
                    Ai[j] = A[j][i] = x
            cells = chain.from_iterable(x for i in range(k + 1, n) for x in A[i][i:])
        den *= e
        g = gcd(den, *cells)
        if g != 1:
            den //= g
            for i in range(k + 1, n):
                Ai = A[i]
                for j in range(i, n):
                    Ai[j] = A[j][i] = Ai[j] // g if flat else [s // g for s in Ai[j]]
    return D + [tower.zero()] * (n - len(D))


def signature_at(form: QuadraticForm, sigma: Embedding) -> tuple[int, int]:
    """(positive, negative) entries at sigma, read off form.negatives()."""
    if sigma.tower is not form.tower:
        raise ValueError("embedding belongs to a different tower")
    neg = form.negatives()[sigma.mask]
    return form.rank - neg, neg


def transfer(form: QuadraticForm, F: FieldTower) -> QuadraticForm:
    """Scharlau transfer of a K-form to the index-2 subtower F.

    Entry c = u + v*sqrt(a) contributes <v, v*(a*v^2 - u^2)> when v != 0,
    whose second entry is the generic elimination's (a*v^2 - u^2)/v times
    the square v^2, and the hyperbolic plane <1, -1> when v = 0 (c lies in
    F), so no entry is divided.  The result is a plain form over F.
    """
    K = form.tower
    if F == K or not (F.subgroup_classes <= K.subgroup_classes) \
            or F.degree * 2 != K.degree:
        raise ValueError("transfer target is not an index-2 subtower")
    rad = F.basis_radicand
    one = F.one()
    diag = []
    for c in form.diagonal:
        a, u, v, den = _over_subfield(c, F)
        if any(v):  # v and v * -(u^2 - a*v^2), over den and den^3
            w = [-y for y in _norm_step(u, v, a, rad)]
            diag += [FieldElement(F, tuple(v), den),
                     FieldElement(F, tuple(_mul_nums(v, w, rad)), den ** 3)]
        else:
            diag += [one, -one]
    return QuadraticForm(F, diag)


def globally_isometric(f: QuadraticForm, g: QuadraticForm) -> bool:
    """K-isometry: f and g have equal rank and f + (-g) is hyperbolic.

    By Witt cancellation f = g exactly when f + (-g) is a sum of hyperbolic
    planes.  localfields.is_hyperbolic's real and determinant checks on that
    sum are read off f and g: with m = rank f = rank g, -c is negative
    exactly where c is positive, so the sum has neg_f[s] + m - neg_g[s]
    negatives at s, which is m exactly when f and g have equal tables, and
    its (-1)^m * det is det f * det g.  Only a sum that passes both is
    built, and localfields.finite_hasse_hyperbolic compares its Hasse
    invariants above f's and g's primes, the sum's own as N(-c) = +-N(c).
    """
    if f.tower != g.tower:
        raise ValueError("forms live over different towers")
    if f.rank != g.rank:
        return False
    if f.negatives() != g.negatives() or not fields.is_square(f.det() * g.det())[0]:
        return False
    return localfields.finite_hasse_hyperbolic(
        QuadraticForm(f.tower, f.diagonal + tuple(-c for c in g.diagonal)),
        f.primes() | g.primes())


def is_admissible(form: QuadraticForm) -> bool:
    """Signature (n,1) at the identity embedding, definite at all others."""
    neg = form.negatives()
    return neg[0] == 1 and all(k in (0, form.rank) for k in neg[1:])
