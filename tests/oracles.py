"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own symbol machinery: a Hilbert
symbol (a,b)_p is +1 exactly when z^2 = a x^2 + b y^2 has a primitive
solution over Z_p, which for bounded valuations is equivalent to a
primitive solution modulo p^k for a fixed small k (Hensel lifting needs a
variable whose partial derivative has valuation at most 1 for odd p, at
most 2 for p = 2; v_p(a), v_p(b) <= 1 keeps us inside that range with
k = 3 respectively k = 7).

Two references for the field layer live here as well: the determinant
identity of the multiquadratic basis (`basis_det_check`, criterion 6) and
dense Fraction-vector arithmetic that `coxarith.fields` is compared with.

The isometry and hyperbolicity references (`all_places_isometric`,
`all_places_hyperbolic`) do use the library's per-place Hasse invariants,
but compare them at every relevant finite place; the library leaves the
first place above 2 to Hilbert reciprocity.

`conjugate_transfer` is the Scharlau transfer through the Galois conjugate
that fixes the subfield (`fixing_embeddings`) and two changes of tower, the
reference for the library's numerator split.

`is_square`, `rational_square_classes` and `is_algebraic_integer` are the
norm descents that once stood in `coxarith.fields`, recursive over
`FieldElement` products: the references for the library's descent on
integer numerators, witness for witness.

`minimal_polynomial` is the monic minimal polynomial over Q, formed from
the distinct Galois conjugates; it is the reference for the library's
integrality test by descent down the tower.

`bernoulli_recurrence` is the recursive Fraction sum that once gave
`lvalues.bernoulli`, the reference for its reading off the tangent numbers;
`em_coefficients_reference` builds the Euler-Maclaurin data from it.
`hurwitz_zeta_fraction` is the Euler-Maclaurin Hurwitz zeta summed in exact
Fractions over `bernoulli_recurrence`, the reference for the library's
fixed-point sum: same N, same remainder bound, no rounding.
`hurwitz_radius_fraction` is the library's stop rule and ball radius in
Fractions, the reference for its integer comparison.

`zeta3_direct_loop` and `l_chi8_direct_loop` are the direct Dirichlet sums
term by term (one floor division of 10^40 by n^3 per term, the character
sum in blocks of 8), the references for the library's shared pass.

`bounded_model_search` is the rational model search that once stood in
`classify.find_admissible_model`: squarefree a from the prime support of
N(det f) and of the radicands (at most 12 primes), then 1..bound.  It is the
reference for the library's reading of a off the determinant's square class.

`sym_diagonalize` and `rescaled_gram` are the library's integer-vector
elimination and rescaled Gram matrix on `FieldElement` matrices: the first
writes its input over one common denominator, the second reads its output
back as elements.  `rescaled_gram_by_elements` is the same matrix built
with one `FieldElement` product per step, and its field by
`minimal_field_of`: the reference for the integer construction.
`support_classes` and `minimal_field_of` once stood in `coxarith.fields`:
the square classes of an element's nonzero basis terms, and the tower
they generate.
`simple_cycles` and `cycle_product` once stood in `coxarith.diagrams`;
they are the cycle-product reference for the trace field.
`parse_diagram_reference`, `parse_weight_reference` and
`rescaled_gram_reference` are the diagram intake as it stood in
`coxarith.diagrams` before it was made lean (its own weight tokenizer, a
sign certified at every embedding, cells in a dict): the references for the
library's tower, entries, error messages and (M, den, K).

`stage_valuation` is the dyadic valuation at a stage of a local model as
`LocalModel.val` once computed it: v_2 of the product of an element and
its conjugates under the stage's radicands, one `FieldElement` product
per radicand.  It is the reference for the library's integer norm.

`sampled_rows` is the seeded norm sampler that once found the dyadic pairing
rows: up to 1,200 norms s^2 - b*t^2 per row, from a fixed base list and then
random s, t, until the norm classes reach rank dim - 1.  It is the reference
for the library's fixed norm family, and it can fail where the family does not.
"""

import itertools
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm

import numpy as np
from coxarith import diagrams, fields, forms, localfields
from coxarith.fields import FieldElement, element_literal, factorize, squarefree_part
from coxarith.forms import QuadraticForm, signature_at
from coxarith.lvalues import _CHI8, _EM_TERMS, _GUARD_DIGITS, Ball


def _rising(s: int, m: int) -> int:
    """The rising factorial (s)_m = s (s + 1) ... (s + m - 1), term by term."""
    out = 1
    for t in range(m):
        out *= s + t
    return out


def _strip_squares(n: int, p: int) -> int:
    """Remove p^2 factors so the valuation is 0 or 1 (sign preserved)."""
    while n % (p * p) == 0:
        n //= p * p
    return n


def brute_hilbert_Qp(a: int, b: int, p: int) -> int:
    """(a, b)_p by enumerating z^2 = a x^2 + b y^2 mod p^k, primitively."""
    assert a and b
    a, b = _strip_squares(a, p), _strip_squares(b, p)
    k = 7 if p == 2 else 3
    q = p**k
    xs = np.arange(q, dtype=np.int64)
    sq = (xs * xs) % q
    issq = np.zeros(q, dtype=bool)
    issq[sq] = True
    unit_mask = (xs % p) != 0
    issq_unit = np.zeros(q, dtype=bool)
    issq_unit[sq[unit_mask]] = True
    vals = (a % q) * sq[:, None] + (b % q) * sq[None, :]  # a x^2 + b y^2
    vals %= q
    # x a unit (any z), or y a unit (any z), or x,y divisible (needs z a unit)
    if issq[vals[unit_mask, :]].any():
        return 1
    if issq[vals[:, unit_mask]].any():
        return 1
    div = ~unit_mask
    if issq_unit[vals[np.ix_(div, div)]].any():
        return 1
    return -1


def brute_hilbert_R(a, b) -> int:
    """Real place: -1 exactly when both arguments are negative."""
    return -1 if a < 0 and b < 0 else 1


def brute_hilbert_product(a: int, b: int, primes) -> int:
    out = brute_hilbert_R(a, b)
    for p in primes:
        out *= brute_hilbert_Qp(a, b, p)
    return out


# -- ramified dyadic enumeration: O = Z_2[sqrt(2)] -------------------------


def _zsqrt2_mul(x, y, c0mod, c1mod):
    a0, a1 = x
    b0, b1 = y
    return ((a0 * b0 + 2 * a1 * b1) % c0mod, (a0 * b1 + a1 * b0) % c1mod)


def brute_hilbert_Q2_sqrt2(a, b) -> int:
    """(a, b) at the ramified place over 2 of Q(sqrt(2)).

    Arguments are pairs (r0, r1) meaning r0 + r1*sqrt(2) with small integer
    valuation.  Enumerates z^2 = a x^2 + b y^2 over O/pi^9, pi = sqrt(2),
    demanding a solution with some coordinate a unit.
    """
    # O/pi^9: c0 mod 2^5, c1 mod 2^4
    c0mod, c1mod = 32, 16
    elems = [(c0, c1) for c0 in range(c0mod) for c1 in range(c1mod)]
    squares = {}
    for z in elems:
        squares.setdefault(_zsqrt2_mul(z, z, c0mod, c1mod), []).append(z)

    def unit(x):
        return x[0] % 2 == 1  # v(c0 + c1 sqrt2) = 0 iff c0 odd

    for x in elems:
        x2 = _zsqrt2_mul(x, x, c0mod, c1mod)
        ax2 = _zsqrt2_mul(a, x2, c0mod, c1mod)
        for y in elems:
            y2 = _zsqrt2_mul(y, y, c0mod, c1mod)
            by2 = _zsqrt2_mul(b, y2, c0mod, c1mod)
            val = ((ax2[0] + by2[0]) % c0mod, (ax2[1] + by2[1]) % c1mod)
            for z in squares.get(val, ()):
                if unit(x) or unit(y) or unit(z):
                    return 1
    return -1


# -- slow exact square test in Q(sqrt(d)) ----------------------------------


def is_square_quadratic(c0: Fraction, c1: Fraction, d: int) -> bool:
    """Whether c0 + c1 sqrt(d) is a square in Q(sqrt(d)), by the norm trick.

    x = (u + v sqrt(d))^2 needs N = c0^2 - d c1^2 a rational square, then
    u^2 = (c0 +- sqrt(N)) / 2 rational square for one choice of sign.
    """
    if c1 == 0:
        return c0 >= 0 and _is_rat_square(c0)
    n = c0 * c0 - d * c1 * c1
    if n < 0 or not _is_rat_square(n):
        return False
    r = _rat_sqrt(n)
    for s in (r, -r):
        half = (c0 + s) / 2
        if half > 0 and _is_rat_square(half):
            u = _rat_sqrt(half)
            v = c1 / (2 * u)
            if u * u + d * v * v == c0 and 2 * u * v == c1:
                return True
    return False


def _is_rat_square(q: Fraction) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    return (isqrt(q.numerator) ** 2 == q.numerator
            and isqrt(q.denominator) ** 2 == q.denominator)


def _rat_sqrt(q: Fraction) -> Fraction:
    q = Fraction(q)
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


# -- the FieldElement descents that coxarith.fields runs on numerators --------


def _rational_square(q: Fraction) -> tuple[bool, Fraction | None]:
    if q < 0:
        return False, None
    if q == 0:
        return True, q
    n = q.numerator * q.denominator
    s = isqrt(n)
    if s * s != n:
        return False, None
    return True, Fraction(s, q.denominator)


def _split_top(x: FieldElement):
    """x = u + v*sqrt(d) with u, v over the prefix tower, d the top radicand."""
    tower = x.tower
    sub = fields.make_field(tower.radicands[:-1])
    half = sub.degree
    return (FieldElement(sub, x.nums[:half], x.den), FieldElement(sub, x.nums[half:], x.den),
            tower.radicands[-1], sub)


def _embed_up(x: FieldElement, tower, with_root: bool) -> FieldElement:
    """Lift an element of the prefix tower, optionally multiplied by sqrt(top)."""
    pad = (0,) * len(x.nums)
    return FieldElement(tower, pad + x.nums if with_root else x.nums + pad, x.den)


def is_square(x):
    """fields.is_square as a recursive norm descent over FieldElement: in
    K = F(sqrt(d)), x = u + v*sqrt(d) is a square iff u^2 - d*v^2 is a
    square s^2 in F and a branch (u +- s)/2 is a square p^2 in F; then
    (p + (v/2p)*sqrt(d))^2 = x.  Every witness is checked by multiplying it
    out."""
    if isinstance(x, (int, Fraction)):
        ok, w = _rational_square(Fraction(x))
        return ok, (fields.make_field([]).rational(w) if ok else None)
    tower = x.tower
    if tower.r == 0:
        ok, w = _rational_square(x.rational_value())
        return ok, (tower.rational(w) if ok else None)
    if not x:
        return True, tower.zero()
    u, v, d, sub = _split_top(x)
    if not v:
        ok, p = is_square(u)
        if ok:
            w = _embed_up(p, tower, False)
            assert w * w == x
            return True, w
        ok, p = is_square(u * d)
        if ok:
            w = _embed_up(p * Fraction(1, d), tower, True)
            assert w * w == x
            return True, w
        return False, None
    ok, s = is_square(u * u - v * v * d)
    if not ok:
        return False, None
    for s_branch in (s, -s):
        ok, p = is_square((u + s_branch) * Fraction(1, 2))
        if ok and p:
            w = _embed_up(p, tower, False) + _embed_up(v / (p * 2), tower, True)
            if w * w == x:
                return True, w
    return False, None


def rational_square_classes(x: FieldElement) -> frozenset[int]:
    """fields.rational_square_classes over FieldElement: with v != 0, the
    branch (u + s)/2 of is_square, and the classes below closed under d."""
    if not x:
        raise ValueError("rational_square_classes(0)")
    if x.tower.r == 0:
        return frozenset({squarefree_part(x.nums[0] * x.den)})
    u, v, d, _ = _split_top(x)
    if v:
        ok, s = is_square(u * u - v * v * d)
        if not ok:
            return frozenset()
        u = (u + s) * Fraction(1, 2)
    below = rational_square_classes(u)
    return below | {squarefree_part(q * d) for q in below}


def is_algebraic_integer(x: FieldElement) -> bool:
    """fields.is_algebraic_integer over FieldElement: x = u + v*sqrt(d) is
    integral iff 2u and u^2 - d*v^2 are; over Q, iff x is an integer."""
    if x.tower.r == 0:
        return x.den == 1
    u, v, d, _ = _split_top(x)
    return is_algebraic_integer(u * 2) and is_algebraic_integer(u * u - v * v * d)


# -- determinant identity for the multiquadratic basis ----------------------


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss)."""
    a = [row[:] for row in rows]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if not a[i][i]:
            for j in range(i + 1, n):
                if a[j][i]:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for t in range(i + 1, n):
                a[j][t] = (a[j][t] * a[i][i] - a[j][i] * a[i][t]) // prev
            a[j][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1]


def _det_field(rows, tower):
    a = [row[:] for row in rows]
    n = len(a)
    det = tower.one()
    for i in range(n):
        piv = next((j for j in range(i, n) if a[j][i]), None)
        if piv is None:
            return tower.zero()
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det = det * a[i][i]
        inv = tower.one() / a[i][i]
        for j in range(i + 1, n):
            if a[j][i]:
                fac = a[j][i] * inv
                a[j] = [x - fac * y for x, y in zip(a[j], a[i])]
    return det


def basis_det_check(tower) -> dict:
    """Exact check of det(sigma_j(alpha_i)) = det(B) * prod(alpha_i).

    B is the sign matrix sigma_j(alpha_i)/alpha_i over the multiquadratic
    basis alpha_S; its determinant is computed as an integer, the left side
    independently by Gaussian elimination in the field.
    """
    deg = tower.degree
    alphas = []
    for S in range(deg):
        cs = [Fraction(0)] * deg
        cs[S] = Fraction(1)
        alphas.append(tower.element(cs))
    embs = tower.embeddings()
    B = [[-1 if (S & sigma.mask).bit_count() & 1 else 1 for S in range(deg)]
         for sigma in embs]
    det_b = _int_det(B)
    M = [[conjugate(alphas[S], sigma) for S in range(deg)] for sigma in embs]
    det_m = _det_field(M, tower)
    prod = tower.one()
    for x in alphas:
        prod = prod * x
    return {
        "radicands": list(tower.radicands),
        "r": tower.r,
        "det_B": det_b,
        # both readings of the determinant: the embedding matrix itself and
        # its square (the discriminant of the trace form on this basis)
        "det": element_literal(det_m),
        "det_squared": str((det_m * det_m).rational_value()),
        "identity_holds": det_m == tower.rational(det_b) * prod,
    }


# -- dense Fraction-vector multiquadratic arithmetic -------------------------
#
# A reference for coxarith.fields that shares none of its code: an element of
# Q(sqrt(d_1), ..., sqrt(d_r)) is a list of 2^r Fractions over the basis
# alpha_S = sqrt(prod_{j in S} d_j).  Inverses and norms come from the
# multiplication matrix (linear solve, determinant), not from conjugates.


def _squarefree_split(m: int) -> tuple[int, int]:
    """m = s^2 * t with t squarefree, by trial division; returns (t, s)."""
    t, s, p = 1, 1, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        if m % p == 0:
            m //= p
            t *= p
        p += 1
    return t * m, s


def dense_products(rads) -> list[int]:
    """alpha_S^2 for every bitmask S."""
    out = []
    for S in range(1 << len(rads)):
        m = 1
        for j, d in enumerate(rads):
            if (S >> j) & 1:
                m *= d
        out.append(m)
    return out


def conjugate(x: FieldElement, sigma) -> FieldElement:
    """sigma(x) for a real embedding sigma of x's tower: the numerator of
    alpha_S changes sign where S & sigma.mask has odd size.  An embedding
    of another tower raises ValueError, as fields.sign_at does."""
    if sigma.tower is not x.tower:
        raise ValueError("embedding belongs to a different tower")
    return FieldElement(x.tower, tuple(-n if (S & sigma.mask).bit_count() & 1 else n
                                       for S, n in enumerate(x.nums)), x.den)


def rational_norm(x: FieldElement) -> Fraction:
    """The norm of x down to Q, the product of its real conjugates: the
    integer norm of its numerators (fields._norm_nums) over den^degree."""
    return Fraction(fields._norm_nums(x.nums, x.tower), x.den ** x.tower.degree)


def dense_mul(rads, x, y) -> list[Fraction]:
    m = dense_products(rads)
    out = [Fraction(0)] * len(x)
    for S, a in enumerate(x):
        for T, b in enumerate(y):
            out[S ^ T] += a * b * m[S & T]
    return out


def dense_conjugate(x, mask: int) -> list[Fraction]:
    return [-c if bin(S & mask).count("1") % 2 else c for S, c in enumerate(x)]


def _mul_matrix(rads, x) -> list[list[Fraction]]:
    """Column T is x * alpha_T."""
    deg = len(x)
    cols = [dense_mul(rads, x, [Fraction(int(S == T)) for S in range(deg)]) for T in range(deg)]
    return [[cols[T][S] for T in range(deg)] for S in range(deg)]


def _eliminate(a: list[list[Fraction]]) -> tuple[Fraction, list[list[Fraction]]]:
    """Gauss-Jordan on an augmented matrix; (determinant of the square part, rows)."""
    a = [row[:] for row in a]
    n = len(a)
    det = Fraction(1)
    for i in range(n):
        piv = next((j for j in range(i, n) if a[j][i]), None)
        if piv is None:
            return Fraction(0), a
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = -det
        det *= a[i][i]
        a[i] = [c / a[i][i] for c in a[i]]
        for j in range(n):
            if j != i and a[j][i]:
                f = a[j][i]
                a[j] = [c - f * d for c, d in zip(a[j], a[i])]
    return det, a


def dense_inverse(rads, x) -> list[Fraction]:
    """The z with x * z = 1, from the linear system of multiplication by x."""
    deg = len(x)
    aug = [row + [Fraction(int(S == 0))] for S, row in enumerate(_mul_matrix(rads, x))]
    _, rows = _eliminate(aug)
    return [rows[S][deg] for S in range(deg)]


def dense_norm(rads, x) -> Fraction:
    """The norm down to Q: the determinant of multiplication by x."""
    return _eliminate(_mul_matrix(rads, x))[0]


def dense_canonical(rads, x) -> list[tuple[int, Fraction]]:
    """Sorted (square class t, coefficient of sqrt(t)) pairs, nonzero only."""
    out = []
    for m, c in zip(dense_products(rads), x):
        if c:
            t, s = _squarefree_split(m)
            out.append((t, c * s))
    return sorted(out)


def dense_express(rads, x, target_rads) -> list[Fraction]:
    """x rewritten over the target tower; KeyError if it does not lie there."""
    where = {}
    for T, m in enumerate(dense_products(target_rads)):
        t, s = _squarefree_split(m)
        where[t] = (T, s)
    out = [Fraction(0)] * (1 << len(target_rads))
    for t, c in dense_canonical(rads, x):
        T, s = where[t]
        out[T] += c / s
    return out


def dense_sign(rads, x, mask: int) -> int:
    """Sign of sigma_mask(x), in 80-digit decimal arithmetic."""
    if not any(x):
        return 0
    with localcontext() as ctx:
        ctx.prec = 80
        v = sum(Decimal(c.numerator) / Decimal(c.denominator) * Decimal(m).sqrt()
                for m, c in zip(dense_products(rads), dense_conjugate(x, mask)))
    return 1 if v > 0 else -1


def dense_integral_rescale(x) -> list[Fraction]:
    """x * q^2 with q rational, integer coefficients and squarefree content."""
    den = 1
    for c in x:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den * den) for c in x]
    g = 0
    for n in ints:
        g = gcd(g, n)
    _, s = _squarefree_split(g)
    return [Fraction(n, s * s) for n in ints]


def sym_diagonalize(rows, tower):
    """`forms._sym_diagonalize` on a matrix of elements (or rationals),
    written over the tower as numerators over one common denominator."""
    A = [[tower.coerce(x) for x in row] for row in rows]
    den = lcm(*(x.den for row in A for x in row))
    M = [[tuple(n * (den // x.den) for n in x.nums) for x in row] for row in A]
    return forms._sym_diagonalize(M, den, tower)


def rescaled_gram(diagram):
    """`diagrams._rescaled_gram` read back as a matrix of elements of its field."""
    M, den, K = diagrams._rescaled_gram(diagram)
    return [[FieldElement(K, tuple(cell), den) for cell in row] for row in M]


def rescaled_gram_by_elements(diagram):
    """(A, K): the path-rescaled Gram matrix A[s][t] = c_s*c_t*G[s][t] as
    elements of the diagram's tower, one product of elements per step along
    the same breadth-first paths, and K the field of its entries."""
    c = {1: diagram.tower.one()}
    order = [1]
    for v in order:
        for w in diagram.neighbors(v):
            if w not in c:
                c[w] = c[v] * diagram.entries[(min(v, w), max(v, w))]
                order.append(w)
    A = [[diagram.tower.zero()] * diagram.size for _ in range(diagram.size)]
    for v, cv in c.items():
        A[v - 1][v - 1] = cv * cv
    for (i, j), a in diagram.entries.items():
        A[i - 1][j - 1] = A[j - 1][i - 1] = c[i] * c[j] * a
    return A, minimal_field_of(x for row in A for x in row)


def support_classes(x: FieldElement) -> frozenset[int]:
    """The square classes of the basis elements on which x is nonzero."""
    t = x.tower
    return frozenset(t.basis_class[S] for S, n in enumerate(x.nums) if n)


def minimal_field_of(elements) -> "fields.FieldTower":
    """The tower generated by the support classes of the elements."""
    gens: set[int] = set()
    for x in elements:
        gens |= support_classes(x)
    return fields.make_field(sorted(gens - {1}))


def simple_cycles(diagram) -> list[tuple[int, ...]]:
    """Simple cycles (length >= 3), each listed once, smallest vertex first."""
    cycles: list[tuple[int, ...]] = []
    for s in range(1, diagram.size + 1):
        _extend_cycles(diagram, s, [s], cycles)
    return cycles


def _extend_cycles(diagram, start: int, path: list[int], cycles: list) -> None:
    for w in diagram.neighbors(path[-1]):
        if w == start and len(path) >= 3:
            if path[1] < path[-1]:  # one orientation per cycle
                cycles.append(tuple(path))
        elif w > start and w not in path:
            _extend_cycles(diagram, start, path + [w], cycles)


def cycle_product(diagram, cycle) -> FieldElement:
    """The product of Gram entries around a cycle of vertices."""
    out = diagram.tower.one()
    for t in range(len(cycle)):
        i, j = cycle[t], cycle[(t + 1) % len(cycle)]
        out = out * diagram.entries[(min(i, j), max(i, j))]
    return out


_WTERM = re.compile(
    r"(?:(?P<coef>\d+(?:/\d+)?)\*)?"
    r"(?:sqrt\((?P<root>\d+)\)|cospi\((?P<cos>\d+)\))"
    r"|(?P<rat>\d+(?:/\d+)?)"
)


def _acc_add(acc: dict[int, tuple[int, int]], cls: int, n: int, d: int) -> None:
    if cls in acc:
        a, b = acc[cls]
        n, d = a * d + n * b, b * d
    acc[cls] = (n, d)


def _weight_rational(tok: str, expr: str) -> tuple[int, int]:
    """A token of digits n or n/d as the integers (n, d), d > 0."""
    n, _, d = tok.partition("/")
    d = int(d) if d else 1
    if not d:
        raise diagrams.DiagramError(f"zero denominator in weight expression: {expr!r}")
    return int(n), d


def parse_weight_reference(expr: str) -> dict[int, tuple[int, int]]:
    """Weight expression -> {squarefree class: coefficient as (num, den)}, den > 0.
    A space, which the caller keeps only between two digits, is a missing sign."""
    s = expr
    if not s:
        raise diagrams.DiagramError("empty weight expression")
    acc: dict[int, tuple[int, int]] = {}
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        elif not first:
            raise diagrams.DiagramError(f"missing sign in weight expression: {expr!r}")
        m = _WTERM.match(s, pos)
        if not m or m.start() != pos:
            raise diagrams.DiagramError(f"bad weight expression: {expr!r}")
        if any(len(run) > DIGITS_BOUND for run in re.findall(r"\d+", m.group())):
            raise diagrams.DiagramError(f"number of more than {DIGITS_BOUND} digits"
                                        " in weight expression")
        pos = m.end()
        first = False
        if m["rat"] is not None:
            n, d = _weight_rational(m["rat"], expr)
            _acc_add(acc, 1, sign * n, d)
            continue
        cn, cd = _weight_rational(m["coef"], expr) if m["coef"] else (1, 1)
        cn *= sign
        if m["root"] is not None:
            n = int(m["root"])
            if n <= 0:
                raise diagrams.DiagramError("sqrt of a nonpositive integer in weight")
            t = squarefree_part(n)
            _acc_add(acc, t, cn * isqrt(n // t), cd)
        else:
            pairs = diagrams._COS_PAIRS.get(int(m["cos"]))
            if pairs is None:
                raise diagrams.UnsupportedLabelError("unsupported label: non-multiquadratic cosine")
            for cls, (qn, qd) in pairs.items():
                _acc_add(acc, cls, cn * qn, cd * qd)
    return acc


DIGITS_BOUND = 600  # the longest digit run the grammar reads


def _line_int(token: str, lineno: int) -> int:
    """A header, vertex index or label of digits, refused when longer than
    DIGITS_BOUND before int() reads it."""
    if len(token) > DIGITS_BOUND:
        raise diagrams.DiagramError(f"line {lineno}: number of more than {DIGITS_BOUND} digits")
    return int(token)


def parse_diagram_reference(text: str, name: str = "diagram"):
    """`diagrams.parse_diagram` as it stood before its intake was made lean:
    its own weight tokenizer (`parse_weight_reference`), labels built afresh
    for each diagram, and each weight's w > 1 read off `fields.signs`, which
    certifies every real embedding.  Since then it refuses, as the library
    does, a vertex index that is not all digits, whitespace between two
    digits of a weight and a digit run longer than DIGITS_BOUND.  It reads
    Unicode digits as int() and str.isdigit do; on ASCII text it is the
    reference for the library's entries, errors and messages."""
    dim = size = None
    raw_edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "dim":
            if dim is not None or len(parts) != 2 or not parts[1].isdigit():
                raise diagrams.DiagramError(f"line {lineno}: bad dim header")
            dim = _line_int(parts[1], lineno)
        elif kind == "vertices":
            if size is not None or len(parts) != 2 or not parts[1].isdigit():
                raise diagrams.DiagramError(f"line {lineno}: bad vertices header")
            size = _line_int(parts[1], lineno)
        elif kind == "edge":
            if dim is None or size is None:
                raise diagrams.DiagramError(f"line {lineno}: edge before dim/vertices headers")
            if len(parts) < 4:
                raise diagrams.DiagramError(f"line {lineno}: edge needs two vertices and a label")
            if not (parts[1].isdigit() and parts[2].isdigit()):
                raise diagrams.DiagramError(f"line {lineno}: bad vertex index")
            i, j = _line_int(parts[1], lineno), _line_int(parts[2], lineno)
            if not (1 <= i <= size and 1 <= j <= size) or i == j:
                raise diagrams.DiagramError(f"line {lineno}: vertex index out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise diagrams.DiagramError(f"line {lineno}: duplicate edge {key}")
            seen.add(key)
            label = parts[3]
            if label == "w":
                if len(parts) < 5:
                    raise diagrams.DiagramError(f"line {lineno}: weighted edge needs an expression")
                expr = parts[4]  # the parts joined, with a space kept between two digits
                for p in parts[5:]:
                    expr += " " + p if expr[-1].isdigit() and p[0].isdigit() else p
                raw_edges.append((key, parse_weight_reference(expr), None))
            elif label == "inf":
                raw_edges.append((key, {1: (1, 1)}, "inf"))
            else:
                if not label.isdigit():
                    raise diagrams.DiagramError(f"line {lineno}: bad edge label {label!r}")
                m = _line_int(label, lineno)
                if m < 2:
                    raise diagrams.DiagramError(f"line {lineno}: bad edge label {m}")
                pairs = diagrams._COS_PAIRS.get(m)
                if pairs is None:
                    raise diagrams.UnsupportedLabelError(
                        "unsupported label: non-multiquadratic cosine")
                if pairs:  # m = 2 is a right angle: no entry
                    raw_edges.append((key, pairs, m))
            if len(parts) > 4 and label != "w":
                raise diagrams.DiagramError(f"line {lineno}: trailing tokens after label")
        else:
            raise diagrams.DiagramError(f"line {lineno}: unknown directive {kind!r}")
    if dim is None or size is None:
        raise diagrams.DiagramError("missing dim/vertices headers")
    if dim < 1:
        raise diagrams.DiagramError("dim must be positive")
    if size < 1:
        raise diagrams.DiagramError("vertices must be positive")

    classes = sorted({cls for _, acc, _ in raw_edges for cls, (n, _) in acc.items()
                      if n and cls != 1})
    tower = fields.make_field(classes)
    entries = {}
    for (i, j), acc, label in raw_edges:
        nums, den = fields._term_nums(tower, acc)
        if label is None:  # the weight x = nums / den must exceed 1
            s = fields.signs(FieldElement(tower, (nums[0] - den, *nums[1:]), den))[0]
            if s == 0:
                raise diagrams.DiagramError(f"edge ({i},{j}): weight 1 is a parallel pair, use inf")
            if s < 0:
                raise diagrams.DiagramError(f"edge ({i},{j}): weight must exceed 1")
        entries[(i, j)] = FieldElement(tower, tuple(-n for n in nums), den)
    diagram = diagrams.CoxeterDiagram(name, dim, size, tower, entries)
    seen_v = {1}
    stack = [1]
    while stack:
        for w in diagram.neighbors(stack.pop()):
            if w not in seen_v:
                seen_v.add(w)
                stack.append(w)
    if len(seen_v) != size:
        raise diagrams.DiagramError("diagram is not connected")
    return diagram


def rescaled_gram_reference(diagram):
    """`diagrams._rescaled_gram` as it stood before it was made lean: cells
    in a dict, the used basis masks by column, the content divided out
    after the fill.  The reference for (M, den, K)."""
    tower = diagram.tower
    rad = tower.basis_radicand
    n = diagram.size
    one = ([1] + [0] * (tower.degree - 1), 1)
    c = [None, one] + [None] * (n - 1)
    cells = {(1, 1): one}
    order = [1]
    for v in order:
        cv, dv = c[v]
        for w in diagram.neighbors(v):
            if c[w] is None:
                a = diagram.entries[(min(v, w), max(v, w))]
                cw, dw = c[w] = (fields._mul_nums(cv, a.nums, rad), dv * a.den)
                cells[(w, w)] = cells[(min(v, w), max(v, w))] = \
                    (fields._mul_nums(cw, cw, rad), dw * dw)
                order.append(w)
    for key, a in diagram.entries.items():
        if key not in cells:
            (ci, di), (cj, dj) = c[key[0]], c[key[1]]
            cells[key] = (fields._mul_nums(fields._mul_nums(ci, cj, rad), a.nums, rad),
                          di * dj * a.den)
    den = lcm(*(d for _, d in cells.values()))
    used = [any(col) for col in zip(*(nums for nums, _ in cells.values()))]
    K = fields.make_field(sorted(tower.basis_class[S] for S, u in enumerate(used) if u and S))
    m, parts = 1, None
    if K is not tower:
        _, m, parts = fields._subfield_map(tower, K)
        parts = [(S, T, mult) for S, T, side, mult in parts if not side]
    zero = [0] * K.degree
    M = [[zero] * n for _ in range(n)]
    for (i, j), (nums, d) in cells.items():
        f = den // d
        if parts is None:
            out = [x * f for x in nums]
        else:
            out = [0] * K.degree
            for S, T, mult in parts:
                out[T] = nums[S] * mult * f
        M[i - 1][j - 1] = M[j - 1][i - 1] = out
    den *= m
    g = gcd(den, *itertools.chain.from_iterable(M[i - 1][j - 1] for i, j in cells))
    if g != 1:
        den //= g
        for i, j in cells:
            M[i - 1][j - 1] = M[j - 1][i - 1] = [x // g for x in M[i - 1][j - 1]]
    return M, den, K


def congruence_diagonalize(rows, tower):
    """(D, T) with T^t A T = diag(D), for symmetric A over a tower.

    The same pivot order as `coxarith.forms._sym_diagonalize` (a nonzero
    diagonal pivot if any, else the first off-diagonal pair folded onto the
    diagonal), but every column operation is also applied to T, so the
    library's diagonal can be checked against an explicit congruence.
    """
    n = len(rows)
    A = [[tower.coerce(x) for x in row] for row in rows]
    T = [[tower.rational(int(i == j)) for j in range(n)] for i in range(n)]

    def swap(i, j):
        for M in (A, T):
            for row in M:
                row[i], row[j] = row[j], row[i]
        A[i], A[j] = A[j], A[i]

    def col_addmul(dst, src, fac):
        for M in (A, T):
            for row in M:
                row[dst] = row[dst] + fac * row[src]
        A[dst] = [x + fac * y for x, y in zip(A[dst], A[src])]

    for k in range(n):
        if not A[k][k]:
            piv = next((j for j in range(k + 1, n) if A[j][j]), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(((i, j) for i in range(k, n)
                             for j in range(i + 1, n) if A[i][j]), None)
                if pair is None:
                    break
                i, j = pair
                col_addmul(i, j, tower.one())
                if i != k:
                    swap(k, i)
        for j in range(k + 1, n):
            if A[k][j]:
                col_addmul(j, k, -(A[k][j] / A[k][k]))
    return [A[i][i] for i in range(n)], T


def fixing_embeddings(tower, sub):
    """Embeddings of the tower that restrict to the identity on the subfield."""
    subclasses = sub.subgroup_classes
    fixed = []
    for sigma in tower.embeddings():
        ok = True
        for S in range(tower.degree):
            if tower.basis_class[S] in subclasses and (S & sigma.mask).bit_count() & 1:
                ok = False
                break
        if ok:
            fixed.append(sigma)
    return fixed


def conjugate_transfer(form, F):
    """Diagonal of the transfer of a K-form to an index-2 subtower F.

    c = u + v*sqrt(a) is split by the conjugation sigma fixing F:
    u = (c + sigma(c))/2 and v = (c - sigma(c))/(2 sqrt(a)), each rewritten
    over F.  The blocks are the generic elimination's <v, (a*v^2 - u^2)/v>,
    or <2u, -u/2> when v = 0; `coxarith.forms.transfer` emits the same
    blocks up to squares, <v, v*(a*v^2 - u^2)> and <1, -1>.
    """
    K = form.tower
    a = min(K.subgroup_classes - F.subgroup_classes)
    root = K.sqrt(a)
    sigma = next(s for s in fixing_embeddings(K, F) if s.mask != 0)
    half = Fraction(1, 2)
    diag = []
    for c in form.diagonal:
        cs = conjugate(c, sigma)
        u = ((c + cs) * half).express_in(F)
        v = ((c - cs) * half * root * Fraction(1, a)).express_in(F)
        if v:
            diag += [v, (v * v * a - u * u) / v]
        else:
            diag += [u * 2, -u * half]
    return diag


# -- Hasse invariants compared at every relevant finite place ---------------


def isometry_differences(f, g, places=None):
    """The places, by default the relevant finite places (places above 2
    first), at which the Hasse invariants of the cleared diagonals of f and g
    differ."""
    cf = [fields.integral_rescale(c) for c in f.diagonal]
    cg = [fields.integral_rescale(c) for c in g.diagonal]
    if places is None:
        places = localfields.relevant_finite_places(f.tower, cf + cg)
    return [pl for pl in places
            if localfields.hasse_invariant(cf, pl) != localfields.hasse_invariant(cg, pl)]


def all_places_isometric(f, g) -> bool:
    """K-isometry by rank, real signatures, det class, and Hasse symbols at
    every relevant finite place."""
    if f.rank != g.rank:
        return False
    if any(signature_at(f, s) != signature_at(g, s) for s in f.tower.embeddings()):
        return False
    if not fields.is_square(f.det() * g.det())[0]:
        return False
    return not isometry_differences(f, g)


def hyperbolic_differences(form, places=None):
    """The places, by default the relevant finite places, at which the Hasse
    invariant of an even-rank form differs from that of the hyperbolic form
    of the same rank."""
    K, diag = form.tower, list(form.diagonal)
    m = len(diag) // 2
    minus_one = K.rational(-1)
    odd = (m * (m - 1) // 2) % 2
    if places is None:
        places = localfields.relevant_finite_places(K, diag)
    return [pl for pl in places
            if localfields.hasse_invariant(diag, pl)
            != (localfields.hilbert_symbol_local(minus_one, minus_one, pl) if odd else 1)]


def all_places_hyperbolic(form) -> bool:
    """Hyperbolicity by rank, real signatures, det class, and Hasse symbols
    at every relevant finite place."""
    diag = list(form.diagonal)
    if len(diag) % 2:
        return False
    m = len(diag) // 2
    for sigma in form.tower.embeddings():
        if sum(1 for c in diag if fields.sign_at(c, sigma) < 0) != m:
            return False
    if not fields.is_square(form.det() * (-1) ** m)[0]:
        return False
    return not hyperbolic_differences(form)


def minimal_polynomial(x: FieldElement) -> list[Fraction]:
    """Monic minimal polynomial over Q, coefficients low-to-high degree."""
    orbit: list[FieldElement] = []
    seen = set()
    for sigma in x.tower.embeddings():
        y = conjugate(x, sigma)
        key = (y.den, y.nums)
        if key not in seen:
            seen.add(key)
            orbit.append(y)
    poly = [x.tower.one()]
    for y in orbit:
        nxt = [x.tower.zero() for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * y
        poly = nxt
    out = []
    for c in poly:
        if not c.is_rational:
            raise RuntimeError("minimal polynomial must have rational coefficients")
        out.append(c.rational_value())
    return out


@lru_cache(maxsize=None)
def bernoulli_recurrence(n: int) -> Fraction:
    """B_n (B_1 = -1/2) from sum_{j=0}^{n} C(n+1, j) B_j = 0, in Fractions."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli_recurrence(j)
    return -acc / (n + 1)


def em_coefficients_reference(s: int) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """lvalues._em_coefficients(s) built from bernoulli_recurrence and
    rising factorials term by term."""
    J = _EM_TERMS
    tail = hurwitz_remainder_coeff(s)
    corrections = []
    for j in range(1, J + 1):
        c = bernoulli_recurrence(2 * j) / _rising(1, 2 * j) * _rising(s, 2 * j - 1)
        corrections.append((c.numerator, c.denominator, s + 2 * j - 1))
    return tail.numerator, tail.denominator, tuple(corrections)


def hurwitz_remainder_coeff(s: int) -> Fraction:
    """|B_{2J+2}| (s)_{2J+1} / (2J+2)!, so the remainder is below 2 coeff x^-(s+2J+1)."""
    J = _EM_TERMS
    return abs(bernoulli_recurrence(2 * J + 2)) * Fraction(
        _rising(s, 2 * J + 1), _rising(1, 2 * J + 2))


def hurwitz_zeta_fraction(s: int, a: Fraction, digits: int) -> Ball:
    """zeta(s, a) = sum_{k>=0} (k+a)^-s with error below 10^-digits.

    Integer s >= 2 and rational a in (0, 1].
    """
    if s < 2:
        raise ValueError("need s >= 2")
    a = Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("need 0 < a <= 1")
    eps = Fraction(1, 10**digits)
    J = _EM_TERMS
    tail_coeff = hurwitz_remainder_coeff(s)
    N = 8
    while tail_coeff / (N + a) ** (s + 2 * J + 1) > eps / 2:
        N += max(4, N // 2)
    x = N + a
    value = sum(Fraction(1) / (k + a) ** s for k in range(N))
    value += x ** (1 - s) / (s - 1) + Fraction(1, 2) / x**s
    for j in range(1, J + 1):
        value += (bernoulli_recurrence(2 * j) / _rising(1, 2 * j)
                  * _rising(s, 2 * j - 1) / x ** (s + 2 * j - 1))
    err = 2 * tail_coeff / x ** (s + 2 * J + 1)
    return Ball(value, err)


def hurwitz_radius_fraction(s: int, a: Fraction, digits: int) -> Fraction:
    """The radius of hurwitz_zeta(s, a, digits), from its stop rule in Fractions.

    N runs 8, 12, 18, ... until the remainder bound 2 coeff (N + a)^-E with
    E = s + 2J + 1 is at most 10^-digits less the rounding radius
    1 / (4 10^(digits + _GUARD_DIGITS)); the radius is their sum.
    """
    eps = Fraction(1, 10**digits)
    rounding = Fraction(1, 4 * 10 ** (digits + _GUARD_DIGITS))
    coeff = hurwitz_remainder_coeff(s)
    E = s + 2 * _EM_TERMS + 1
    N = 8
    while (err := 2 * coeff / (N + a) ** E) > eps - rounding:
        N += max(4, N // 2)
    return err + rounding


def zeta3_direct_loop(terms: int) -> Ball:
    """sum_{n <= terms} n^-3 in 10^40 fixed point, plus the integral tail bounds."""
    scale = 10**40
    acc = sum(scale // n**3 for n in range(1, terms + 1))
    partial = Ball(Fraction(acc, scale), Fraction(terms, scale))
    lo = Fraction(1, 2 * (terms + 1) ** 2)
    hi = Fraction(1, 2 * terms**2)
    return partial + Ball((lo + hi) / 2, (hi - lo) / 2)


def l_chi8_direct_loop(blocks: int) -> Ball:
    """sum chi8(n) n^-3 over n < 8 blocks in 10^40 fixed point, plus the tail."""
    scale = 10**40
    acc = 0
    for k in range(blocks):
        for rem, sign in _CHI8.items():
            n = 8 * k + rem
            acc += sign * (scale // n**3)
    tail = Fraction(1, 4 * (8 * blocks - 7) ** 3)
    return Ball(Fraction(acc, scale), Fraction(8 * blocks, scale) + tail)


# -- the dyadic valuation by conjugates ------------------------------------------


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def stage_valuation(x: FieldElement, nbits: int, f: int) -> int:
    """v_2(N(x)) / f, the norm taken from the subfield of the first nbits
    radicands of x's tower as a product of conjugates."""
    for k in range(nbits):
        x = x * conjugate(x, x.tower.embeddings()[1 << k])
    q = x.rational_value()
    w = _v2(q.numerator) - _v2(q.denominator)
    if w % f:
        raise RuntimeError("norm valuation not divisible by residue degree")
    return w // f


# -- the seeded dyadic norm sampler ----------------------------------------------


def _norm_pairs(md):
    one, L = md.one, md.L
    base = [one, md.pi, one + md.pi, md.pi_pow(2),
            md.mrat(3), md.mrat(5), md.mrat(7), md.mrat(-1)]
    base.extend(L.sqrt(g) for g in md.gens)
    if md.omega is not None:
        base += [md.omega, one + md.omega]
    yield from itertools.product(base, repeat=2)
    rnd = random.Random(770231)
    while True:
        s = FieldElement(L, tuple(rnd.randrange(64) for _ in range(md.size)))
        t = FieldElement(L, tuple(rnd.randrange(64) for _ in range(md.size)))
        yield s, t


def _char_row(md, b: FieldElement, dim: int) -> int:
    """The character annihilating the norms of the extension by sqrt(b)."""
    pivots: dict[int, int] = {}
    needed = dim - 1
    for s, t in itertools.islice(_norm_pairs(md), 1200):
        n = s * s - b * (t * t)
        if not n:
            continue
        x = md.vec_int(n)
        while x:
            h = x.bit_length() - 1
            if h not in pivots:
                break
            x ^= pivots[h]
        if x:
            pivots[x.bit_length() - 1] = x
            if len(pivots) == needed:
                break
    if len(pivots) != needed:
        raise RuntimeError("norm group rank not reached")
    cands = [c for c in range(1, 1 << dim)
             if all((c & r).bit_count() % 2 == 0 for r in pivots.values())]
    if len(cands) != 1:
        raise RuntimeError("norm group annihilator not unique")
    return cands[0]


def sampled_rows(md) -> list[int]:
    """Pairing rows of a built dyadic LocalModel, found by the seeded sampler."""
    dim = md.dim
    rows = [0] * dim
    rows[1] = 1  # the unramified unit pairs only with odd valuations
    rows[0] = _char_row(md, md.pi, dim)
    for i, (_, g) in enumerate(md.unit_gens):
        if i > 0:
            rows[1 + i] = _char_row(md, g, dim)
    return rows


# -- the bounded rational model search -------------------------------------------


def bounded_model_search(f, k, bound=30):
    """<-1, 1, ..., 1, a> over k isometric to f: the first squarefree a >= 1
    with -a*det f a square, from the prime-support subsets and 1..bound."""
    if k.r != 0:
        return None, None
    K = f.tower
    detf = f.det()
    n = abs(rational_norm(fields.integral_rescale(detf)).numerator)
    ps = {2} | {p for p, _ in factorize(n)}
    for d in K.radicands:
        ps |= {p for p, _ in factorize(d)}
    cands: set[int] = set()
    if len(ps) <= 12:
        plist = sorted(ps)
        for size in range(len(plist) + 1):
            for sub in itertools.combinations(plist, size):
                prod = 1
                for p in sub:
                    prod *= p
                cands.add(prod)
    cands.update(a for a in range(1, max(bound, 1) + 1) if squarefree_part(a) == a)
    base = [-1] + [1] * (f.rank - 2)
    for a in sorted(cands):
        ok, _ = fields.is_square(K.rational(-a) * detf)
        if not ok:
            continue
        gK = QuadraticForm(K, base + [a])
        if forms.globally_isometric(gK, f):
            return QuadraticForm(k, base + [a]), a
    return None, None
