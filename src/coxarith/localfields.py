"""Local arithmetic at the places of real multiquadratic fields.

For a tower K = Q(sqrt(d_1),...,sqrt(d_r)) and a rational prime p, the
completions of K above p are classified by the images of the radicand
square classes in Q_p* / (Q_p*)^2, whose basis, the local generators, fixes
the local field: one completion is built per (local generators, p) and
shared by the towers that have them.  Elements of a completion are vectors
over the local radicand basis, and Hilbert symbols are the F_2 pairing on
the square class group.  Every pairing matrix is validated (symmetry,
nondegeneracy, (x,-x)=1, and agreement with the closed formula over Q_p
for rational arguments).

At odd p the symbol is the tame symbol: the square class of an integral x
is the parity of its valuation and the quadratic character of the norm of
its unit residue to F_p.

At p = 2 the completion is modelled on exact elements of the field L of
the local generators, in which 2 has one place, so a valuation is v_2 of
the integer norm of the numerators (fields._norm_nums), less v_2 of the
matching power of the denominator, divided by f.  Every p-adic valuation
is of an int and taken by one routine, _split_val.  One quadratic defect
loop (O'Meara, Introduction to Quadratic Forms, section 63) reduces a
unit toward 1 by square corrections until what is left is a square or an
obstruction, an odd-valuation defect or an unsolvable Artin-Schreier
equation at the critical level 2e.  The obstruction of each new local generator over the
subfield so far gives the next uniformizer or residue generator; on the
finished model the loop divides each obstruction out by the matching unit
generator, which gives the square class vector.  The pairing row of a
basis element b is the character that kills the norms from L(sqrt(b)):
every norm is x^2 - b up to a square, and the x^2 - b for x = 0, pi^k*r
and 1 + pi^k*r (k <= 2e, r a nonzero residue representative) reach the
rank of the norm group, one less than that of the square class group as
the index is 2, so they span it.

A tower element reaches either completion as integer coordinates over the
local basis mod p^(t+c), where t = v_p of its norm bounds its valuation:
c = 1 at odd p, where the class is read mod pi^(v+1), and c = 3 at p = 2,
where the local square theorem (O'Meara 63:1) makes the class exact.
Nothing is ever decided by a float or by truncated digits.  Internal
consistency checks raise RuntimeError, so they also run under python -O.

Every local-global question ends in finite_hasse_hyperbolic, the last
check of is_hyperbolic, once its real and determinant checks are read off
what the caller holds: classify.descend_field reads a transfer's off its
source form, and forms.globally_isometric reads those of f + (-g) off f
and g.  It compares Hasse invariants with a target read off p and deg(P)
above the prime set the caller passes, the primes() of the forms it holds
(for a transfer, its source form's alone), so no derived form factors its
own norms.  It never builds the dyadic model when 2 does not
split, because Hilbert reciprocity settles the first place above 2 once
rank, real signatures, determinant class and every other place agree.
is_hyperbolic runs all three checks on one form; a Hilbert symbol (a,b) is
the Hasse invariant of <a, b>.  Symbols, Hasse invariants, square class
vectors and audits still compute every place directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod as _prod
from typing import Iterable, NamedTuple

from . import fields, forms
from .fields import FieldElement, FieldTower, factorize, integral_rescale

__all__ = [
    "Place",
    "real_places",
    "splitting",
    "hilbert_symbol_Q",
    "hilbert_symbol_local",
    "hasse_invariant",
    "is_hyperbolic",
    "finite_hasse_hyperbolic",
    "relevant_finite_places",
    "square_class_vector",
    "local_audit",
]


# -- rational Hilbert symbols ---------------------------------------------


def _split_val(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u and p not dividing u, for a nonzero int n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _qp_class(n: int, p: int) -> tuple[int, int]:
    """The class of the nonzero int n = p^v * u in Q_p* / (Q_p*)^2: (v mod 2,
    u mod 8) at p = 2 and (v mod 2, the Legendre symbol of u) at odd p."""
    v, u = _split_val(n, p)
    if p == 2:
        return v & 1, u % 8
    return v & 1, 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def _prime(p: int) -> int:
    if not (p >= 2 and factorize(p) == ((p, 1),)):
        raise ValueError(f"{p} is not prime")
    return p


def hilbert_symbol_Q(a, b, v="inf") -> int:
    """Hilbert symbol (a,b)_v over Q; v is "inf" or a prime (else ValueError).
    a and b are rational and a prime v integral (a bool, float or str
    raises TypeError, as in fields._exact).

    At a prime both arguments are read through _qp_class (a = n/d has the
    class of n*d): at p = 2 the symbol is (-1)^(e(a)e(b) + v(a)w(b) +
    v(b)w(a)) with e(u) = [u = 3 mod 4] and w(u) = [u = 3, 5 mod 8], at odd
    p it is (-1)^(v(a)v(b)(p-1)/2) (u_a/p)^v(b) (u_b/p)^v(a) (Serre, A
    Course in Arithmetic, III.1).
    """
    a, b = Fraction(fields._exact(a)), Fraction(fields._exact(b))
    if not a or not b:
        raise ZeroDivisionError("Hilbert symbol of 0")
    real = v in ("inf", "real", None)
    return _symbol_at(a, b, None if real else _prime(fields._bounded(v, "a prime")))


def _symbol_at(a, b, p: int | None) -> int:
    """hilbert_symbol_Q at a place's p (None when real) as it is: no gate."""
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    (va, ua), (vb, ub) = (_qp_class(q.numerator * q.denominator, p) for q in (a, b))
    if p == 2:
        bit = (ua % 4 == 3 and ub % 4 == 3) ^ (va and ub in (3, 5)) ^ (vb and ua in (3, 5))
        return -1 if bit else 1
    sign = -1 if va and vb and p % 4 == 3 else 1
    return sign * (ua if vb else 1) * (ub if va else 1)


# -- splitting of a prime in a tower --------------------------------------


class _Structure(NamedTuple):
    gens: tuple[int, ...]       # squarefree ints, a basis of the local classes
    gen_masks: tuple[int, ...]  # per tower radicand: subset of gens matching its class
    e: int
    f: int
    places: tuple[Place, ...]  # one per local Galois orbit of radicand sign masks


@lru_cache(maxsize=None)
def _local_structure(tower: FieldTower, p: int) -> _Structure:
    _prime(p)
    # at odd p at most one generator is divisible by p, so that the local
    # generators are one ramified and one unramified radicand at most
    chosen: list[int] = []
    cls_to_mask = {_qp_class(1, p): 0}  # the span of chosen: class -> mask over chosen
    for t in sorted(tower.subgroup_classes - {1}):
        c = _qp_class(t, p)
        if c not in cls_to_mask and (p == 2 or t % p or all(g % p for g in chosen)):
            bit = 1 << len(chosen)
            chosen.append(t)
            # the product of two classes: unit parts mod 8 at p = 2, signs at odd p
            cls_to_mask.update([((c[0] ^ s[0], c[1] * s[1] % 8 if p == 2 else c[1] * s[1]),
                                 M | bit) for s, M in cls_to_mask.items()])
    size = 1 << len(chosen)
    if len(cls_to_mask) != size:
        raise RuntimeError("local class basis is dependent")
    gen_masks = tuple(cls_to_mask[_qp_class(d, p)] for d in tower.radicands)
    dbar = set(cls_to_mask)
    if p == 2:
        f = 2 if (0, 5) in dbar else 1
        e = size // f
        if e not in (1, 2, 4):
            raise RuntimeError("dyadic ramification index not 1, 2 or 4")
    else:
        f = 2 if (0, -1) in dbar else 1
        e = 2 if any(v == 1 for v, _ in dbar) else 1
        if e * f != size:
            raise RuntimeError("local degree is not e*f")
    # Galois sign masks induced on the radicands by the local Galois group
    H = set()
    for tau in range(size):
        bits = 0
        for j, Sj in enumerate(gen_masks):
            if (Sj & tau).bit_count() & 1:
                bits |= 1 << j
        H.add(bits)
    if len(H) != size:
        raise RuntimeError("local Galois sign masks are not distinct")
    reps = sorted({min(eps ^ h for h in H) for eps in range(1 << tower.r)})
    g = (1 << tower.r) // size
    if len(reps) != g:
        raise RuntimeError("place count is not the number of sign orbits")
    places = tuple(Place(tower, "finite", p, eps, e, f) for eps in reps)
    return _Structure(tuple(chosen), gen_masks, e, f, places)


class Place(NamedTuple):
    """A place of a tower: a real embedding or a prime of the ring of integers."""

    tower: FieldTower
    kind: str  # "real" | "finite"
    p: int | None
    eps_mask: int  # sign choice per radicand selecting this place
    e: int = 1
    f: int = 1

    @property
    def degree(self) -> int:
        return self.e * self.f

    def __repr__(self) -> str:
        if self.kind == "real":
            return f"Place(real, {self.tower}, signs={self.eps_mask:b})"
        return f"Place({self.p}, {self.tower}, e={self.e}, f={self.f}, signs={self.eps_mask:b})"


def real_places(tower: FieldTower) -> tuple[Place, ...]:
    return tuple(Place(tower, "real", None, s.mask) for s in tower.embeddings())


def splitting(tower: FieldTower, p: int) -> tuple[Place, ...]:
    """The places of the tower above p < 2^64, one per local Galois orbit of
    sign masks, as _local_structure builds them once per (tower, p)."""
    return _local_structure(tower, fields._bounded(p, "a prime")).places


# -- square roots in Z_p ----------------------------------------------------


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of the unit a mod the odd prime p (Tonelli-Shanks)."""
    if pow(a, (p - 1) // 2, p) != 1:
        raise RuntimeError("p-adic unit is not a square")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    # invariant: r^2 = a*t and c has order 2^m, with t of order dividing 2^(m-1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _hensel_sqrt(n: int, p: int, digits: int) -> tuple[int, int]:
    """n = p^(2k) u with u a square unit; returns (k, canonical sqrt of u mod p^digits).

    Canonical means stable under raising digits: for odd p the root with the
    smaller residue mod p, for p = 2 the digit-by-digit lift starting at 1.
    The result is correct to all p^digits: at p = 2 a root of u mod 2^(k+1)
    is fixed only mod 2^k, so that lift runs to u mod 2^(digits+1).
    """
    v, u = _split_val(n, p)
    if v % 2:
        raise RuntimeError("p-adic square root of odd valuation")
    mod = p**digits
    if p == 2:
        if u % 8 != 1:
            raise RuntimeError("2-adic unit is not a square")
        x = 1
        for k in range(3, digits + 1):
            if (x * x - u) % (2 << k):
                x += 1 << (k - 1)
        return v // 2, x % mod
    r0 = _sqrt_mod_prime(u % p, p)
    r0 = min(r0, p - r0)
    x, prec = r0, 1
    inv2 = pow(2, -1, mod)
    while prec < digits:
        prec = min(2 * prec, digits)
        mm = p**prec
        x = (x + u * pow(x, -1, mm)) % mm * inv2 % mm
    return v // 2, x % mod


# -- residue field F_2 / F_4 symbols ----------------------------------------
# syms are ints 0..3 meaning a + b*w with bit0 = a, bit1 = b and w^2 = w + 1.


def _f4_mul(x: int, y: int) -> int:
    a0, a1 = x & 1, x >> 1
    b0, b1 = y & 1, y >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 | (c1 << 1)


# -- what the dyadic model and the odd closed form share ----------------------


def _f2_insert(pivots: dict[int, int], x: int) -> bool:
    """Reduce the F_2 vector x by pivots (keyed by leading bit) and keep what
    is left as a new pivot; False when x lies in their span."""
    while x:
        h = x.bit_length() - 1
        if h not in pivots:
            pivots[h] = x
            return True
        x ^= pivots[h]
    return False


class _Completion:
    """The completion at p of the local field Q_p(sqrt(g) : g in gens), over
    beta_S = prod_{j in S} sqrt(gens[j]), shared by every tower with these
    local generators (_local_structure); it holds no tower, and what a tower
    adds is kept under its radicands, reached through an element's tower.
    A subclass sets e, f, M_rows, basis_names and basis_elts (the elements
    the names stand for) and _extra, and gives mrat, mneg, vec_int and
    _from_coords on its own element type."""

    def __init__(self, gens: tuple[int, ...], p: int):
        self.gens, self.p = gens, p
        self.size = 1 << len(gens)
        self.bprod = tuple(_prod(g for j, g in enumerate(self.gens) if (mask >> j) & 1)
                           for mask in range(self.size))
        self._vec_cache: dict[tuple, int] = {}  # see vec_of_element
        self._towers: dict[tuple[int, ...], tuple] = {}  # radicands -> _radicand_images

    def _radicand_images(self, tower: FieldTower, digits: int) -> tuple:
        """(digits, images, h), kept for the tower: (M, s, c) per basis mask S
        with alpha_S = p^s * c * beta_M, c a unit known mod p^digits, and the
        even h >= -s.  sqrt(d_j) * beta_M is the canonical root of d_j *
        bprod[M], so a sign mask names the same place in every model."""
        p, mod = self.p, self.p**digits
        roots = []
        for j, M in enumerate(_local_structure(tower, p).gen_masks):
            k, r = _hensel_sqrt(tower.radicands[j] * self.bprod[M], p, digits)
            a, b = _split_val(self.bprod[M], p)
            roots.append((M, k - a, r * pow(b, -1, mod) % mod))
        images = [(0, 0, 1)]
        for S in range(1, tower.degree):
            M, s, c = images[S & (S - 1)]
            Mj, sj, cj = roots[(S & -S).bit_length() - 1]
            a, b = _split_val(self.bprod[M & Mj], p)
            images.append((M ^ Mj, s + sj + a, c * cj * b % mod))
        h = -2 * (min(s for _, s, _ in images) // 2)  # alpha_0 = 1 has s = 0
        self._towers[tower.radicands] = out = (digits, images, h)
        return out

    def embed(self, x: FieldElement, eps_mask: int):
        """x * den^2 * p^h, integral and in the class of x, from its integer
        coordinates over beta_S mod p^(t+c+h), in the subclass's element type.
        t = v_p(N(x * den^2)) bounds v_pi(x * den^2), the norm taken on the
        integer numerators (fields._norm_nums); the even h clears the
        denominators of the images of alpha_S; c = _extra is 1 at odd p, where
        the class is read mod pi^(v+1), and 3 at p = 2, where the truncation
        is then x * den^2 * p^h times 1 + O(pi^(2e+1)), a square by the local
        square theorem (O'Meara 63:1)."""
        p, tower = self.p, x.tower
        digits, images, h = self._towers.get(tower.radicands) or self._radicand_images(tower, 1)
        nums = [c * x.den for c in x.nums]
        need = _split_val(fields._norm_nums(nums, tower), p)[0] + self._extra + h
        if digits < need:
            digits, images, h = self._radicand_images(tower, max(need, 2 * digits))
        mod = p**need
        z = [0] * self.size
        for S, (n, (M, s, c)) in enumerate(zip(nums, images)):
            if (S & eps_mask).bit_count() & 1:
                n = -n
            z[M] = (z[M] + n * c * p**(s + h)) % mod
        return self._from_coords(z)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def pair_bits(self, va: int, vb: int) -> int:
        acc, x, i = 0, va, 0
        while x:
            if x & 1:
                acc ^= (self.M_rows[i] & vb).bit_count() & 1
            x >>= 1
            i += 1
        return acc

    def _validate_matrix(self) -> None:
        rows, dim = self.M_rows, self.dim
        for i in range(dim):
            for j in range(i):
                if (rows[i] >> j) & 1 != (rows[j] >> i) & 1:
                    raise RuntimeError("pairing not symmetric")
        pivots: dict[int, int] = {}
        for r in rows:
            _f2_insert(pivots, r)
        if len(pivots) != dim:
            raise RuntimeError("pairing is degenerate")
        # (x, -x) = 1 on every basis element
        for b in self.basis_elts:
            if self.pair_bits(self.vec_int(b), self.vec_int(self.mneg(b))):
                raise RuntimeError("(x,-x) != 1 in local pairing")
        # rational arguments must agree with the closed formula over Q_p
        deg = self.e * self.f
        for a, b in ((-1, -1), (-1, 2), (2, 2), (2, 5), (3, 5), (2, 3), (3, 7)):
            got = -1 if self.pair_bits(self.vec_int(self.mrat(a)),
                                       self.vec_int(self.mrat(b))) else 1
            if got != _symbol_at(a, b, self.p) ** deg:
                raise RuntimeError("local pairing disagrees with rational Hilbert symbol")

    def vec_of_element(self, x: FieldElement, eps_mask: int) -> int:
        """Square class bitmask of x at the place of eps_mask of x's tower;
        kept per (radicands, eps_mask, den, nums), which names x and its
        tower, so no element is hashed."""
        key = (x.tower.radicands, eps_mask, x.den, x.nums)
        got = self._vec_cache.get(key)
        if got is None:
            got = self._vec_cache[key] = self.vec_int(self.embed(x, eps_mask))
        return got


# -- the dyadic model ----------------------------------------------------------


class LocalModel(_Completion):
    """The completion at p = 2, on exact elements of the field L =
    Q(sqrt(gens[0]), ...) of its local generators.  The radicands of L are
    the generators in order, so alpha_S of L is beta_S, and 2 has one place in
    L.  While the model is built, a stage is the subfield generated by the
    first nbits generators, and v(x) = v_2(N(x)) / f with the norm taken over
    the stage's generators."""

    _extra = 3

    def __init__(self, gens: tuple[int, ...], p: int):
        super().__init__(gens, p)
        self.L = fields._class_tower(gens)
        if self.L.radicands != gens:
            raise RuntimeError("local generators are not the radicands of their field")
        self.one = self.L.one()
        self._build_dyadic()
        if (self.e, self.f) != _local_structure(self.L, p)[2:4]:
            raise RuntimeError("local model disagrees with the splitting type")
        if self.val(self.pi) != 1:
            raise RuntimeError("uniformizer does not have valuation 1")
        if self.val(self.mrat(p)) != self.e:
            raise RuntimeError("valuation of p is not the ramification index")
        self._delta_and_unit_gens()
        self._build_matrix()

    def mrat(self, q) -> FieldElement:
        return self.L.rational(q)

    def mneg(self, x: FieldElement) -> FieldElement:
        return -x

    def _from_coords(self, z: list[int]) -> FieldElement:
        return FieldElement(self.L, tuple(z))

    def pi_pow(self, k: int) -> FieldElement:
        got = self._pi_pows.get(k)
        if got is None:
            got = self.pi**k if k >= 0 else self._pi_pows[-1] ** -k
            self._pi_pows[k] = got
        return got

    def _stage(self, nbits: int, e: int, f: int, pi: FieldElement,
               omega: FieldElement | None) -> None:
        """Answer from now on for the subfield generated by the first nbits
        local generators, with ramification e, residue degree f, uniformizer
        pi and residue generator omega (w^2 = w + 1 when f = 2)."""
        self._nbits, self.e, self.f, self.pi, self.omega = nbits, e, f, pi, omega
        self._pi_pows = {0: self.one, 1: pi, -1: pi.inverse()}
        self._c2: int | None = None

    # -- valuations ----------------------------------------------------

    def val(self, x: FieldElement) -> int:
        """v_2 of the stage norm of x over f: the norm of x's first 2^nbits
        numerators (fields._norm_nums) over den^(2^nbits)."""
        if not x:
            raise ZeroDivisionError("valuation of 0")
        h = 1 << self._nbits
        if any(x.nums[h:]):
            raise RuntimeError("element lies outside the current stage")
        w = (_split_val(fields._norm_nums(x.nums[:h], self.L), self.p)[0]
             - h * _split_val(x.den, self.p)[0])
        if w % self.f:
            raise RuntimeError("norm valuation not divisible by residue degree")
        return w // self.f

    # -- residue field -------------------------------------------------

    def _rep(self, sym: int) -> FieldElement:
        out = self.mrat(sym & 1)
        if sym >> 1:
            if self.omega is None:
                raise RuntimeError("residue symbol needs the residue generator")
            out = out + self.omega
        return out

    def _residue(self, x: FieldElement) -> int:
        for sym in range(1, 1 << self.f):
            d = x - self._rep(sym)
            if not d or self.val(d) >= 1:
                return sym
        raise RuntimeError("residue of a non-unit")

    def _c2_residue(self) -> int:
        """Residue of 2/pi^e, the linear coefficient of the Artin-Schreier
        equation s^2 + c2*s = ebar at the critical level 2e."""
        if self._c2 is None:
            self._c2 = self._residue(self.mrat(2) * self.pi_pow(-self.e))
        return self._c2

    # -- the quadratic defect loop ----------------------------------------

    def _reduce(self, u: FieldElement, build: bool = False
                ) -> tuple[int, str, int | None, FieldElement]:
        """Multiply the unit u by squares toward 1.

        Each step writes u = 1 + pi^w*eps and raises w with a square factor:
        the residue fix first, then 1+pi^(w/2)*s for even w < 2e, or
        1+pi^e*s for a root s of the Artin-Schreier equation at w = 2e.  u
        is a square once w > 2e.  An odd w, or w = 2e without a root, is an
        obstruction.  While the model is built (build=True) the loop stops
        at the first one and returns (0, kind, w, y), kind "odd" or "unram",
        with u*y^2 = 1 + pi^w*eps.  The finished model divides out the
        matching generator (1+pi^w*sym, or delta), flips its bit and goes
        on; it returns (bits, "square", None, y) with bits the coordinates
        of u over the unit generators.
        """
        one, e = self.one, self.e
        bits, y = 0, one
        r = self._residue(u)
        # the square root of a residue is its square: Frobenius is an involution on F_4
        corr = self._rep(_f4_mul(r, r)) if r != 1 else None
        for _ in range(4 * e + 16):
            if corr is not None:
                ci = corr.inverse()
                if build:
                    y = y * ci
                u = u * (ci * ci)
                corr = None
            d = u - one
            w = self.val(d) if d else 2 * e + 1
            if w > 2 * e:
                return bits, "square", None, y
            if build and w & 1:
                return bits, "odd", w, y
            ebar = self._residue(d * self.pi_pow(-w))
            if w & 1:
                for sym in (1, 2):
                    if ebar & sym:
                        idx = self._gen_index[(w, sym)]
                        bits ^= 1 << idx
                        u = u * self._gen_inv[idx]
            elif w < 2 * e:
                corr = one + self.pi_pow(w // 2) * self._rep(_f4_mul(ebar, ebar))
            else:
                c2 = self._c2_residue()
                sols = [s for s in range(1, 1 << self.f) if _f4_mul(s, s) ^ _f4_mul(c2, s) == ebar]
                if sols:
                    corr = one + self.pi_pow(e) * self._rep(sols[0])
                elif build:
                    return bits, "unram", w, y
                else:
                    bits ^= 1
                    u = u * self._gen_inv[0]
        raise RuntimeError("defect loop did not settle")

    # -- construction ----------------------------------------------------

    def _build_dyadic(self) -> None:
        # adjoin the local generators one at a time; an obstruction of the
        # next radicand over the subfield so far gives its new uniformizer
        # (odd defect) or residue generator (unramified defect)
        self._stage(0, 1, 1, self.mrat(2), None)
        one = self.one
        for j, c in enumerate(self.gens):
            e, f, pi, omega = self.e, self.f, self.pi, self.omega
            t = e if c % 2 == 0 else 0
            beta = self._from_coords([int(S == 1 << j) for S in range(self.size)])
            if t & 1:
                self._stage(j + 1, 2 * e, f, beta * self.pi_pow(-((t - 1) // 2)), omega)
                continue
            _, kind, w, y = self._reduce(self.mrat(c) * self.pi_pow(-t), build=True)
            eta = y * beta * self.pi_pow(-(t // 2))
            if kind == "odd":
                self._stage(j + 1, 2 * e, f, (eta - one) * self.pi_pow(-((w - 1) // 2)), omega)
            elif kind == "unram":
                omega = (eta - one) * self.pi_pow(-e)
                self._stage(j + 1, e, 2 * f, pi, omega)
                d = omega * omega - (omega + one)
                if d and self.val(d) < 1:
                    raise RuntimeError("residue generator does not satisfy w^2 = w + 1")
            else:
                raise RuntimeError("locally square radicand in the local basis")

    # -- square class basis and vectors ---------------------------------

    def _delta_and_unit_gens(self) -> None:
        e, f = self.e, self.f
        c2 = self._c2_residue()
        image = {_f4_mul(s, s) ^ _f4_mul(c2, s) for s in range(1 << f)}
        rho = min(s for s in range(1, 1 << f) if s not in image)
        delta = self.one + self.mrat(4) * self._rep(rho)
        _, kind, w, _ = self._reduce(delta, build=True)
        if kind != "unram" or w != 2 * e:
            raise RuntimeError("unramified unit candidate failed")
        gens: list[tuple[str, FieldElement]] = [("D", delta)]
        index: dict[tuple[int, int], int] = {}
        for w in range(1, 2 * e, 2):
            for sym in (1,) if f == 1 else (1, 2):
                elt = self.one + self.pi_pow(w) * self._rep(sym)
                index[(w, sym)] = len(gens)
                gens.append((f"1+pi^{w}" + ("" if sym == 1 else "*w"), elt))
        if len(gens) != e * f + 1:
            raise RuntimeError("unit generator count is not e*f + 1")
        self.unit_gens = gens
        self._gen_index = index
        self._gen_inv = [g.inverse() for _, g in gens]

    def vec_int(self, x: FieldElement) -> int:
        """Square class of x as a bitmask over [pi] + unit generators."""
        v = self.val(x)
        return (v & 1) | (self._reduce(x * self.pi_pow(-v))[0] << 1)

    # -- pairing matrix --------------------------------------------------

    def _char_row(self, b: FieldElement, squares: list[FieldElement]) -> int:
        """The character annihilating the norms of the extension by sqrt(b).

        Every norm s^2 - b*t^2 is a square (t = 0) or t^2 * (x^2 - b) with
        x = s/t, so the classes of x^2 - b, x = 0 included, span the norm
        group mod squares.  The group has index 2 (local class field theory),
        so any dim - 1 independent classes among them span it; squares are
        the x^2 of the fixed x of _build_matrix, tried in order.
        """
        pivots: dict[int, int] = {}
        needed = self.dim - 1
        for sq in squares:
            if _f2_insert(pivots, self.vec_int(sq - b)) and len(pivots) == needed:
                break
        if len(pivots) != needed:
            raise RuntimeError("norm group rank not reached")
        cands = [c for c in range(1, 1 << self.dim)
                 if all((c & r).bit_count() % 2 == 0 for r in pivots.values())]
        if len(cands) != 1:
            raise RuntimeError("norm group annihilator not unique")
        return cands[0]

    def _build_matrix(self) -> None:
        self.basis_names = ["pi"] + [name for name, _ in self.unit_gens]
        self.basis_elts = [self.pi] + [g for _, g in self.unit_gens]
        # x = 0, pi^k*r and 1 + pi^k*r: every level up to the critical one 2e
        zero = self.mrat(0)
        xs = [zero] + [c + self.pi_pow(k) * self._rep(s) for k in range(2 * self.e + 1)
                       for s in range(1, 1 << self.f) for c in (zero, self.one)]
        squares = [x * x for x in xs]
        rows = [0] * self.dim
        rows[1] = 1  # the unramified unit pairs only with odd valuations
        rows[0] = self._char_row(self.pi, squares)
        for i, (_, g) in enumerate(self.unit_gens):
            if i > 0:
                rows[1 + i] = self._char_row(g, squares)
        self.M_rows = rows
        self._validate_matrix()


# -- odd places: the tame closed form ------------------------------------------


class _OddCompletion(_Completion):
    """The completion at an odd p.  Its local generators are at most one
    g = p*g' (e = 2, pi = sqrt(g), else pi = p) and at most one unit u that is
    not a square mod p (f = 2), so beta_S is an integral basis.  Elements are
    integer coordinate lists over beta_S, exact or mod p^n above their
    valuation."""

    _extra = 1

    def __init__(self, gens: tuple[int, ...], p: int):
        super().__init__(gens, p)
        self._ram = sum(1 << j for j, g in enumerate(gens) if g % p == 0)
        self._unr = sum(1 << j for j, g in enumerate(gens) if g % p)
        self.e, self.f = 1 + bool(self._ram), 1 + bool(self._unr)
        self._g1 = self.bprod[self._ram] // p or 1  # g' (1 when e = 1)
        pi = self.mrat(p) if self.e == 1 else [int(S == self._ram) for S in range(self.size)]
        units = ([a] + [int(S == self._unr) for S in range(1, self.size)] for a in range(p))
        self.basis_names = ["pi", "u"]
        self.basis_elts = [pi, next(z for z in units if any(z) and self.vec_int(z) == 2)]
        self.M_rows = [(p**self.f % 4 == 3) | 2, 1]
        self._validate_matrix()

    def mrat(self, q: int) -> list[int]:
        return [q] + [0] * (self.size - 1)

    def mneg(self, z: list[int]) -> list[int]:
        return [-c for c in z]

    def _from_coords(self, z: list[int]) -> list[int]:
        return z

    def vec_int(self, z: list[int]) -> int:
        """Bitmask over [pi, u] of an integral z: v_pi(z) is the least
        e*v_p(z_S) + [g divides beta_S^2], and z/pi^v is a square exactly when
        its residue has square norm to F_p (Serre, A Course in Arithmetic, III)."""
        p, e = self.p, self.e
        v = min(e * _split_val(c, p)[0] + bool(S & self._ram)
                for S, c in enumerate(z) if c)
        # pi^v = (p*g')^s, times pi when v is odd; g'^-s has the class of g'^s
        s, base = v // e, self._ram if v % e else 0
        a, b = z[base] // p**s, z[base | self._unr] // p**s
        norm = a * a - self.bprod[self._unr] * b * b if self._unr else a * self._g1**s
        return (v & 1) | (pow(norm, (p - 1) // 2, p) == p - 1) << 1


# -- model cache ---------------------------------------------------------------

_MODELS: dict[tuple[tuple[int, ...], int], _Completion] = {}  # (gens, p) -> completion


def _model(tower: FieldTower, p: int) -> _Completion:
    """The completion of the tower at p, built once per (local generators, p)
    read off the kept _local_structure: the exact dyadic LocalModel at p = 2,
    the tame _OddCompletion at odd p."""
    key = (_local_structure(tower, p).gens, p)
    md = _MODELS.get(key)
    if md is None:
        md = _MODELS[key] = LocalModel(*key) if p == 2 else _OddCompletion(*key)
    return md


def square_class_vector(x: FieldElement, place: Place) -> tuple[int, ...]:
    """Coordinates of x over the local square class basis at a finite place."""
    if place.kind != "finite":
        raise ValueError("square class vector at a place that is not finite")
    x = place.tower.coerce(x)
    if not x:
        raise ZeroDivisionError("square class of 0")
    md = _model(place.tower, place.p)
    bits = md.vec_of_element(x, place.eps_mask)
    return tuple((bits >> i) & 1 for i in range(md.dim))


def hilbert_symbol_local(a, b, place: Place) -> int:
    """Hilbert symbol (a,b) at a place of the tower: the Hasse invariant of <a, b>."""
    K = place.tower
    a, b = K.coerce(a), K.coerce(b)
    if not a or not b:
        raise ZeroDivisionError("Hilbert symbol of 0")
    out = hasse_invariant([a, b], place)
    if a.is_rational and b.is_rational:
        expect = _symbol_at(a.rational_value(), b.rational_value(), place.p) ** place.degree
        if out != expect:
            raise RuntimeError("local symbol disagrees with rational formula")
    return out


def hasse_invariant(form, place: Place) -> int:
    """Hasse symbol prod_{i<j} (a_i, a_j) of a diagonal form at a place.

    form is a QuadraticForm or a sequence of entries; either is read once as
    a QuadraticForm over the place's tower, so a zero entry raises
    ValueError at every place.  At a real place the symbol is (-1)^(k(k-1)/2)
    with k the form's negatives at the place's embedding (negatives()).  At
    a finite place each entry goes to the completion as it is: embedding
    multiplies it by den^2, a square, so its class needs no rescaling.
    """
    if not isinstance(form, forms.QuadraticForm):
        form = forms.QuadraticForm(place.tower, form)
    elif form.tower is not place.tower:
        form = forms.QuadraticForm(place.tower, form.diagonal)
    if place.kind == "real":
        neg = form.negatives()[place.eps_mask]
        return -1 if (neg * (neg - 1) // 2) % 2 else 1
    md = _model(place.tower, place.p)
    bit, pre = 0, 0
    for c in form.diagonal:
        v = md.vec_of_element(c, place.eps_mask)
        bit ^= md.pair_bits(pre, v)
        pre ^= v
    return -1 if bit else 1


def _norm_primes(tower: FieldTower, elements: Iterable) -> frozenset[int]:
    """2 and every prime dividing the integer norm of an entry's integral
    rescale: the primes of relevant_finite_places.  den is factored first,
    being far smaller than the norm, which holds its primes to a high
    power; those that divide the norm are kept and divided out before the
    rest is factored, so a large prime of den never sends the whole norm
    to sympy (fields.factorize)."""
    primes = {2}
    for c in elements:
        c = tower.coerce(c)
        if not c:
            raise ZeroDivisionError("degenerate entry")
        den, c = c.den, integral_rescale(c)
        n, rest = divmod(fields._norm_nums(c.nums, tower), c.den ** tower.degree)
        if rest:
            raise RuntimeError("norm of an integral rescale is not an integer")
        for p, _ in factorize(den):
            v, n = _split_val(n, p)
            if v:
                primes.add(p)
        primes.update(p for p, _ in factorize(n))
    return frozenset(primes)


def _places_above(tower: FieldTower, primes: Iterable[int]) -> tuple[Place, ...]:
    return tuple(pl for p in sorted(primes) for pl in _local_structure(tower, p).places)


def relevant_finite_places(tower: FieldTower, elements: Iterable) -> tuple[Place, ...]:
    """Places above 2 and above every prime dividing a norm of an entry, in
    increasing order of the prime, so the places above 2 come first.

    At all other finite places the entries are units, so Hasse symbols of
    diagonal forms in the entries are trivially +1 there.  The primes are
    found by _norm_primes, the one routine that QuadraticForm.primes() also
    runs, once per form.
    """
    return _places_above(tower, _norm_primes(tower, elements))


def is_hyperbolic(form) -> bool:
    """Whether a nondegenerate diagonal form is a sum of hyperbolic planes.

    A form of rank 2m is hyperbolic exactly when it has m negative entries
    at every real place, determinant class (-1)^m, and at every finite
    place the Hasse invariant (-1,-1)^(m(m-1)/2) of m hyperbolic planes.
    The real check reads the form's table of negatives (negatives()).  At
    a place P above p, (-1,-1)_P = (-1,-1)_p^deg(P) for rational arguments,
    and (-1,-1)_p is -1 at p = 2 and +1 at every odd p, so the target is -1
    exactly when p = 2 and t * deg(P) is odd, t = m(m-1)/2: no symbol is
    computed and no local model is built for it.
    Once the first two hold, the Hasse invariants agree at every real place
    and are +1 for both outside the form's prime set, primes().  By Hilbert
    reciprocity (O'Meara, Introduction to Quadratic Forms, section 71) the
    Hasse invariants of each form multiply to +1 over all places, so
    agreement at every other place forces agreement at the first relevant
    place, which lies above 2 and is skipped.  When 2 does not split it is
    the only place that needs the dyadic model; when 2 splits, the other
    places above 2 are still compared.
    """
    n = form.rank
    if n % 2:
        return False
    if n == 0:
        return True
    m = n // 2
    if any(neg != m for neg in form.negatives()):
        return False
    ok, _ = fields.is_square(form.det() * ((-1) ** m))
    return ok and finite_hasse_hyperbolic(form, form.primes())


def finite_hasse_hyperbolic(form, primes: Iterable[int]) -> bool:
    """is_hyperbolic's last check alone: the Hasse invariant of a form of
    even rank 2m at every place above `primes` but the first is that of m
    hyperbolic planes, (-1,-1)_p^(m(m-1)/2 * deg(P)).  As (-1,-1)_p is -1
    at p = 2 and +1 at every odd p, that target is -1 exactly when p = 2
    and m(m-1)/2 * deg(P) is odd, with no symbol computed.  `primes` holds
    2 and every prime where the form may differ from m hyperbolic planes:
    the form's own primes() or a set read off the forms it comes from.

    It decides hyperbolicity only for a form already known to have m
    negatives at every real place and determinant class (-1)^m, as the
    skipped place is settled by reciprocity from those two (is_hyperbolic).
    """
    m = form.rank // 2
    t = (m * (m - 1) // 2) % 2
    for place in _places_above(form.tower, primes)[1:]:
        want = -1 if place.p == 2 and t * place.degree % 2 else 1
        if hasse_invariant(form, place) != want:
            return False
    return True


def local_audit(tower: FieldTower, p: int) -> dict:
    """JSON-able description of the splitting and symbol tables above p < 2^64."""
    return _local_audit(tower, fields._bounded(p, "a prime"))


def _local_audit(tower: FieldTower, p: int) -> dict:
    """local_audit as it is: no gate, for the primes _norm_primes finds."""
    st, md = _local_structure(tower, p), _model(tower, p)
    places = [{"e": pl.e, "f": pl.f,
               "signs": [-1 if (pl.eps_mask >> j) & 1 else 1 for j in range(tower.r)]}
              for pl in st.places]
    return {
        "p": p,
        "field": str(tower),
        "local_class_basis": list(st.gens),
        "places": places,
        "square_class_basis": list(md.basis_names),
        "pairing_matrix": [[(r >> j) & 1 for j in range(md.dim)] for r in md.M_rows],
    }
