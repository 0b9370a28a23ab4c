"""Local arithmetic at the places of real multiquadratic fields.

For a tower K = Q(sqrt(d_1),...,sqrt(d_r)) and a rational prime p, the
completions of K above p are classified by the images of the radicand
square classes in Q_p* / (Q_p*)^2.  Elements of a completion are vectors
over the local radicand basis, and Hilbert symbols are the F_2 pairing on
the square class group.  Every pairing matrix is validated (symmetry,
nondegeneracy, (x,-x)=1, and agreement with the closed formula over Q_p
for rational arguments).

At odd p the symbol is the tame symbol: the square class of an integral x
is the parity of its valuation and the quadratic character of the norm of
its unit residue to F_p, both read off its coordinates mod p^(t+1), where
t is the p-adic valuation of the norm of x.

At p = 2 an integral model with coordinates mod 2^N is built, and one
quadratic defect loop (O'Meara, Introduction to Quadratic Forms, section
63) reduces a unit toward 1 by exact square corrections until what is left
is a square or an obstruction, an odd-valuation defect or an unsolvable
Artin-Schreier equation at the critical level 2e.  The obstruction of each
new local generator over the subfield so far gives the next uniformizer or
residue generator; on the finished model the loop divides each obstruction
out by the matching unit generator, which gives the square class vector.
The pairing matrix is found by enumerating norms.  Only this model has a
precision, and one policy: a retry signal from building or using it
doubles N and rebuilds, and after a fixed number of attempts the call
raises RuntimeError.  Nothing is ever decided by a float.  Internal
consistency checks raise RuntimeError, so they also run under python -O.

Isometry and hyperbolicity tests never build that model when 2 does not
split: two forms of equal rank, determinant class and real signatures
have equal Hasse invariants at the first place above 2 once they agree at
every other place, by Hilbert reciprocity (places_to_compare).  Symbols,
Hasse invariants, square class vectors and audits still compute every
place directly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod as _prod
from typing import Iterable, NamedTuple

from . import fields
from .fields import FieldElement, FieldTower, factorize, integral_rescale, sign_at

__all__ = [
    "Place",
    "real_places",
    "splitting",
    "hilbert_symbol_Q",
    "hilbert_symbol_local",
    "hasse_invariant",
    "is_hyperbolic",
    "relevant_finite_places",
    "places_to_compare",
    "square_class_vector",
    "local_audit",
]


class _Precision(Exception):
    """Internal: the stored p-adic digits cannot certify the answer."""


# -- rational Hilbert symbols ---------------------------------------------


def _split_val(q: Fraction, p: int) -> tuple[int, Fraction]:
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_mod8(u: Fraction) -> int:
    # den odd, den^2 = 1 mod 8, so num/den = num*den mod 8
    return (u.numerator * u.denominator) % 8


def _legendre_unit(u: Fraction, p: int) -> int:
    n = (u.numerator * u.denominator) % p
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol_Q(a, b, v="inf") -> int:
    """Hilbert symbol (a,b)_v over Q; v is a prime or "inf"."""
    a, b = Fraction(a), Fraction(b)
    if not a or not b:
        raise ZeroDivisionError("Hilbert symbol of 0")
    if v in ("inf", "real", None):
        return -1 if (a < 0 and b < 0) else 1
    p = int(v)
    va, ua = _split_val(a, p)
    vb, ub = _split_val(b, p)
    if p == 2:
        ea = 1 if _unit_mod8(ua) % 4 == 3 else 0
        eb = 1 if _unit_mod8(ub) % 4 == 3 else 0
        wa = 1 if _unit_mod8(ua) in (3, 5) else 0
        wb = 1 if _unit_mod8(ub) in (3, 5) else 0
        return -1 if (ea * eb + va * wb + vb * wa) % 2 else 1
    sign = 1
    if (va * vb) % 2 and p % 4 == 3:
        sign = -sign
    if vb % 2:
        sign *= _legendre_unit(ua, p)
    if va % 2:
        sign *= _legendre_unit(ub, p)
    return sign


# -- splitting of a prime in a tower --------------------------------------


def _qp_class(q: Fraction, p: int) -> tuple[int, int]:
    v, u = _split_val(q, p)
    if p == 2:
        return (v & 1, _unit_mod8(u))
    return (v & 1, _legendre_unit(u, p))


def _class_mul(c1: tuple, c2: tuple, p: int) -> tuple[int, int]:
    if p == 2:
        return ((c1[0] + c2[0]) & 1, (c1[1] * c2[1]) % 8)
    return ((c1[0] + c2[0]) & 1, c1[1] * c2[1])


class _Structure(NamedTuple):
    gens: tuple[int, ...]       # squarefree ints, a basis of the local classes
    gen_masks: tuple[int, ...]  # per tower radicand: subset of gens matching its class
    e: int
    f: int
    g: int
    place_masks: tuple[int, ...]  # one radicand sign mask per place above p


@lru_cache(maxsize=None)
def _local_structure(tower: FieldTower, p: int) -> _Structure:
    triv = _qp_class(Fraction(1), p)

    def cls(n: int) -> tuple[int, int]:
        return _qp_class(Fraction(n), p)

    # at odd p at most one generator is divisible by p, so that the local
    # generators are one ramified and one unramified radicand at most
    chosen: list[int] = []
    span = {triv}
    for t in sorted(tower.subgroup_classes - {1}):
        c = cls(t)
        if c not in span and (p == 2 or t % p or all(g % p for g in chosen)):
            chosen.append(t)
            span |= {_class_mul(c, s, p) for s in span}
    m = len(chosen)
    size = 1 << m
    sub_cls = {}
    for mask in range(size):
        c = triv
        for j in range(m):
            if (mask >> j) & 1:
                c = _class_mul(c, cls(chosen[j]), p)
        sub_cls[mask] = c
    cls_to_mask = {c: mask for mask, c in sub_cls.items()}
    if len(cls_to_mask) != size:
        raise RuntimeError("local class basis is dependent")
    gen_masks = tuple(cls_to_mask[cls(d)] for d in tower.radicands)
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
    return _Structure(tuple(chosen), gen_masks, e, f, g, tuple(reps))


@dataclass(frozen=True)
class Place:
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


@lru_cache(maxsize=None)
def splitting(tower: FieldTower, p: int) -> tuple[Place, ...]:
    """The places of the tower above p, one per local Galois orbit of sign masks."""
    st = _local_structure(tower, p)
    return tuple(Place(tower, "finite", p, eps, st.e, st.f) for eps in st.place_masks)


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


def _hensel_sqrt(q: Fraction, p: int, digits: int) -> tuple[int, int]:
    """q = p^(2k) u with u a square unit; returns (k, canonical sqrt of u mod p^digits).

    Canonical means stable under raising digits: for odd p the root with the
    smaller residue mod p, for p = 2 the digit-by-digit lift starting at 1.
    """
    v, u = _split_val(q, p)
    if v % 2:
        raise RuntimeError("p-adic square root of odd valuation")
    mod = p**digits
    u_int = u.numerator % mod * pow(u.denominator, -1, mod) % mod
    if p == 2:
        if u_int % 8 != 1:
            raise RuntimeError("2-adic unit is not a square")
        x = 1
        for k in range(3, digits):
            if (x * x - u_int) % (1 << (k + 1)):
                x += 1 << (k - 1)
        return v // 2, x % mod
    r0 = _sqrt_mod_prime(u_int % p, p)
    r0 = min(r0, p - r0)
    x, prec = r0, 1
    inv2 = pow(2, -1, mod)
    while prec < digits:
        prec = min(2 * prec, digits)
        mm = p**prec
        x = (x + u_int * pow(x, -1, mm)) % mm * inv2 % mm
    return v // 2, x % mod


# -- residue field F_2 / F_4 symbols ----------------------------------------
# syms are ints 0..3 meaning a + b*w with bit0 = a, bit1 = b and w^2 = w + 1.


def _f4_mul(x: int, y: int) -> int:
    a0, a1 = x & 1, x >> 1
    b0, b1 = y & 1, y >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 | (c1 << 1)


def _f4_sqrt(x: int) -> int:
    return _f4_mul(x, x)  # Frobenius is an involution on F_4


# -- what the dyadic model and the odd closed form share ----------------------


class _Completion:
    """The completion at p over beta_S = prod_{j in S} sqrt(gens[j]).  A subclass
    sets e, f, M_rows, basis_names and basis_elts (the elements the names stand
    for), and gives mrat, mneg, vec_int and embed on its own element type."""

    def __init__(self, tower: FieldTower, p: int):
        self.tower = tower
        self.p = p
        self.st = st = _local_structure(tower, p)
        self.gens = st.gens
        self.gen_masks = st.gen_masks
        self.m = len(st.gens)
        self.size = 1 << self.m
        self.bprod = tuple(_prod(g for j, g in enumerate(self.gens) if (mask >> j) & 1)
                           for mask in range(self.size))
        self._vec_cache: dict[tuple[int, FieldElement], int] = {}

    def _radicand_root(self, j: int, digits: int) -> tuple[int, int, int]:
        """(M, k, r) with sqrt(d_j) = p^k * r / bprod[M] * beta_M and r the canonical
        root mod p^digits, so a sign mask names the same place in every model."""
        mask = self.gen_masks[j]
        k, root = _hensel_sqrt(Fraction(self.tower.radicands[j] * self.bprod[mask]),
                               self.p, digits)
        return mask, k, root

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
            x = r
            while x:
                h = x.bit_length() - 1
                if h not in pivots:
                    pivots[h] = x
                    break
                x ^= pivots[h]
        if len(pivots) != dim:
            raise RuntimeError("pairing is degenerate")
        # (x, -x) = 1 on every basis element
        for b in self.basis_elts:
            vb = self.vec_int(b)
            vnb = self.vec_int(self.mneg(b))
            if self.pair_bits(vb, vnb):
                raise RuntimeError("(x,-x) != 1 in local pairing")
        # rational arguments must agree with the closed formula over Q_p
        deg = self.e * self.f
        for a, b in ((-1, -1), (-1, 2), (2, 2), (2, 5), (3, 5), (2, 3), (3, 7)):
            got = -1 if self.pair_bits(self.vec_int(self.mrat(a)),
                                       self.vec_int(self.mrat(b))) else 1
            if got != hilbert_symbol_Q(a, b, self.p) ** deg:
                raise RuntimeError("local pairing disagrees with rational Hilbert symbol")

    def vec_of_element(self, x: FieldElement, eps_mask: int) -> int:
        key = (eps_mask, x)
        got = self._vec_cache.get(key)
        if got is None:
            got = self.vec_int(self.embed(x, eps_mask))
            self._vec_cache[key] = got
        return got


# -- the dyadic model ----------------------------------------------------------

# An element is p^shift * sum coeffs[S] * beta_S with integer coeffs known
# mod p^prec.  Since every error term is an integer multiple of p^prec, sums
# and products of such elements are again exact mod the minimum prec; factoring
# p^t out of all coordinates trades t digits of precision for a shift, which
# keeps shifts (and coefficient sizes) bounded during nested constructions.
_Elt = tuple[int, tuple[int, ...], int]  # (shift, coeffs, prec)


class LocalModel(_Completion):
    """Integral model of the completion of a tower at the prime p = 2."""

    def __init__(self, tower: FieldTower, p: int, digits: int):
        super().__init__(tower, p)
        self.N = digits
        self.mod = p**digits
        self._pow_cache: dict[int, int] = {}
        self.one = self.mrat(1)
        self._build_dyadic()
        if self.e != self.st.e or self.f != self.st.f:
            raise RuntimeError("local model disagrees with the splitting type")
        if self.val(self.pi) != 1:
            raise RuntimeError("uniformizer does not have valuation 1")
        if self.val(self.mrat(p)) != self.e:
            raise RuntimeError("valuation of p is not the ramification index")
        self._delta_and_unit_gens()
        self._build_matrix()
        self._build_embedding()

    # -- element arithmetic --------------------------------------------

    def _pp(self, k: int) -> int:
        got = self._pow_cache.get(k)
        if got is None:
            got = self.p**k
            self._pow_cache[k] = got
        return got

    def _extract(self, s: int, cs: list[int], prec: int) -> _Elt:
        if prec < 16:
            raise _Precision("element precision exhausted")
        p = self.p
        if any(c % p for c in cs):
            return (s, tuple(cs), prec)
        if not any(cs):
            return (s, tuple(cs), prec)
        t = prec
        for c in cs:
            if c:
                w = 0
                while c % p == 0:
                    c //= p
                    w += 1
                t = min(t, w)
        if t >= prec:
            # indistinguishable from zero at this precision: keep as stored zero
            return (s, tuple(0 for _ in cs), prec)
        mod = self._pp(prec - t)
        return (s + t, tuple((c // self._pp(t)) % mod for c in cs), prec - t)

    def mrat(self, q) -> _Elt:
        q = Fraction(q)
        zeros = (0,) * (self.size - 1)
        if not q:
            return (0, (0,) + zeros, self.N)
        v, u = _split_val(q, self.p)
        c = u.numerator % self.mod * pow(u.denominator, -1, self.mod) % self.mod
        return (v, (c,) + zeros, self.N)

    def basis_elt(self, mask: int) -> _Elt:
        return (0, tuple(1 if S == mask else 0 for S in range(self.size)), self.N)

    def madd(self, x: _Elt, y: _Elt) -> _Elt:
        sx, cx, px = x
        sy, cy, py = y
        s = min(sx, sy)
        prec = min(px, py)
        mod = self._pp(prec)
        mx = self._pp(sx - s)
        my = self._pp(sy - s)
        return self._extract(s, [(a * mx + b * my) % mod for a, b in zip(cx, cy)], prec)

    def mneg(self, x: _Elt) -> _Elt:
        mod = self._pp(x[2])
        return (x[0], tuple(-c % mod for c in x[1]), x[2])

    def msub(self, x: _Elt, y: _Elt) -> _Elt:
        return self.madd(x, self.mneg(y))

    def mmul(self, x: _Elt, y: _Elt) -> _Elt:
        sx, cx, px = x
        sy, cy, py = y
        prec = min(px, py)
        mod = self._pp(prec)
        out = [0] * self.size
        for S, a in enumerate(cx):
            if a:
                for T, b in enumerate(cy):
                    if b:
                        out[S ^ T] = (out[S ^ T] + a * b * self.bprod[S & T]) % mod
        return self._extract(sx + sy, out, prec)

    def conj(self, x: _Elt, mask: int) -> _Elt:
        s, cs, prec = x
        mod = self._pp(prec)
        return (s, tuple(c if (S & mask).bit_count() % 2 == 0 else -c % mod
                         for S, c in enumerate(cs)), prec)

    def npow(self, x: _Elt, n: int) -> _Elt:
        out, base = self.one, x
        while n:
            if n & 1:
                out = self.mmul(out, base)
            base = self.mmul(base, base)
            n >>= 1
        return out

    def inv(self, x: _Elt) -> _Elt:
        prod = None
        for mask in range(1, self.size):
            c = self.conj(x, mask)
            prod = c if prod is None else self.mmul(prod, c)
        n = x if prod is None else self.mmul(x, prod)
        sn, cn, pn = n
        guard = self._pp(pn // 2)
        if any(c % guard for c in cn[1:]):
            raise _Precision("inverse: norm has irrational residue")
        c0 = cn[0]
        if c0 % guard == 0:
            raise _Precision("inverse of a (nearly) zero element")
        w = 0
        while c0 % self.p == 0:
            c0 //= self.p
            w += 1
        scale: _Elt = (-sn - w, ((pow(c0, -1, self._pp(pn - w))),) + (0,) * (self.size - 1),
                       pn - w)
        return scale if prod is None else self.mmul(prod, scale)

    def pi_pow(self, k: int) -> _Elt:
        got = self._pi_pows.get(k)
        if got is None:
            got = self.npow(self.pi, k) if k >= 0 else self.npow(self._pi_pows[-1], -k)
            self._pi_pows[k] = got
        return got

    def _stage(self, nbits: int, e: int, f: int, pi: _Elt, omega: _Elt | None) -> None:
        """Answer from now on for the subfield generated by the first nbits
        local generators, with ramification e, residue degree f, uniformizer
        pi and residue generator omega (w^2 = w + 1 when f = 2)."""
        self._nbits, self.e, self.f, self.pi, self.omega = nbits, e, f, pi, omega
        self._pi_pows: dict[int, _Elt] = {0: self.one, 1: pi, -1: self.inv(pi)}
        self._c2: int | None = None

    # -- valuations ----------------------------------------------------

    def _norm_fold(self, x: _Elt) -> tuple[int, int, int]:
        cur = x
        for k in range(self._nbits):
            cur = self.mmul(cur, self.conj(cur, 1 << k))
        s, cs, prec = cur
        guard = self._pp(prec // 2)
        if any(c % guard for c in cs[1:]):
            raise _Precision("norm has irrational residue")
        return s, cs[0], prec

    def val(self, x: _Elt) -> int:
        s, c0, prec = self._norm_fold(x)
        if c0 == 0:
            raise _Precision("valuation of a (nearly) zero element")
        w = 0
        while c0 % self.p == 0:
            c0 //= self.p
            w += 1
        if w > prec // 2:
            raise _Precision("valuation beyond certified digits")
        total = s + w  # the fold already accumulated the shifts of all conjugates
        if total % self.f:
            raise RuntimeError("norm valuation not divisible by residue degree")
        return total // self.f

    def is_val_ge(self, x: _Elt, t: int) -> bool:
        # the p-shift alone certifies v_pi(x) >= e*shift >= shift; this also
        # covers near-cancelled elements whose relative precision is too low
        # to norm-fold (exact cancellations leave a single junk top digit)
        if x[0] >= t:
            return True
        s, c0, prec = self._norm_fold(x)
        need = t * self.f - s
        if need <= 0:
            return True
        if need > prec:
            raise _Precision("threshold beyond certified digits")
        return c0 % self._pp(need) == 0

    # -- residue field -------------------------------------------------

    def _rep(self, sym: int) -> _Elt:
        out = self.mrat(sym & 1)
        if sym >> 1:
            if self.omega is None:
                raise RuntimeError("residue symbol needs the residue generator")
            out = self.madd(out, self.omega)
        return out

    def _residue(self, x: _Elt) -> int:
        for sym in range(1, 1 << self.f):
            if self.is_val_ge(self.msub(x, self._rep(sym)), 1):
                return sym
        raise _Precision("unit residue unresolved")

    def _c2_residue(self) -> int:
        """Residue of 2/pi^e, the linear coefficient of the Artin-Schreier
        equation s^2 + c2*s = ebar at the critical level 2e."""
        if self._c2 is None:
            self._c2 = self._residue(self.mmul(self.mrat(2), self.pi_pow(-self.e)))
        return self._c2

    # -- the quadratic defect loop ----------------------------------------

    def _reduce(self, u: _Elt, build: bool = False) -> tuple[int, str, int | None, _Elt]:
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
        corr = self._rep(_f4_sqrt(r)) if r != 1 else None
        for _ in range(4 * e + 16):
            if corr is not None:
                ci = self.inv(corr)
                if build:
                    y = self.mmul(y, ci)
                u = self.mmul(u, self.mmul(ci, ci))
                corr = None
            d = self.msub(u, one)
            if self.is_val_ge(d, 2 * e + 1):
                return bits, "square", None, y
            w = self.val(d)
            if build and w & 1:
                return bits, "odd", w, y
            ebar = self._residue(self.mmul(d, self.pi_pow(-w)))
            if w & 1:
                for sym in (1, 2):
                    if ebar & sym:
                        idx = self._gen_index[(w, sym)]
                        bits ^= 1 << idx
                        u = self.mmul(u, self._gen_inv[idx])
            elif w < 2 * e:
                corr = self.madd(one, self.mmul(self.pi_pow(w // 2), self._rep(_f4_sqrt(ebar))))
            else:
                c2 = self._c2_residue()
                sols = [s for s in range(1, 1 << self.f) if _f4_mul(s, s) ^ _f4_mul(c2, s) == ebar]
                if sols:
                    corr = self.madd(one, self.mmul(self.pi_pow(e), self._rep(sols[0])))
                elif build:
                    return bits, "unram", w, y
                else:
                    bits ^= 1
                    u = self.mmul(u, self._gen_inv[0])
        raise _Precision("defect loop did not settle")

    # -- construction ----------------------------------------------------

    def _build_dyadic(self) -> None:
        # adjoin the local generators one at a time; an obstruction of the
        # next radicand over the subfield so far gives its new uniformizer
        # (odd defect) or residue generator (unramified defect)
        self._stage(0, 1, 1, self.mrat(2), None)
        for j, c in enumerate(self.gens):
            e, f, pi, omega = self.e, self.f, self.pi, self.omega
            t = e if c % 2 == 0 else 0
            beta = self.basis_elt(1 << j)
            if t & 1:
                self._stage(j + 1, 2 * e, f, self.mmul(beta, self.pi_pow(-((t - 1) // 2))), omega)
                continue
            _, kind, w, y = self._reduce(self.mmul(self.mrat(c), self.pi_pow(-t)), build=True)
            eta = self.mmul(y, self.mmul(beta, self.pi_pow(-(t // 2))))
            if kind == "odd":
                pi = self.mmul(self.msub(eta, self.one), self.pi_pow(-((w - 1) // 2)))
                self._stage(j + 1, 2 * e, f, pi, omega)
            elif kind == "unram":
                omega = self.mmul(self.msub(eta, self.one), self.pi_pow(-e))
                self._stage(j + 1, e, 2 * f, pi, omega)
                rel = self.msub(self.mmul(omega, omega), self.madd(omega, self.one))
                if not self.is_val_ge(rel, 1):
                    raise RuntimeError("residue generator does not satisfy w^2 = w + 1")
            else:
                raise RuntimeError("locally square radicand in the local basis")

    # -- square class basis and vectors ---------------------------------

    def _delta_and_unit_gens(self) -> None:
        e, f = self.e, self.f
        c2 = self._c2_residue()
        image = {_f4_mul(s, s) ^ _f4_mul(c2, s) for s in range(1 << f)}
        rho = min(s for s in range(1, 1 << f) if s not in image)
        delta = self.madd(self.one, self.mmul(self.mrat(4), self._rep(rho)))
        _, kind, w, _ = self._reduce(delta, build=True)
        if kind != "unram" or w != 2 * e:
            raise RuntimeError("unramified unit candidate failed")
        gens: list[tuple[str, _Elt]] = [("D", delta)]
        index: dict[tuple[int, int], int] = {}
        for w in range(1, 2 * e, 2):
            for sym in (1,) if f == 1 else (1, 2):
                elt = self.madd(self.one, self.mmul(self.pi_pow(w), self._rep(sym)))
                index[(w, sym)] = len(gens)
                gens.append((f"1+pi^{w}" + ("" if sym == 1 else "*w"), elt))
        if len(gens) != e * f + 1:
            raise RuntimeError("unit generator count is not e*f + 1")
        self.unit_gens = gens
        self._gen_index = index
        self._gen_inv = [self.inv(g) for _, g in gens]

    def vec_int(self, x: _Elt) -> int:
        """Square class of x as a bitmask over [pi] + unit generators."""
        v = self.val(x)
        u = self.mmul(x, self.pi_pow(-v))
        return (v & 1) | (self._reduce(u)[0] << 1)

    # -- pairing matrix --------------------------------------------------

    def _norm_pairs(self):
        base = [self.one, self.pi, self.madd(self.one, self.pi), self.pi_pow(2),
                self.mrat(3), self.mrat(5), self.mrat(7), self.mrat(-1)]
        for j in range(self.m):
            base.append(self.basis_elt(1 << j))
        if self.omega is not None:
            base.append(self.omega)
            base.append(self.madd(self.one, self.omega))
        yield from itertools.product(base, repeat=2)
        rnd = random.Random(770231)
        while True:
            s = (0, tuple(rnd.randrange(64) for _ in range(self.size)), self.N)
            t = (0, tuple(rnd.randrange(64) for _ in range(self.size)), self.N)
            yield s, t

    def _char_row(self, b: _Elt, dim: int) -> int:
        """The character annihilating the norms of the extension by sqrt(b)."""
        pivots: dict[int, int] = {}
        needed = dim - 1
        for s, t in itertools.islice(self._norm_pairs(), 1200):
            n = self.msub(self.mmul(s, s), self.mmul(b, self.mmul(t, t)))
            if not any(n[1]):
                continue
            x = self.vec_int(n)
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

    def _build_matrix(self) -> None:
        self.basis_names = ["pi"] + [name for name, _ in self.unit_gens]
        self.basis_elts = [self.pi] + [g for _, g in self.unit_gens]
        dim = self.dim
        rows = [0] * dim
        rows[1] = 1  # the unramified unit pairs only with odd valuations
        rows[0] = self._char_row(self.pi, dim)
        for i, (_, g) in enumerate(self.unit_gens):
            if i > 0:
                rows[1 + i] = self._char_row(g, dim)
        self.M_rows = rows
        self._validate_matrix()

    # -- embedding of the global field -----------------------------------

    def _build_embedding(self) -> None:
        self.phi_rad: list[_Elt] = []
        for j, d in enumerate(self.tower.radicands):
            mask, k, root = self._radicand_root(j, self.N)
            root_elt: _Elt = (k, (root,) + (0,) * (self.size - 1), self.N)
            phi = self.mmul(root_elt, self.inv(self.basis_elt(mask)))
            diff = self.msub(self.mmul(phi, phi), self.mrat(d))
            if not self.is_val_ge(diff, max(4, self.N // 4)):
                raise RuntimeError("radicand image check failed")
            self.phi_rad.append(phi)
        self._phi_alpha: dict[int, _Elt] = {0: self.one}

    def _phi(self, S: int) -> _Elt:
        got = self._phi_alpha.get(S)
        if got is None:
            j = (S & -S).bit_length() - 1
            got = self.mmul(self._phi(S & (S - 1)), self.phi_rad[j])
            self._phi_alpha[S] = got
        return got

    def embed(self, x: FieldElement, eps_mask: int) -> _Elt:
        acc = self.mrat(0)
        for S, n in enumerate(x.nums):
            if n:
                term = self.mmul(self.mrat(Fraction(n, x.den)), self._phi(S))
                if (S & eps_mask).bit_count() & 1:
                    term = self.mneg(term)
                acc = self.madd(acc, term)
        return acc


# -- odd places: the tame closed form ------------------------------------------


class _OddCompletion(_Completion):
    """The completion at an odd p.  Its local generators are at most one
    g = p*g' (e = 2, pi = sqrt(g), else pi = p) and at most one unit u that is
    not a square mod p (f = 2), so beta_S is an integral basis.  Elements are
    integer coordinate lists over beta_S, exact or mod p^n above their
    valuation."""

    def __init__(self, tower: FieldTower, p: int):
        super().__init__(tower, p)
        self.e, self.f = self.st.e, self.st.f
        self._ram = sum(1 << j for j, g in enumerate(self.gens) if g % p == 0)
        self._unr = sum(1 << j for j, g in enumerate(self.gens) if g % p)
        self._g1 = self.bprod[self._ram] // p or 1  # g' (1 when e = 1)
        self._digits, self._images = 0, []
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

    def vec_int(self, z: list[int]) -> int:
        """Bitmask over [pi, u] of an integral z: v_pi(z) is the least
        e*v_p(z_S) + [g divides beta_S^2], and z/pi^v is a square exactly when
        its residue has square norm to F_p (Serre, A Course in Arithmetic, III)."""
        p, e = self.p, self.e
        v = min(e * _split_val(Fraction(c), p)[0] + bool(S & self._ram)
                for S, c in enumerate(z) if c)
        # pi^v = (p*g')^s, times pi when v is odd; g'^-s has the class of g'^s
        s, base = v // e, self._ram if v % e else 0
        a, b = z[base] // p**s, z[base | self._unr] // p**s
        norm = a * a - self.bprod[self._unr] * b * b if self._unr else a * self._g1**s
        return (v & 1) | (pow(norm, (p - 1) // 2, p) == p - 1) << 1

    def embed(self, x: FieldElement, eps_mask: int) -> list[int]:
        """x * den^2, integral and in the class of x, over beta_S mod p^(t+1),
        where t = v_p(norm) bounds its valuation."""
        nums = [c * x.den for c in x.nums]
        t = _split_val(FieldElement(self.tower, tuple(nums)).rational_norm(), self.p)[0]
        if self._digits <= t:
            # alpha_S = c * beta_M with c a unit mod p^digits, per global basis mask S
            self._digits = digits = max(t + 1, 2 * self._digits)
            mod = self.p**digits
            roots = [(M, r * pow(self.bprod[M] // self.p**k, -1, mod))
                     for M, k, r in (self._radicand_root(j, digits) for j in range(self.tower.r))]
            self._images = [(0, 1)]
            for S in range(1, self.tower.degree):
                M, c = self._images[S & (S - 1)]
                Mj, cj = roots[(S & -S).bit_length() - 1]
                self._images.append((M ^ Mj, c * cj * self.bprod[M & Mj] % mod))
        mod = self.p ** (t + 1)
        z = [0] * self.size
        for S, (c, (M, cS)) in enumerate(zip(nums, self._images)):
            z[M] = (z[M] + (-c if (S & eps_mask).bit_count() & 1 else c) * cS) % mod
        return z


# -- model cache with precision retry ----------------------------------------

_BASE_DIGITS = 256
_ATTEMPTS = 14  # digits up to 2^13 times the base
_MODELS: dict[tuple[FieldTower, int], _Completion] = {}


def _model(tower: FieldTower, p: int, use=lambda md: md):
    """use(md) for the cached local model md of the tower at p.

    Odd primes get the exact _OddCompletion.  At p = 2 the one precision
    policy holds: a _Precision raised while building the model or inside use
    discards the model and rebuilds it with twice the digits; after
    _ATTEMPTS tries the call raises RuntimeError.
    """
    key = (tower, p)
    md = _MODELS.get(key)
    if p != 2:
        if md is None:
            md = _MODELS[key] = _OddCompletion(tower, p)
        return use(md)
    digits = md.N if md is not None else _BASE_DIGITS
    for _ in range(_ATTEMPTS):
        try:
            if md is None:
                md = _MODELS[key] = LocalModel(tower, p, digits)
            return use(md)
        except _Precision:
            _MODELS.pop(key, None)
            md, digits = None, 2 * digits
    raise RuntimeError(f"p-adic precision exhausted for {tower} at {p}")


def square_class_vector(x: FieldElement, place: Place) -> tuple[int, ...]:
    """Coordinates of x over the local square class basis at a finite place."""
    if place.kind != "finite":
        raise RuntimeError("square class vector at a place that is not finite")
    x = place.tower.coerce(x)
    if not x:
        raise ZeroDivisionError("square class of 0")
    bits, dim = _model(place.tower, place.p,
                       lambda md: (md.vec_of_element(x, place.eps_mask), md.dim))
    return tuple((bits >> i) & 1 for i in range(dim))


def hilbert_symbol_local(a, b, place: Place) -> int:
    """Hilbert symbol (a,b) at a place of the tower."""
    K = place.tower
    a = K.coerce(a)
    b = K.coerce(b)
    if not a or not b:
        raise ZeroDivisionError("Hilbert symbol of 0")
    if place.kind == "real":
        sigma = K.embeddings()[place.eps_mask]
        return -1 if (sign_at(a, sigma) < 0 and sign_at(b, sigma) < 0) else 1
    ra, rb = integral_rescale(a), integral_rescale(b)
    out = -1 if _model(K, place.p, lambda md: md.pair_bits(
        md.vec_of_element(ra, place.eps_mask), md.vec_of_element(rb, place.eps_mask))) else 1
    if a.is_rational and b.is_rational:
        expect = hilbert_symbol_Q(a.rational_value(), b.rational_value(),
                                  place.p) ** place.degree
        if out != expect:
            raise RuntimeError("local symbol disagrees with rational formula")
    return out


def hasse_invariant(form, place: Place) -> int:
    """Hasse symbol prod_{i<j} (a_i, a_j) of a diagonal form at a place."""
    entries = list(form.diagonal) if hasattr(form, "diagonal") else list(form)
    K = place.tower
    entries = [K.coerce(c) for c in entries]
    if place.kind == "real":
        neg = sum(1 for c in entries if sign_at(c, K.embeddings()[place.eps_mask]) < 0)
        return -1 if (neg * (neg - 1) // 2) % 2 else 1
    rescaled = [integral_rescale(c) for c in entries]

    def symbol_bit(md: _Completion) -> int:
        bit, pre = 0, 0
        for c in rescaled:
            v = md.vec_of_element(c, place.eps_mask)
            bit ^= md.pair_bits(pre, v)
            pre ^= v
        return bit

    return -1 if _model(K, place.p, symbol_bit) else 1


def relevant_finite_places(tower: FieldTower, elements: Iterable) -> tuple[Place, ...]:
    """Places above 2 and above every prime dividing a norm of an entry, in
    increasing order of the prime, so the places above 2 come first.

    At all other finite places the entries are units, so Hasse symbols of
    diagonal forms in the entries are trivially +1 there.
    """
    primes = {2}
    for c in elements:
        c = tower.coerce(c)
        if not c:
            raise ZeroDivisionError("degenerate entry")
        n = integral_rescale(c).rational_norm()
        if n.denominator != 1:
            raise RuntimeError("norm of an integral rescale is not an integer")
        primes.update(p for p, _ in factorize(int(n)))
    out: list[Place] = []
    for p in sorted(primes):
        out.extend(splitting(tower, p))
    return tuple(out)


def places_to_compare(tower: FieldTower, elements: Iterable) -> tuple[Place, ...]:
    """The finite places at which two diagonal forms in these entries must
    have equal Hasse invariants to be isometric: all relevant finite places
    but the first place above 2.

    Precondition: the two forms agree in rank, determinant square class and
    signature at every real place, which both callers check first.  Their
    Hasse invariants then agree at every real place, and both are +1 outside
    the relevant places.  By Hilbert reciprocity (O'Meara, Introduction to
    Quadratic Forms, section 71) the Hasse invariants of each form multiply
    to +1 over all places, so agreement at every other place forces agreement
    at the one left out.  When 2 does not split, that place is the only one
    that needs the dyadic model; when it splits, the other places above 2
    are still compared.
    """
    return relevant_finite_places(tower, elements)[1:]


def is_hyperbolic(form) -> bool:
    """Whether a nondegenerate diagonal form is a sum of hyperbolic planes.

    Rank, real signatures and determinant class are checked first, so
    Hasse invariants are compared at places_to_compare only: Hilbert
    reciprocity settles the first place above 2.
    """
    K = form.tower
    diag = list(form.diagonal)
    n = len(diag)
    if n % 2:
        return False
    if n == 0:
        return True
    m = n // 2
    for sigma in K.embeddings():
        neg = sum(1 for c in diag if sign_at(c, sigma) < 0)
        if neg != m:
            return False
    det = K.one()
    for c in diag:
        det = det * c
    ok, _ = fields.is_square(det * ((-1) ** m))
    if not ok:
        return False
    t = (m * (m - 1) // 2) % 2
    minus_one = K.rational(-1)
    for place in places_to_compare(K, diag):
        want = hilbert_symbol_local(minus_one, minus_one, place) if t else 1
        if hasse_invariant(diag, place) != want:
            return False
    return True


def local_audit(tower: FieldTower, p: int) -> dict:
    """JSON-able description of the splitting and symbol tables above p."""
    st = _local_structure(tower, p)
    md = _model(tower, p)
    places = [{"e": pl.e, "f": pl.f,
               "signs": [-1 if (pl.eps_mask >> j) & 1 else 1 for j in range(tower.r)]}
              for pl in splitting(tower, p)]
    return {
        "p": p,
        "field": str(tower),
        "local_class_basis": list(st.gens),
        "places": places,
        "square_class_basis": list(md.basis_names),
        "pairing_matrix": [[(r >> j) & 1 for j in range(md.dim)] for r in md.M_rows],
    }
