"""Exact arithmetic in real multiquadratic number fields.

A field Q(sqrt(d_1), ..., sqrt(d_r)) with squarefree, multiplicatively
independent radicands d_j is stored by its canonical ascending radicand
tuple.  Elements are integer numerators over one common denominator in
the 2^r basis

    alpha_S = sqrt(prod_{j in S} d_j),    S a bitmask over the radicands,

so every operation is exact and runs on plain integers; one product
routine (_mul_nums) serves elements and numerator vectors alike, in
closed form over Q and over one radicand.  Real embeddings
are sign vectors on the radicands, indexed by a mask.

Signs, norms, squares, square classes and integrality all run one exact
descent on integer numerators over the prefix towers: y = u + v*sqrt(d),
u and v over the first k - 1 radicands (_halves), with its norm u^2 -
d*v^2 there formed in one place (_norm_step).  sigma(y) has the sign of
sigma(u) where sigma(u^2 - d*v^2) > 0 and that of +-sigma(v) where it is
< 0 (_sign_table, every mask at once: signs and sign_at), so a sign is
exact after r levels and no precision is chosen.
The norm to Q iterates the step (_norm_nums), and squares are decided by
_sqrt_nums.  None of these paths builds a FieldElement but for a
returned root, and none uses floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from numbers import Integral, Rational
from typing import Iterable, NamedTuple

__all__ = [
    "FieldTower",
    "FieldElement",
    "Embedding",
    "make_field",
    "sign_at",
    "signs",
    "is_square",
    "rational_square_classes",
    "subfields_index2",
    "intersect",
    "is_algebraic_integer",
    "integral_rescale",
    "parse_element",
    "element_literal",
    "factorize",
    "squarefree_part",
]

def _sieve(bound: int) -> list[int]:
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, ok in enumerate(flags) if ok]


_SMALL_PRIMES = _sieve(10_000)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of |n| as sorted (prime, exponent) pairs, n != 0."""
    if n == 0:
        raise ValueError("factorize(0)")
    n = abs(n)
    out: list[tuple[int, int]] = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        if n < 10**8:  # no factor below 1e4, so n is prime
            out.append((n, 1))
        elif (power := _prime_power(n)) is not None:
            out.append(power)
        else:
            from sympy import factorint  # heavy import, only for large leftovers

            out.extend(sorted((int(p), int(e)) for p, e in factorint(n).items()))
    return tuple(out)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(n: int) -> tuple[int, int] | None:
    """(q, e) with n = q^e and q < 1e8, for n with no factor below 1e4; q is
    then prime, having no factor up to its square root.  Such a q exceeds
    2^13, which bounds e."""
    for e in range(2, n.bit_length() // 13 + 1):
        q = _iroot(n, e)
        if q < 10**8 and q**e == n:
            return q, e
    return None


def squarefree_part(n: int) -> int:
    """The squarefree t with n = s^2 * t (sign carried by t)."""
    if n == 0:
        raise ValueError("squarefree_part(0)")
    t = -1 if n < 0 else 1
    for p, e in factorize(n):
        if e % 2:
            t *= p
    return t


def _bounded(n: int, what: str) -> int:
    """int(n) for an outside integer n about to be factored (a radicand or a
    prime) with |n| < 2^64; else ValueError, as factoring has no bound on its
    work on a large semiprime, or TypeError for a bool, float or str (_exact).
    Public entries call it first; what a tower derives passes no gate."""
    n = int(_exact(n, Integral))
    if abs(n) >= 2**64:
        raise ValueError(f"{what} takes values below 2^64, got {n}")
    return n


def _sqfree_mul(a: int, b: int) -> int:
    # product of two squarefree positives, reduced squarefree; no factoring needed
    g = gcd(a, b)
    return (a // g) * (b // g)


def _closure(gens: Iterable[int]) -> frozenset[int]:
    """Subgroup of squarefree positive integers generated under reduced product."""
    group = {1}
    for t in gens:
        if t not in group:
            group |= {_sqfree_mul(t, h) for h in frozenset(group)}
    return frozenset(group)


def _exact(q, kind=Rational):
    """q itself if it is a `kind` (numbers.Rational or numbers.Integral) other
    than a bool.  A bool, float or str raises TypeError: it would be read at
    a value the caller may not have meant (a float at its binary value)."""
    if isinstance(q, bool) or not isinstance(q, kind):
        raise TypeError(f"expected {kind.__name__.lower()} value, not {type(q).__name__}")
    return q


class Embedding(NamedTuple):
    """A real embedding of a tower: radicand j maps to (-1)^bit_j(mask) * sqrt(d_j)."""

    tower: "FieldTower"
    mask: int

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(-1 if (self.mask >> j) & 1 else 1 for j in range(self.tower.r))

    def __repr__(self) -> str:
        return f"Embedding({self.tower!r}, signs={self.signs})"


class FieldTower:
    """Canonical multiquadratic tower; construct through make_field()."""

    __slots__ = (
        "radicands",
        "r",
        "degree",
        "basis_radicand",
        "basis_class",
        "basis_scale",
        "class_to_mask",
        "_embeddings",
        "_subfields",
        "_maps",
        "_zero",
        "_one",
        "_hash",
    )

    def __init__(self, radicands: tuple[int, ...], _token: object = None):
        if _token is not _TOKEN:
            raise TypeError("use make_field() to construct towers")
        self.radicands = radicands
        self.r = len(radicands)
        self.degree = 1 << self.r
        prods = []
        for mask in range(self.degree):
            m = 1
            for j in range(self.r):
                if (mask >> j) & 1:
                    m *= radicands[j]
            prods.append(m)
        self.basis_radicand = tuple(prods)  # alpha_S^2, not necessarily squarefree
        # the class of alpha_S^2 folds _sqfree_mul over S's radicands, so no
        # product is factored.  Squarefree radicands are dependent exactly
        # when a class repeats or is 1; a square class shows one that is not
        # squarefree, as in (2, 8)
        cls = [1]
        for S in range(1, self.degree):
            cls.append(_sqfree_mul(cls[S & (S - 1)], radicands[(S & -S).bit_length() - 1]))
        self.basis_class = tuple(cls)
        self.basis_scale = tuple(isqrt(m // t) for m, t in zip(prods, cls))
        self.class_to_mask = {t: S for S, t in enumerate(cls)}
        if len(self.class_to_mask) != self.degree or any(isqrt(t) ** 2 == t for t in cls[1:]):
            raise ValueError("radicands not independent")
        self._embeddings = tuple(Embedding(self, e) for e in range(self.degree))
        self._subfields: tuple[FieldTower, ...] | None = None  # see subfields_index2
        self._maps: dict[FieldTower, tuple] = {}  # subfield -> _subfield_map's map
        self._zero = FieldElement(self, (0,) * self.degree)
        self._one = FieldElement(self, (1,) + (0,) * (self.degree - 1))
        self._hash = hash(radicands)

    # -- constructors -------------------------------------------------

    def element(self, coeffs: Iterable) -> "FieldElement":
        cs = [Fraction(_exact(c)) for c in coeffs]
        if len(cs) != self.degree:
            raise ValueError("coefficient vector has wrong length")
        den = lcm(*(c.denominator for c in cs))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def rational(self, q) -> "FieldElement":
        if type(q) is not int:
            q = Fraction(_exact(q))
            return FieldElement(self, (q.numerator,) + self._zero.nums[1:], q.denominator)
        return FieldElement(self, (q,) + self._zero.nums[1:])

    def sqrt(self, q) -> "FieldElement":
        """sqrt(q) for positive rational q whose square class lies in the tower."""
        q = Fraction(_exact(q))
        if q <= 0:
            raise ValueError("sqrt of a nonpositive rational")
        n = q.numerator * q.denominator
        t = squarefree_part(_bounded(n, "sqrt"))
        # sqrt(q) = isqrt(n // t) / den * sqrt(t)
        return FieldElement(self, *_term_nums(self, {t: (isqrt(n // t), q.denominator)}))

    def coerce(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.tower is self:
                return value
            return value.express_in(self)
        return self.rational(value)

    # -- structure ----------------------------------------------------

    @property
    def subgroup_classes(self) -> frozenset[int]:
        return frozenset(self.basis_class)

    def embeddings(self) -> tuple[Embedding, ...]:
        return self._embeddings

    @property
    def identity_embedding(self) -> Embedding:
        return self._embeddings[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldTower) and self.radicands == other.radicands

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldTower{self.radicands}"

    def __str__(self) -> str:
        if self.r == 0:
            return "Q"
        return "Q(" + ",".join(f"sqrt({d})" for d in self.radicands) + ")"


_TOKEN = object()
_TOWERS: dict[tuple[int, ...], FieldTower] = {}  # classes as given, canonical radicands -> tower


def make_field(raw_radicands: Iterable[int]) -> FieldTower:
    """Canonical tower containing sqrt(d) for every requested d, the entry
    for radicands from outside.

    Radicands are integers (a bool, float or str raises TypeError).  One of
    2^64 or more (_bounded) or one that is not positive is refused before
    anything is factored; the rest are reduced to squarefree parts and
    handed to _class_tower, which keeps the towers.  make_field keeps
    nothing itself, so every call passes the gate and a refusal leaves no
    trace.

    >>> make_field([2, 3]).radicands
    (2, 3)
    >>> make_field([8]).radicands
    (2,)
    >>> make_field([2, 3, 6]).radicands
    (2, 3)
    >>> make_field([6, 10, 15]) is make_field([10, 15])
    True
    """
    raw = [d if type(d) is int else int(_exact(d, Integral)) for d in raw_radicands]
    _bounded(max(raw, default=0), "a radicand")
    for d in raw:
        if d <= 0:
            raise ValueError("field not totally real / unsupported: radicand %d" % d)
    return _class_tower(sorted({squarefree_part(d) for d in raw} - {1}))


def _class_tower(classes: list[int]) -> FieldTower:
    """The tower of squarefree classes > 1, closed and reduced to the
    canonical basis (the ascending greedy independent set of the subgroup,
    so equal fields get equal tuples) with no gate and no factoring: the
    classes have passed a gate or a tower derived them itself.  It owns the
    one tower table, _TOWERS, keyed by the classes as given and by the
    canonical radicands, so each tower is built once.  A tower keeps every
    table it builds for itself: its basis classes and scales, embeddings,
    zero and one, subfields_index2 and its maps to subfields
    (_subfield_map); a subfield inherits none of them."""
    key = tuple(classes)
    tower = _TOWERS.get(key)
    if tower is None:
        picked: list[int] = []
        span = frozenset({1})
        for t in sorted(_closure(classes) - {1}):
            if t not in span:
                picked.append(t)
                span = _closure(span | {t})
        radicands = tuple(picked)
        tower = _TOWERS.get(radicands)
        if tower is None:
            tower = _TOWERS[radicands] = FieldTower(radicands, _TOKEN)
        _TOWERS[key] = tower
    return tower


def _term_nums(tower: FieldTower, terms: dict[int, tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """(nums, den) of the sum of n/d * sqrt(cls) over `terms`, {cls: (n, d)}
    with d > 0, as integer numerators over the tower's basis and the lcm of
    the term denominators: sqrt(cls) = alpha_T / scale_T, T the mask of cls.
    A nonzero term whose class is not in the tower raises ValueError."""
    parts = []
    for cls, (n, d) in terms.items():
        if n:
            T = tower.class_to_mask.get(cls)
            if T is None:
                raise ValueError(f"sqrt({cls}) does not lie in {tower}")
            parts.append((T, n, d * tower.basis_scale[T]))
    den = lcm(*(d for _, _, d in parts))
    nums = [0] * tower.degree
    for T, n, d in parts:
        nums[T] += n * (den // d)
    return tuple(nums), den


def _mul_nums(a, b, rad: tuple[int, ...]) -> list[int]:
    """Numerators of the product of two numerator vectors over one tower,
    rad its basis_radicand table: alpha_S * alpha_T = rad[S & T] * alpha_{S ^ T}.
    No denominator is formed and no content is divided out.

    One and two numerators are multiplied in closed form, (a0 + a1*alpha) *
    (b0 + b1*alpha) = a0*b0 + rad[1]*a1*b1 + (a0*b1 + a1*b0)*alpha, with no
    loop set up; from four on, the double loop skips the zeros of both."""
    n = len(a)
    if n == 2:
        a0, a1 = a
        b0, b1 = b
        return [a0 * b0 + a1 * b1 * rad[1], a0 * b1 + a1 * b0]
    if n == 1:
        return [a[0] * b[0]]
    out = [0] * n
    nzb = [(T, y) for T, y in enumerate(b) if y]
    for S, x in enumerate(a):
        if x:
            for T, y in nzb:
                out[S ^ T] += x * y * rad[S & T]
    return out


def _adjugate(nums, rad: tuple[int, ...]) -> tuple[list[int], int]:
    """(Q, e): integer numerators Q and a nonzero integer e with
    nums * Q = e, for a nonzero numerator vector over a tower whose
    basis_radicand table is rad (or its first 2^k, as in _norm_nums), with
    no common factor left in Q and e.

    Q is a product of conjugates, found by descending the tower one
    radicand at a time: with y fixed by sigma_k for every k > j,
    y * sigma_j(y) is fixed by sigma_j as well, so after the last radicand
    y = nums * Q is rational.
    """
    Q = None
    y = nums
    for j in reversed(range(len(nums).bit_length() - 1)):
        h = 1 << j
        if any(y[h:]):  # y moves under sigma_j
            c = [-n if S & h else n for S, n in enumerate(y)]
            Q = c if Q is None else _mul_nums(Q, c, rad)
            y = _mul_nums(y, c, rad)
    if Q is None:
        Q = [1] + [0] * (len(nums) - 1)
    e = y[0]
    if not e or any(y[1:]):
        raise RuntimeError("conjugate product must be a nonzero rational")
    g = gcd(e, *Q)
    return [q // g for q in Q], e // g


def _norm_step(u, v, d: int, rad: tuple[int, ...]) -> list[int]:
    """Numerators of u^2 - d*v^2, the norm of u + v*sqrt(d) to the tower of
    the numerators u and v (rad its basis_radicand), the one place it is
    formed: one loop over the pairs {S, T} of masks, as alpha_S * alpha_T =
    rad[S & T] * alpha_{S ^ T}, and closed forms at one and two numerators."""
    n = len(u)
    if n == 1:
        return [u[0] * u[0] - d * v[0] * v[0]]
    if n == 2:
        (a0, a1), (b0, b1), r = u, v, rad[1]
        return [a0 * a0 + r * a1 * a1 - d * (b0 * b0 + r * b1 * b1), 2 * (a0 * a1 - d * b0 * b1)]
    out = [0] * n
    for S in range(n):
        a, b = u[S], v[S]
        if a or b:
            out[0] += (a * a - d * b * b) * rad[S]
            for T in range(S + 1, n):
                out[S ^ T] += 2 * (a * u[T] - d * b * v[T]) * rad[S & T]
    return out


def _norm_nums(nums, tower: FieldTower) -> int:
    """The norm to Q of sum_S nums[S] * alpha_S, an integer, by descent:
    y = u + v*sqrt(d) over the prefix tower (as in _halves) has the norm of
    u^2 - d*v^2 (_norm_step) there, so each step halves the numerators.
    nums may be the first 2^k numerators: the norm is then taken from the
    subfield of the first k radicands."""
    rad = tower.basis_radicand
    y = nums
    while len(y) > 1:
        h = len(y) >> 1
        y = _norm_step(y[:h], y[h:], rad[h], rad)
    return y[0]


class FieldElement:
    """Element of a FieldTower as integer numerators over one common denominator.

    The element is sum_S nums[S] * alpha_S / den.  The constructor keeps
    den > 0 and gcd(den, *nums) == 1 (zero has den == 1), so two elements of
    one tower are equal exactly when their (den, nums) are.  Across towers,
    equality and hashing use a tower-independent integer key, so the same
    number compares equal in different ambient towers; a rational element
    hashes as its Fraction, so it also hashes equal to the int or Fraction
    that it equals.
    """

    __slots__ = ("tower", "nums", "den")

    def __init__(self, tower: FieldTower, nums: tuple[int, ...], den: int = 1):
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        self.tower = tower
        self.nums = nums
        self.den = den

    # -- canonical view ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients over the alpha basis."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def canonical_terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Sorted (square class, coefficient of sqrt(class)) pairs, nonzero only."""
        den, terms = self._key()
        return tuple((t, Fraction(n, den)) for t, n in terms)

    def _key(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        # (den, sorted (class, numerator of sqrt(class))) in lowest terms
        t = self.tower
        terms = [(t.basis_class[S], n * t.basis_scale[S]) for S, n in enumerate(self.nums) if n]
        g = gcd(self.den, *(n for _, n in terms))
        if g != 1:
            terms = [(c, n // g) for c, n in terms]
        terms.sort()
        return self.den // g, tuple(terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            if other.tower is self.tower:
                return self.den == other.den and self.nums == other.nums
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return self.is_rational and Fraction(self.nums[0], self.den) == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(Fraction(self.nums[0], self.den))
        return hash(self._key())

    def __bool__(self) -> bool:
        return any(self.nums)

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other) -> tuple["FieldElement", "FieldElement"]:
        if not isinstance(other, FieldElement):
            if isinstance(other, (int, Fraction)):
                return self, self.tower.rational(other)
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.tower is self.tower:
            return self, other
        try:
            return self, other.express_in(self.tower)
        except ValueError:
            return self.express_in(other.tower), other

    def __add__(self, other, sign: int = 1):
        a, b = self._pair(other)
        if a.den == b.den:
            return FieldElement(a.tower, tuple(x + sign * y for x, y in zip(a.nums, b.nums)),
                                a.den)
        g = gcd(a.den, b.den)
        ma, mb = b.den // g, sign * (a.den // g)
        return FieldElement(a.tower, tuple(x * ma + y * mb for x, y in zip(a.nums, b.nums)),
                            a.den * ma)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.tower, tuple(n * other.numerator for n in self.nums),
                                self.den * other.denominator)
        a, b = self._pair(other)
        return FieldElement(a.tower, tuple(_mul_nums(a.nums, b.nums, a.tower.basis_radicand)),
                            a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """1/x = den * Q / e, with (Q, e) the integer adjugate of x's numerators."""
        if not self:
            raise ZeroDivisionError("division by zero element")
        Q, e = _adjugate(self.nums, self.tower.basis_radicand)
        return FieldElement(self.tower, tuple(q * self.den for q in Q), e)

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.tower.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def express_in(self, target: FieldTower) -> "FieldElement":
        """Rewrite over another tower; raises ValueError if not contained."""
        if target is self.tower:
            return self
        src = self.tower
        # n * alpha_S / den = n * scale_S / den * sqrt(class_S)
        terms = {src.basis_class[S]: (n * src.basis_scale[S], self.den)
                 for S, n in enumerate(self.nums)}
        return FieldElement(target, *_term_nums(target, terms))

    def __repr__(self) -> str:
        return f"<{element_literal(self)} in {self.tower}>"


# -- embeddings and certified signs -------------------------------------


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _sign_table(y, rad: tuple[int, ...]) -> list[int]:
    """The sign of sigma_m(y) at every mask m, for y integer numerators over
    the first k radicands (rad the tower's basis_radicand).  With y = u +
    v*sqrt(d) (_halves), sigma_m(y) = sigma(u) + s*sigma(v)*sqrt(d), s = -1
    at the masks with bit k - 1: it has the sign of sigma(u) where
    sigma(u^2 - d*v^2) > 0 and of s*sigma(v) where that is < 0, so the
    tables of u^2 - d*v^2, and of u and v where read, over the prefix
    tower give y's.  Two numerators are read in closed form."""
    n = len(y)
    if n == 1:
        return [_sign(y[0])]
    if n == 2:
        a, b = y
        if not (a and b):
            return [_sign(a or b), _sign(a or -b)]
        return [_sign(a)] * 2 if a * a > rad[1] * b * b else [_sign(b), _sign(-b)]
    h = n >> 1
    u, v = y[:h], y[h:]
    if not any(v):
        su = _sign_table(u, rad)
        return su + su
    sn = _sign_table(_norm_step(u, v, rad[h], rad), rad)
    su = _sign_table(u, rad) if 1 in sn else sn
    sv = _sign_table(v, rad) if -1 in sn else sn
    lo, hi = [], []
    for a, b, c in zip(su, sv, sn):
        lo.append(a if c > 0 else b)
        hi.append(a if c > 0 else -b)
    return lo + hi


def signs(x: FieldElement) -> tuple[int, ...]:
    """Certified sign of x at every real embedding, indexed by its mask:
    that of x's numerators (den > 0), by the descent of _sign_table.  A
    nonzero x is nonzero at every embedding; x = 0 gives all zeros.  Only
    integers are used, and over Q the one sign is the numerator's."""
    return tuple(_sign_table(x.nums, x.tower.basis_radicand))


def sign_at(x: FieldElement, sigma: Embedding) -> int:
    """Certified sign of sigma(x): signs(x) read at sigma's mask."""
    if sigma.tower is not x.tower:
        raise ValueError("embedding belongs to a different tower")
    return signs(x)[sigma.mask]


# -- square testing ------------------------------------------------------


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den with the common factor divided out and den > 0."""
    g = -gcd(den, *nums) if den < 0 else gcd(den, *nums)
    return ([n // g for n in nums], den // g) if g != 1 else (nums, den)


def _halves(y, rad: tuple[int, ...]) -> tuple[list[int], list[int], int, list[int] | None]:
    """(u, v, d, u^2 - d*v^2, or None if v = 0) for y = u + v*sqrt(d), y
    integer numerators over the first k radicands (rad the tower's
    basis_radicand), u and v over the first k - 1 and d the k-th."""
    h = len(y) >> 1
    u, v = list(y[:h]), list(y[h:])
    if not any(v):
        return u, v, rad[h], None
    return u, v, rad[h], _norm_step(u, v, rad[h], rad)


def _sqrt_nums(y, rad: tuple[int, ...]) -> tuple[list[int], int] | None:
    """(nums, den) in lowest terms with (nums / den)^2 = y, y integer
    numerators over the first k radicands, or None if y is no square there.
    Over Q the root is isqrt(y).  Above, y = u + v*sqrt(d) (_halves): if
    v = 0, the root is that of u, or (p/d)*sqrt(d) for p that of u*d; else
    u^2 - d*v^2 = s^2 and a branch p^2 = (u + s)/2, then (u - s)/2, give
    p + (v/2p)*sqrt(d) (p != 0: the branches multiply to d*v^2/4).  A branch
    is scaled by c^2, c = 2 * den(s) > 0, to integers, which scales its root
    by c (by induction), and 1/p is read off _adjugate.  These are the roots
    of the FieldElement descent kept in tests/oracles.py, one for one.
    """
    if len(y) == 1:
        s = isqrt(y[0]) if y[0] >= 0 else -1
        return ([s], 1) if s * s == y[0] else None
    u, v, d, n = _halves(y, rad)
    if n is None:
        root = _sqrt_nums(u, rad)
        if root is not None:
            return root[0] + v, root[1]
        root = _sqrt_nums([d * a for a in u], rad)
        return None if root is None else _lowest(v + root[0], root[1] * d)
    root = _sqrt_nums(n, rad)
    if root is None:
        return None
    sn, sd = root
    for sign in (1, -1):
        root = _sqrt_nums([2 * sd * (a * sd + sign * b) for a, b in zip(u, sn)], rad)
        if root is not None:  # p = pn / (2 * sd * pd), and pn * Q = e
            pn, pd = root
            Q, e = _adjugate(pn, rad)
            b = [2 * (sd * pd) ** 2 * a for a in _mul_nums(v, Q, rad)]  # v/2p = b / den
            return _lowest([a * e for a in pn] + b, 2 * sd * pd * e)
    return None


def is_square(x) -> tuple[bool, FieldElement | None]:
    """Exact square test with verified witness.

    x is a FieldElement, or an int or Fraction over Q (_exact).  The root
    of nums/den is that of nums*den (_sqrt_nums) over den, checked here on
    numerators before a FieldElement is built for it: a root whose square
    is not nums*den raises RuntimeError, also under python -O.

    >>> two = make_field([2])
    >>> ok, w = is_square(two.element([3, 2]))
    >>> ok, w == two.element([1, 1])
    (True, True)
    """
    x = x if isinstance(x, FieldElement) else make_field([]).rational(x)
    rad, y = x.tower.basis_radicand, [n * x.den for n in x.nums]
    root = _sqrt_nums(y, rad)
    if root is None:
        return False, None
    nums, den = root
    if _mul_nums(nums, nums, rad) != [n * den * den for n in y]:
        raise RuntimeError("square witness check failed")
    return True, FieldElement(x.tower, tuple(nums), den * x.den)


def rational_square_classes(x) -> frozenset[int]:
    """Squarefree q, sign kept, with q*x a square in x's tower: empty, or a
    coset of the 2^r rational classes that are squares there (x as in
    is_square).  On numerators, as in _sqrt_nums: x = u + v*sqrt(d), v != 0,
    needs u^2 - d*v^2 = s^2 in F, and as (u +- s)/2 multiply to d*v^2/4,
    q*x is a square iff q or q*d times (u + s)/2 (or u, if v = 0) is one.

    >>> two = make_field([2])
    >>> [sorted(rational_square_classes(x))
    ...  for x in (two.element([3, 2]), two.rational(6), two.element([2, 1]))]
    [[1, 2], [3, 6], []]
    """
    x = x if isinstance(x, FieldElement) else make_field([]).rational(x)
    if not x:
        raise ValueError("rational_square_classes(0)")
    rad = x.tower.basis_radicand
    y, den, ds = x.nums, x.den, []
    while len(y) > 1:
        y, _, d, n = _halves(y, rad)
        ds.append(d)
        if n is not None:
            root = _sqrt_nums(n, rad)
            if root is None:
                return frozenset()
            sn, sd = root  # (u + s)/2 = (u * sd + sn) / (2 * sd)
            y = [a * sd + b for a, b in zip(y, sn)]
            den *= 2 * sd
    q = squarefree_part(y[0] * den)
    return frozenset(_sqfree_mul(abs(q), t) * (1 if q > 0 else -1) for t in _closure(ds))


# -- subfield lattice ----------------------------------------------------


def subfields_index2(tower: FieldTower) -> list[FieldTower]:
    """The 2^r - 1 index-2 subfields (fixed fields of the order-2 subgroups).

    The e-th one is fixed by the embedding of mask e.  The list is built
    once per tower and kept on it; each call returns a fresh copy."""
    if tower._subfields is None:
        tower._subfields = tuple(
            _class_tower([tower.basis_class[S] for S in range(tower.degree)
                          if (S & e).bit_count() % 2 == 0 and tower.basis_class[S] > 1])
            for e in range(1, tower.degree))
    return list(tower._subfields)


def _subfield_map(K: FieldTower, F: FieldTower) -> tuple[int | None, int, list[tuple]]:
    """(a, m, parts): K's basis map to its subtower F, built once per (K, F)
    and kept on K.  A basis element alpha_S = scale_S * sqrt(t_S) of K with
    t_S a class of F is (scale_S / scale'_T) * alpha'_T, T the mask of t_S
    in F, and gives the part (S, T, 0, mult) with mult = scale_S * m /
    scale'_T.  When F has index 2, a is the least class of K outside F and
    each other alpha_S, with t_S * a = g^2 * t' and g = gcd(t_S, a), is
    (scale_S * g / a) * sqrt(t') * sqrt(a), the part (S, T, 1, mult) for T
    the mask of t' in F; otherwise a is None and such masks have no part.
    m is the least common denominator of the multipliers.  Both
    _over_subfield and diagrams._rescaled_gram read their maps here."""
    basis = K._maps.get(F)
    if basis is None:
        outside = K.subgroup_classes - F.subgroup_classes
        a = min(outside) if F.degree * 2 == K.degree else None
        parts = []  # (S, T, 0 or 1, multiplier of alpha_S as num, den)
        for S, t in enumerate(K.basis_class):
            side = t in outside
            if side and a is None:
                continue
            g = gcd(t, a) if side else 1
            T = F.class_to_mask[(t // g) * (a // g) if side else t]
            parts.append((S, T, side, K.basis_scale[S] * g, (a if side else 1) * F.basis_scale[T]))
        m = lcm(*(d for *_, d in parts))
        basis = K._maps[F] = (a, m, [(S, T, side, num * (m // d))
                                     for S, T, side, num, d in parts])
    return basis


def _over_subfield(x: FieldElement, F: FieldTower) -> tuple[int, list[int], list[int], int]:
    """(a, u, v, den): x = (u + v*sqrt(a)) / den, u and v numerators over
    the index-2 subtower F, a the least class of x's tower K outside F, by
    K's basis map to F (_subfield_map): each numerator of x goes to u or to
    v with an integer multiplier."""
    a, m, parts = _subfield_map(x.tower, F)
    uv = ([0] * F.degree, [0] * F.degree)
    for S, T, side, mult in parts:
        uv[side][T] += x.nums[S] * mult
    return a, uv[0], uv[1], x.den * m


def intersect(f1: FieldTower, f2: FieldTower) -> FieldTower:
    common = f1.subgroup_classes & f2.subgroup_classes
    return _class_tower(sorted(common - {1}))


# -- integrality ---------------------------------------------------------


def is_algebraic_integer(x) -> bool:
    """True iff x (as in is_square) is a root of a monic integer polynomial.

    By descent on numerators: x = u + v*sqrt(d) over the prefix tower F
    has characteristic polynomial t^2 - 2u*t + (u^2 - d*v^2) over F, so x
    is integral iff 2u and u^2 - d*v^2 are (u, if v = 0); over Q, iff x is
    an integer.  Integer coefficients end a branch: every alpha_S is integral.

    >>> t = make_field([5])
    >>> is_algebraic_integer(t.element([Fraction(1, 2), Fraction(1, 2)]))
    True
    >>> is_algebraic_integer(t.rational(Fraction(1, 2)))
    False
    """
    x = x if isinstance(x, FieldElement) else make_field([]).rational(x)
    rad, todo = x.tower.basis_radicand, [(x.nums, x.den)]
    while todo:
        y, den = _lowest(*todo.pop())
        if den != 1:
            if len(y) == 1:
                return False
            u, v, _, n = _halves(y, rad)
            todo += [(u, den)] if n is None else [([2 * a for a in u], den), (n, den * den)]
    return True


def integral_rescale(x: FieldElement) -> FieldElement:
    """x times a rational square, chosen so the coefficients are integers
    with squarefree content.  Same square class, algebraic integer output."""
    if not x:
        raise ValueError("cannot rescale 0")
    # den is the lcm of the coefficient denominators, so x * den^2 = nums * den,
    # whose content is den * gcd(nums), two coprime factors
    nums = tuple(n * x.den for n in x.nums)
    s = 1
    for p, e in factorize(x.den) + factorize(gcd(*x.nums)):
        s *= p ** (e // 2)
    return FieldElement(x.tower, nums, s * s)


# -- element literals ----------------------------------------------------

# one signed term: n or n/d, optionally times f(k), or f(k) alone, for f
# in the alternatives filled in ("sqrt", "sqrt|cospi"), in ASCII digits;
# groups: sign, n, d, f, k, f, k
_TERM = r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?(?:\*({0})\(([0-9]+)\))?|({0})\(([0-9]+)\))"
_TERM_RE = re.compile(_TERM.format("sqrt"))
_SPACE = re.compile(r"(?<![0-9]) | (?![0-9])")  # a space not between two digits
# a digit run of outside input is at most this long: below the least limit
# that sys.set_int_max_str_digits accepts (640), so int() never meets one
_DIGITS_BOUND = 600


def _sum_terms(text: str, pattern: re.Pattern, fail, cos=None) -> dict[int, tuple[int, int]]:
    """The signed sum of `pattern`'s terms (_TERM) in text as {class: (num,
    den)}, den > 0, summed per square class in integers: the one tokenizer
    of element literals and weights.  sqrt(k) is isqrt(k // t) * sqrt(t), t
    the squarefree part of k; cospi(m) is cos[m].  Whitespace is dropped
    (s is what is left), but for one space kept between two digits.  The
    first failure raises fail(reason, s, pos), pos where its term starts:
    "term" (none there), "unsigned" (no sign, no term, pos > 0), "sign" (a
    later term without one, or that space), "den" (a zero denominator),
    "long" (a digit run longer than _DIGITS_BOUND, before int() reads it),
    "root" (sqrt(0)), "big" (sqrt(k) refused by _bounded, before k is
    factored), "cospi" (m not in cos).
    """
    s = _SPACE.sub("", " ".join(text.split()))
    acc: dict[int, tuple[int, int]] = {}
    pos = 0
    while pos < len(s):
        m = pattern.match(s, pos)
        if m is None:
            raise fail("sign" if s[pos] == " " else
                       "unsigned" if pos and s[pos] not in "+-" else "term", s, pos)
        sign, n, d, f, k, f2, k2 = m.groups()
        if pos and not sign:
            raise fail("sign", s, pos)
        # a term within the bound holds no longer run: one len() for most terms
        if len(m[0]) > _DIGITS_BOUND and max(len(g or "") for g in (n, d, k, k2)) > _DIGITS_BOUND:
            raise fail("long", s, pos)
        n, d = (-1 if sign == "-" else 1) * int(n or 1), int(d or 1)
        if not d:
            raise fail("den", s, pos)
        f, k = f or f2, int(k or k2 or 0)
        if f == "cospi":
            if k not in cos:
                raise fail("cospi", s, pos)
            terms = cos[k]
        elif f:
            if not k:
                raise fail("root", s, pos)
            try:
                t = squarefree_part(_bounded(k, "sqrt"))
            except ValueError:
                raise fail("big", s, pos) from None
            terms = {t: (isqrt(k // t), 1)}
        else:
            terms = {1: (1, 1)}
        for t, (a, b) in terms.items():
            x, y = acc.get(t, (0, 1))
            acc[t] = (x * d * b + n * a * y, y * d * b)
        pos = m.end()
    return acc


def parse_element(text: str, tower: FieldTower | None = None) -> FieldElement:
    """Parse `1/2 + 1/2*sqrt(6) - sqrt(2)` style literals.

    Terms are read by _sum_terms (ASCII digits only, at most _DIGITS_BOUND
    in a run; whitespace is ignored but between two digits, where it is
    refused; sqrt(k) takes k below 2^64) and built through _term_nums, so
    a nonzero term outside the given tower raises ValueError.
    """
    if not text.strip():
        raise ValueError("empty element literal")
    terms = _sum_terms(text, _TERM_RE, lambda reason, s, pos: ValueError({
        "sign": f"missing +/- between terms in {text!r}",
        "den": f"zero denominator in element literal {text!r}",
        "root": "sqrt(0) is not a valid term",
        "long": f"number of more than {_DIGITS_BOUND} digits in element literal",
        "big": f"sqrt of 2^64 or more in element literal {text!r}"}.get(
            reason, f"bad element literal at {s[pos:]!r}")))
    if tower is None:  # _sum_terms has gated the classes and reduced them
        tower = _class_tower(sorted(t for t in terms if t > 1))
    return FieldElement(tower, *_term_nums(tower, terms))


def element_literal(x: FieldElement) -> str:
    """Canonical literal, inverse of parse_element up to term ordering."""
    terms = x.canonical_terms()
    if not terms:
        return "0"
    parts = []
    for t, q in terms:
        if t == 1:
            body = str(q)
        elif q == 1:
            body = f"sqrt({t})"
        elif q == -1:
            body = f"-sqrt({t})"
        else:
            body = f"{q}*sqrt({t})"
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)
