"""Coxeter diagrams of hyperbolic reflection polytopes.

File format (.cox): a header followed by one line per edge.

    # comment
    dim 5
    vertices 6
    edge 1 2 3          label m: dihedral angle pi/m
    edge 2 3 inf        parallel hyperplanes (Gram entry -1)
    edge 3 4 w 1/2+1/2*sqrt(6)   divergent hyperplanes (Gram entry -w, w > 1)

Vertices are 1..r in declaration order; omitted pairs are right angles
(label 2).  Weight expressions are sums of rational multiples of sqrt(n)
with cospi(m) allowed as a term.  Supported labels are m in
{2, 3, 4, 5, 6, 12}: exactly those whose cosine lies in a real
multiquadratic field.

The trace field of a diagram is generated by the squared Gram entries
and the products of entries around simple cycles, or equally by the Gram
matrix of the normals rescaled by path products from vertex 1.  The
ambient form is that matrix, diagonalized once over the trace field.
"""

from __future__ import annotations

import re
from itertools import chain
from math import gcd, isqrt, lcm

from . import fields, forms
from .fields import FieldElement, FieldTower, _mul_nums, _term_nums, make_field, squarefree_part
from .forms import QuadraticForm

__all__ = [
    "CoxeterDiagram",
    "DiagramError",
    "UnsupportedLabelError",
    "SignatureError",
    "parse_diagram",
    "load_diagram",
    "ambient_form",
]


class DiagramError(ValueError):
    """Malformed diagram text or structure."""


class UnsupportedLabelError(DiagramError):
    """Edge label whose cosine is not multiquadratic."""


class SignatureError(ValueError):
    """Gram matrix is not of hyperbolic signature (n,1)."""


# cos(pi/m) as {squarefree class: coefficient (num, den)}, for the multiquadratic labels
_COS_PAIRS: dict[int, dict[int, tuple[int, int]]] = {
    2: {},
    3: {1: (1, 2)},
    4: {2: (1, 2)},
    5: {1: (1, 4), 5: (1, 4)},
    6: {3: (1, 2)},
    12: {6: (1, 4), 2: (1, 4)},
}

_WTERM = re.compile(
    r"(?:(?P<coef>\d+(?:/\d+)?)\*)?"
    r"(?:sqrt\((?P<root>\d+)\)|cospi\((?P<cos>\d+)\))"
    r"|(?P<rat>\d+(?:/\d+)?)"
)


# (tower, label) -> the label's Gram entry over that tower, -cos(pi/m) or -1
_LABEL_ENTRIES: dict[tuple[FieldTower, int | str], FieldElement] = {}


def _label_entry(tower: FieldTower, label: int | str) -> FieldElement:
    """The Gram entry of an edge label over `tower`, built once per (tower, label)."""
    x = _LABEL_ENTRIES.get((tower, label))
    if x is None:
        nums, den = _term_nums(tower, {1: (1, 1)} if label == "inf" else _COS_PAIRS[label])
        x = _LABEL_ENTRIES[(tower, label)] = FieldElement(tower, tuple(-n for n in nums), den)
    return x


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
        raise DiagramError(f"zero denominator in weight expression: {expr!r}")
    return int(n), d


def _parse_weight(expr: str) -> dict[int, tuple[int, int]]:
    """Weight expression -> {squarefree class: coefficient as (num, den)}, den > 0."""
    s = expr.replace(" ", "")
    if not s:
        raise DiagramError("empty weight expression")
    acc: dict[int, tuple[int, int]] = {}
    pos = 0
    first = True
    while pos < len(s):
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
        elif not first:
            raise DiagramError(f"missing sign in weight expression: {expr!r}")
        m = _WTERM.match(s, pos)
        if not m or m.start() != pos:
            raise DiagramError(f"bad weight expression: {expr!r}")
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
                raise DiagramError("sqrt of a nonpositive integer in weight")
            t = squarefree_part(n)
            _acc_add(acc, t, cn * isqrt(n // t), cd)
        else:
            mm = int(m["cos"])
            pairs = _COS_PAIRS.get(mm)
            if pairs is None:
                raise UnsupportedLabelError("unsupported label: non-multiquadratic cosine")
            for cls, (qn, qd) in pairs.items():
                _acc_add(acc, cls, cn * qn, cd * qd)
    return acc


class CoxeterDiagram:
    """Parsed diagram: vertices 1..size, Gram entries over a common tower.

    The sorted adjacency of every vertex is built once, from entries, when
    the diagram is constructed."""

    __slots__ = ("name", "dim", "size", "tower", "entries", "_adj")

    def __init__(self, name: str, dim: int, size: int, tower: FieldTower,
                 entries: dict[tuple[int, int], FieldElement]):
        self.name = name
        self.dim = dim
        self.size = size
        self.tower = tower
        self.entries = entries
        adj: dict[int, list[int]] = {v: [] for v in range(1, size + 1)}
        for (i, j) in entries:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def relabeled(self, perm: dict[int, int] | list[int]) -> "CoxeterDiagram":
        """New diagram with vertex v renamed to perm[v]; same geometry."""
        if isinstance(perm, list):
            perm = dict(enumerate(perm, 1))
        vertices = list(range(1, self.size + 1))
        if sorted(perm) != vertices or sorted(perm.values()) != vertices:
            raise ValueError("relabeling is not a permutation of the vertices")
        entries = {}
        for (i, j), a in self.entries.items():
            x, y = perm[i], perm[j]
            entries[(min(x, y), max(x, y))] = a
        return CoxeterDiagram(self.name + "-relabeled", self.dim, self.size,
                              self.tower, entries)

    def __repr__(self) -> str:
        return (f"CoxeterDiagram({self.name}, dim={self.dim}, "
                f"vertices={self.size}, edges={len(self.entries)})")


def parse_diagram(text: str, name: str = "diagram") -> CoxeterDiagram:
    dim = size = None
    # (i, j, weight as {class: (num, den)}, None) or (i, j, the label's
    # cosine as {class: (num, den)}, label); a label's entry is built once
    # per tower
    raw_edges: list[tuple[int, int, dict[int, tuple[int, int]], int | str | None]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "dim":
            if dim is not None or len(parts) != 2 or not parts[1].isdigit():
                raise DiagramError(f"line {lineno}: bad dim header")
            dim = int(parts[1])
        elif kind == "vertices":
            if size is not None or len(parts) != 2 or not parts[1].isdigit():
                raise DiagramError(f"line {lineno}: bad vertices header")
            size = int(parts[1])
        elif kind == "edge":
            if dim is None or size is None:
                raise DiagramError(f"line {lineno}: edge before dim/vertices headers")
            if len(parts) < 4:
                raise DiagramError(f"line {lineno}: edge needs two vertices and a label")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise DiagramError(f"line {lineno}: bad vertex index") from None
            if not (1 <= i <= size and 1 <= j <= size) or i == j:
                raise DiagramError(f"line {lineno}: vertex index out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DiagramError(f"line {lineno}: duplicate edge {key}")
            seen.add(key)
            label = parts[3]
            if label == "w":
                if len(parts) < 5:
                    raise DiagramError(f"line {lineno}: weighted edge needs an expression")
                acc = _parse_weight("".join(parts[4:]))
                raw_edges.append((key[0], key[1], acc, None))
            elif label == "inf":
                raw_edges.append((key[0], key[1], {}, "inf"))
            else:
                if not label.isdigit():
                    raise DiagramError(f"line {lineno}: bad edge label {label!r}")
                m = int(label)
                if m < 2:
                    raise DiagramError(f"line {lineno}: bad edge label {m}")
                pairs = _COS_PAIRS.get(m)
                if pairs is None:
                    raise UnsupportedLabelError("unsupported label: non-multiquadratic cosine")
                if pairs:  # m = 2 is a right angle: no entry
                    raw_edges.append((key[0], key[1], pairs, m))
            if len(parts) > 4 and label != "w":
                raise DiagramError(f"line {lineno}: trailing tokens after label")
        else:
            raise DiagramError(f"line {lineno}: unknown directive {kind!r}")
    if dim is None or size is None:
        raise DiagramError("missing dim/vertices headers")
    if dim < 1:
        raise DiagramError("dim must be positive")
    if size < 1:
        raise DiagramError("vertices must be positive")

    classes = sorted({cls for _, _, acc, _ in raw_edges for cls, (n, _) in acc.items()
                      if n and cls != 1})
    tower = make_field(classes)
    entries: dict[tuple[int, int], FieldElement] = {}
    for i, j, acc, label in raw_edges:
        if label is not None:
            entries[(i, j)] = _label_entry(tower, label)
            continue
        # the weight x = nums / den; its entry is -x, and x - 1 must be > 0
        nums, den = _term_nums(tower, acc)
        s = fields.sign_at(FieldElement(tower, (nums[0] - den, *nums[1:]), den),
                           tower.identity_embedding)
        if s == 0:
            raise DiagramError(f"edge ({i},{j}): weight 1 is a parallel pair, use inf")
        if s < 0:
            raise DiagramError(f"edge ({i},{j}): weight must exceed 1")
        entries[(i, j)] = FieldElement(tower, tuple(-n for n in nums), den)

    diagram = CoxeterDiagram(name, dim, size, tower, entries)
    # connectivity
    seen_v = {1}
    stack = [1]
    while stack:
        for w in diagram.neighbors(stack.pop()):
            if w not in seen_v:
                seen_v.add(w)
                stack.append(w)
    if len(seen_v) != size:
        raise DiagramError("diagram is not connected")
    return diagram


def load_diagram(path) -> CoxeterDiagram:
    import os

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_diagram(text, name)


def _rescaled_gram(diagram: CoxeterDiagram) -> tuple[list[list], int, FieldTower]:
    """(M, den, K) with A = M / den over the trace field K: each entry a
    list of integer numerators over K's basis, all over one denominator
    den > 0, written straight into the matrix M that
    forms._sym_diagonalize consumes (M[i][j] and M[j][i] are one list).

    A[s][t] = c_s*c_t*G[s][t], c_v the product of Gram entries along a
    breadth-first path from vertex 1 to v: each entry is a closed-walk
    product.  On the edge that reached v, c_u*G[u][v] = c_v, so that entry
    is A[v][v] = c_v^2.  The entries are built as integer numerators over
    the diagram's tower, with no content divided out.  K is generated by
    the square classes of the union of the basis masks that they use.
    When K is the diagram's tower, the entries are already over K's basis
    and are only brought to the common denominator; otherwise each is
    rewritten through the tower's basis map to K (fields._subfield_map,
    built once per tower pair): alpha_S = scale_S * sqrt(t_S) is (scale_S
    / scale'_T) * alpha'_T for the mask T of t_S in K.  The content of the
    whole matrix is divided out once at the end, so M and den do not depend
    on the map's common denominator.
    """
    tower = diagram.tower
    rad = tower.basis_radicand
    n = diagram.size
    one = ([1] + [0] * (tower.degree - 1), 1)
    c = [None, one] + [None] * (n - 1)  # vertex -> c_v as (numerators, denominator)
    cells = {(1, 1): one}  # (s, t) -> A[s][t] as (numerators, denominator), s <= t
    order = [1]
    for v in order:
        cv, dv = c[v]
        for w in diagram.neighbors(v):
            if c[w] is None:
                a = diagram.entries[(min(v, w), max(v, w))]
                cw, dw = c[w] = (_mul_nums(cv, a.nums, rad), dv * a.den)
                cells[(w, w)] = cells[(min(v, w), max(v, w))] = \
                    (_mul_nums(cw, cw, rad), dw * dw)
                order.append(w)
    for key, a in diagram.entries.items():
        if key not in cells:
            (ci, di), (cj, dj) = c[key[0]], c[key[1]]
            cells[key] = (_mul_nums(_mul_nums(ci, cj, rad), a.nums, rad), di * dj * a.den)
    den = lcm(*(d for _, d in cells.values()))
    used = [any(col) for col in zip(*(nums for nums, _ in cells.values()))]
    K = make_field(sorted(tower.basis_class[S] for S, u in enumerate(used) if u and S))
    m, parts = 1, None
    if K is not tower:  # alpha_S is mult / m times alpha'_T
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
    g = gcd(den, *chain.from_iterable(M[i - 1][j - 1] for i, j in cells))
    if g != 1:
        den //= g
        for i, j in cells:
            M[i - 1][j - 1] = M[j - 1][i - 1] = [x // g for x in M[i - 1][j - 1]]
    return M, den, K


def ambient_form(diagram: CoxeterDiagram) -> QuadraticForm:
    """The form of signature (n,1) spanned by the facet normals, over the trace field.

    The path-rescaled Gram matrix A is diagonalized once over the field K
    of its entries, the trace field: a cyclic product G[i1][i2]...G[ik][i1]
    is the product of A's entries along the cycle over the c_i^2.  A is
    congruent to diag(D) + 0, so its rank and signature are read off the
    nonzero entries of D at the identity embedding, and
    SignatureError is raised unless there are n+1 of them, of signature (n,1).

    A goes from the diagram's entries to D as integer numerator vectors
    over one common denominator (_rescaled_gram, then the fraction-free
    forms._sym_diagonalize), and FieldElements are built only for D.  As
    each step is exact and an entry is zero exactly when its numerators
    are, D is the diagonal that the same pivots give over FieldElement.
    """
    n = diagram.dim
    M, den, K = _rescaled_gram(diagram)
    diag = forms._sym_diagonalize(M, den, K)
    form = QuadraticForm(K, [x for x in diag if x])
    if form.rank != n + 1 or forms.signature_at(form, K.identity_embedding) != (n, 1):
        raise SignatureError(f"not a hyperbolic polytope of dimension {n}")
    return form
