"""Coxeter diagrams of hyperbolic reflection polytopes.

File format (.cox): a header followed by one line per edge.

    # comment
    dim 5
    vertices 6
    edge 1 2 3          label m: dihedral angle pi/m
    edge 2 3 inf        parallel hyperplanes (Gram entry -1)
    edge 3 4 w 1/2+1/2*sqrt(6)   divergent hyperplanes (Gram entry -w, w > 1)

Vertices are 1..r in declaration order; omitted pairs are right angles
(label 2).  Supported labels are m in {2, 3, 4, 5, 6, 12}: exactly those
whose cosine lies in a real multiquadratic field.  A weight is an element
literal (fields.parse_element's grammar, one tokenizer: fields._sum_terms)
with cospi(m) allowed as a term.  Numbers and vertex indices are ASCII
digits only, at most 600 in a run (fields._DIGITS_BOUND), whitespace may
not split a number, and sqrt(k) takes k below 2^64 (k is factored for
its square class).  Parsing
certifies w > 1 for every weight at the identity embedding alone
(fields.sign_at), and that the diagram is connected.

The trace field of a diagram is generated by the squared Gram entries
and the products of entries around simple cycles, or equally by the Gram
matrix of the normals rescaled by path products from vertex 1.  The
ambient form is that matrix, diagonalized once over the trace field.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from . import fields, forms
from .fields import FieldElement, FieldTower, _mul_nums, _term_nums
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

_UNSUPPORTED = "unsupported label: non-multiquadratic cosine"
_TOO_LONG = f"number of more than {fields._DIGITS_BOUND} digits"  # refused before int()

# label -> the terms of its entry's negative: cos(pi/m), or 1 for "inf"
_LABELS: dict[int | str, dict[int, tuple[int, int]]] = _COS_PAIRS | {"inf": {1: (1, 1)}}

_WEIGHT_RE = re.compile(fields._TERM.format("sqrt|cospi"))  # element literals and cospi(m)

_LABEL_ENTRIES: dict[FieldTower, dict[int | str, FieldElement]] = {}  # see label_entries


def _weight_error(reason: str, expr: str, pos: int) -> DiagramError:
    """A failure of fields._sum_terms on a weight as the weight grammar's error."""
    if reason == "cospi":
        return UnsupportedLabelError(_UNSUPPORTED)
    return DiagramError({"term": f"bad weight expression: {expr!r}",
                         "den": f"zero denominator in weight expression: {expr!r}",
                         "root": "sqrt of a nonpositive integer in weight",
                         "long": f"{_TOO_LONG} in weight expression",
                         "big": f"sqrt of 2^64 or more in weight expression: {expr!r}"}.get(
                             reason, f"missing sign in weight expression: {expr!r}"))


class CoxeterDiagram:
    """Parsed diagram: vertices 1..size, Gram entries over a common tower
    keyed by (i, j) with i < j.  The sorted adjacency is built once, from
    the keys in sorted order: smaller neighbours first, then larger ones.
    So is the breadth-first tree from vertex 1, which maps each vertex it
    reaches to the key of the edge that reached it, in the order reached."""

    __slots__ = ("name", "dim", "size", "tower", "entries", "_adj", "_tree")

    def __init__(self, name: str, dim: int, size: int, tower: FieldTower,
                 entries: dict[tuple[int, int], FieldElement]):
        self.name = name
        self.dim = dim
        self.size = size
        self.tower = tower
        self.entries = entries
        adj: dict[int, list[int]] = {v: [] for v in range(1, size + 1)}
        for i, j in sorted(entries):
            adj[i].append(j)
            adj[j].append(i)
        self._adj = {v: tuple(ws) for v, ws in adj.items()}
        self._tree: dict[int, tuple[int, int]] = {}
        queue = [1]
        for v in queue:
            for w in self._adj[v]:
                if w != 1 and w not in self._tree:
                    self._tree[w] = (v, w) if v < w else (w, v)
                    queue.append(w)

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


def _line_int(token: str, lineno: int) -> int:
    """A header, vertex index or label of ASCII digits as an int, refused
    before int() reads it when longer than the digit bound."""
    if len(token) > fields._DIGITS_BOUND:
        raise DiagramError(f"line {lineno}: {_TOO_LONG}")
    return int(token)


def parse_diagram(text: str, name: str = "diagram") -> CoxeterDiagram:
    dim = size = None
    # key -> its label, None for a right angle (m = 2) or its weight's terms
    edges: dict[tuple[int, int], int | str | dict | None] = {}
    classes: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "edge":
            if dim is None or size is None:
                raise DiagramError(f"line {lineno}: edge before dim/vertices headers")
            if len(parts) < 4:
                raise DiagramError(f"line {lineno}: edge needs two vertices and a label")
            if not ((ij := parts[1] + parts[2]).isascii() and ij.isdigit()):
                raise DiagramError(f"line {lineno}: bad vertex index")
            i, j = _line_int(parts[1], lineno), _line_int(parts[2], lineno)
            if not (0 < i <= size and 0 < j <= size) or i == j:
                raise DiagramError(f"line {lineno}: vertex index out of range")
            key = (i, j) if i < j else (j, i)
            if key in edges:
                raise DiagramError(f"line {lineno}: duplicate edge {key}")
            label = parts[3]
            if label == "w":
                if len(parts) < 5:
                    raise DiagramError(f"line {lineno}: weighted edge needs an expression")
                edges[key] = acc = fields._sum_terms(" ".join(parts[4:]), _WEIGHT_RE,
                                                     _weight_error, _COS_PAIRS)
                classes.update(t for t, (n, _) in acc.items() if n)
                continue
            if label == "inf":
                m = label
            elif not (label.isascii() and label.isdigit()):
                raise DiagramError(f"line {lineno}: bad edge label {label!r}")
            elif (m := _line_int(label, lineno)) < 2:
                raise DiagramError(f"line {lineno}: bad edge label {m}")
            pairs = _LABELS.get(m)
            if pairs is None:
                raise UnsupportedLabelError(_UNSUPPORTED)
            if len(parts) > 4:
                raise DiagramError(f"line {lineno}: trailing tokens after label")
            edges[key] = m if pairs else None  # m = 2 is a right angle: no entry
            classes.update(pairs)
        elif kind == "dim":
            if dim is not None or len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise DiagramError(f"line {lineno}: bad dim header")
            dim = _line_int(parts[1], lineno)
        elif kind == "vertices":
            if size is not None or len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                raise DiagramError(f"line {lineno}: bad vertices header")
            size = _line_int(parts[1], lineno)
        else:
            raise DiagramError(f"line {lineno}: unknown directive {kind!r}")
    if dim is None or size is None:
        raise DiagramError("missing dim/vertices headers")
    if dim < 1:
        raise DiagramError("dim must be positive")
    if size < 1:
        raise DiagramError("vertices must be positive")

    tower = fields._class_tower(sorted(classes - {1}))  # _sum_terms gated the weights' classes
    labels = label_entries(tower)
    entries: dict[tuple[int, int], FieldElement] = {}
    for key, x in edges.items():
        if type(x) is not dict:
            if x is not None:
                entries[key] = labels[x]
            continue
        # the weight w = nums / den; its entry is -w, and w - 1 must be > 0,
        # certified at the identity embedding alone
        nums, den = _term_nums(tower, x)
        s = fields.sign_at(FieldElement(tower, (nums[0] - den, *nums[1:]), den),
                           tower.identity_embedding)
        if s == 0:
            raise DiagramError(f"edge ({key[0]},{key[1]}): weight 1 is a parallel pair, use inf")
        if s < 0:
            raise DiagramError(f"edge ({key[0]},{key[1]}): weight must exceed 1")
        entries[key] = FieldElement(tower, tuple(-n for n in nums), den)

    if len(entries) < size - 1:  # a connected graph has size - 1 edges or more
        raise DiagramError("diagram is not connected")
    diagram = CoxeterDiagram(name, dim, size, tower, entries)
    if len(diagram._tree) != size - 1:  # the tree reaches every vertex but 1
        raise DiagramError("diagram is not connected")
    return diagram


def label_entries(tower: FieldTower) -> dict[int | str, FieldElement]:
    """{label: its Gram entry -cos(pi/m), or -1 for inf}, for every label m > 2
    whose cosine lies in the tower, built once per tower and shared."""
    labels = _LABEL_ENTRIES.get(tower)
    if labels is None:
        labels = _LABEL_ENTRIES[tower] = {}
        for m, pairs in _LABELS.items():
            if pairs and all(t in tower.class_to_mask for t in pairs):
                nums, den = _term_nums(tower, pairs)
                labels[m] = FieldElement(tower, tuple(-n for n in nums), den)
    return labels


def load_diagram(path) -> CoxeterDiagram:
    import os

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_diagram(text, name)


def _rescaled_gram(diagram: CoxeterDiagram) -> tuple[list[list], int, FieldTower]:
    """(M, den, K) with A = M / den over the trace field K: each entry a
    list of integer numerators over K's basis over one denominator den > 0,
    in the matrix M that forms._sym_diagonalize reads and never writes.

    A[s][t] = c_s*c_t*G[s][t], c_v the product of Gram entries along the
    diagram's tree from vertex 1 to v, so each entry is a closed-walk
    product, and on the edge that reached v, A[u][v] = c_v^2 = A[v][v].  The
    cells are integer numerators over the diagram's tower.  K is generated
    by the classes of the basis masks they use: Q over Q, the tower when
    they use every mask.  For a smaller K each cell is rewritten through
    fields._subfield_map: alpha_S = scale_S * sqrt(t_S) is (scale_S /
    scale'_T) * alpha'_T for the mask T of t_S in K.  The content, gathered
    while M is filled, is divided out once at the end.
    """
    tower = diagram.tower
    rad = tower.basis_radicand
    n = diagram.size
    one = [1] + [0] * (tower.degree - 1)
    c = [None, (one, 1)] + [None] * (n - 1)  # vertex -> c_v as (numerators, denominator)
    cells = [(0, 0, one, 1)]  # (s, t, A[s][t] as numerators, denominator), 0-based
    for w, key in diagram._tree.items():  # the parent of w is reached first
        cv, dv = c[key[0] + key[1] - w]
        a = diagram.entries[key]
        cw, dw = c[w] = (_mul_nums(cv, a.nums, rad), dv * a.den)
        sq, d = _mul_nums(cw, cw, rad), dw * dw
        cells.append((w - 1, w - 1, sq, d))
        cells.append((key[0] - 1, key[1] - 1, sq, d))
    tree = set(diagram._tree.values())
    for (i, j), a in diagram.entries.items():
        if (i, j) not in tree:
            (ci, di), (cj, dj) = c[i], c[j]
            cells.append((i - 1, j - 1, _mul_nums(_mul_nums(ci, cj, rad), a.nums, rad),
                          di * dj * a.den))
    den = lcm(*(d for _, _, _, d in cells))
    m, parts, K = 1, None, tower
    used = [any(col) for col in zip(*(nums for _, _, nums, _ in cells))]
    if not all(used):
        K = fields._class_tower(sorted(tower.basis_class[S]
                                       for S, u in enumerate(used) if u and S))
    if K is not tower:  # alpha_S is mult / m times alpha'_T
        _, m, parts = fields._subfield_map(tower, K)
        parts = [(S, T, mult) for S, T, side, mult in parts if not side]
    M = [[[0] * K.degree] * n for _ in range(n)]
    g = den * m
    for i, j, nums, d in cells:
        f = den // d
        if parts is None:
            out = nums if f == 1 else [x * f for x in nums]  # entries are never written to
        else:
            out = [0] * K.degree
            for S, T, mult in parts:
                out[T] = nums[S] * mult * f
        if g != 1:
            g = gcd(g, *out)
        M[i][j] = M[j][i] = out
    den *= m
    if g != 1:
        den //= g
        for i, j, _, _ in cells:
            M[i][j] = M[j][i] = [x // g for x in M[i][j]]
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
