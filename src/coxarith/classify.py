"""Arithmeticity ladder for hyperbolic Coxeter diagrams.

A reflection group with ambient form f over its trace field K is

  * quasi-arithmetic  iff f is admissible (signature (n,1) at the identity
    embedding, definite at every other one);
  * arithmetic        iff additionally the doubled Gram data is integral:
    every (2a_ij)^2 and every product of doubled entries around a simple
    cycle is an algebraic integer.  The squares decide it alone: 2a_ij is
    a root of x^2 - (2a_ij)^2, so it is integral once its square is, and
    so is every cycle product (_integrality_witness);
  * pseudo-arithmetic of the first type over K/k, for a non-quasi-arithmetic
    group, iff f becomes isometric over K to an admissible form g defined
    over a proper subfield k.

The subfield is located by scaled trace transfers: f descends in the Witt
ring to k exactly when its transfer to every index-2 subfield containing k
is hyperbolic, so k is the meet of the index-2 subfields with hyperbolic
transfer.  Each subfield F is decided in three stages, the first two read
off f without building the transfer (derivations in descend_field):

  1. fibre test: f has as many negatives at each embedding s as at its
     conjugate over F, so the transfer has rank(f) negatives at every real
     place of F;
  2. determinant norm: N_{K/F}(det f) is a square in F, which is the
     transfer's determinant check, as (-1)^rank(f) * det of the transfer
     is that norm up to squares.  As N_{K/Q} = N_{F/Q} o N_{K/F}, no F
     passes unless N_{K/Q}(det f) is a rational square, tested once first
     as the product of the entries' norms, before det f is formed;
  3. finite Hasse invariants of the transfer, built only now, at the
     places above f's own primes, f.primes(), and no others.

The admissible model over Q is sought in the one-parameter family
<-1, 1, ..., 1, a>: the determinant fixes a up to the rational classes that
are squares in K, so the candidates, one coset of them, are K-isometric to
one another and only the least positive one is tested.
"""

from __future__ import annotations

from math import isqrt, prod

from . import diagrams, fields, forms, localfields
from .diagrams import CoxeterDiagram
from .fields import FieldElement, FieldTower, element_literal, make_field
from .forms import QuadraticForm

__all__ = [
    "ARITHMETIC",
    "QUASI_ARITHMETIC",
    "PSEUDO_ARITHMETIC",
    "UNDETERMINED",
    "ClassificationReport",
    "classify_diagram",
    "descend_field",
    "find_admissible_model",
    "subordinated_forms",
    "report_from_json",
]

ARITHMETIC = "arithmetic"
QUASI_ARITHMETIC = "quasi-arithmetic-nonarithmetic"
PSEUDO_ARITHMETIC = "pseudo-arithmetic-first-type"
UNDETERMINED = "undetermined"


def _integrality_witness(diagram: CoxeterDiagram) -> dict | None:
    """Doubled Gram data that fails to be an algebraic integer, if any.

    Vinberg's criterion asks for every (2a_ij)^2 and every product of
    doubled entries around a simple cycle to be an algebraic integer.  The
    squares alone decide it: if 4g^2 is integral, 2g is a root of the monic
    x^2 - 4g^2 with integral coefficients, so it is integral, and so is
    every cycle product 2^k * g_1 * ... * g_k, a product of integers.  So
    no cycle is enumerated (their number grows exponentially with the
    mirrors: 96,925 simple cycles on the right-angled dodecahedron).

    Each distinct entry is tested once, keyed by its (den, nums) within the
    diagram's tower: edges of one label share an entry, and a repeat of an
    entry that passed passes again.  Labels are skipped: `seen` starts with
    the keys of the tower's label entries, as 2a = -2cos(pi/m) = -(z + 1/z),
    z = exp(i*pi/m), is an algebraic integer (and 4a^2 = 4 for inf), so the
    first failing entry, the witness, is a weight all the same.
    """
    seen = {(x.den, x.nums) for x in diagrams.label_entries(diagram.tower).values()}
    for (i, j), a in sorted(diagram.entries.items()):
        key = (a.den, a.nums)
        if key in seen:
            continue
        seen.add(key)
        x = FieldElement(a.tower, tuple(4 * n for n in fields._mul_nums(
            a.nums, a.nums, a.tower.basis_radicand)), a.den * a.den)
        if not fields.is_algebraic_integer(x):
            return {"kind": "entry", "edge": [i, j], "value": element_literal(x)}
    return None


def descend_field(f: QuadraticForm) -> tuple[FieldTower, list[tuple[FieldTower, bool]], str | None]:
    """Smallest subfield receiving f in the Witt ring, with the transfer table.

    Returns (k, [(subfield, transfer hyperbolic?)], note).  k equals the
    trace field itself when no descent exists; a non-None note flags an
    inconsistent transfer pattern (descent claim withdrawn).

    The transfer of f to the index-2 subfield F is hyperbolic exactly when
    it passes the three checks of localfields.is_hyperbolic; the first two
    are read off f, and the transfer is built only for the third.

    1. Fibre test.  F is fixed by the embedding of mask e, so the
       embeddings sigma+- of K above a real place tau of F are the masks s
       and s ^ e.  At tau, the transfer block of c = u + v*sqrt(a),
       <v, v*(a*v^2 - u^2)> or <1, -1> if v = 0, has signature
       sign(sigma+(c)) - sign(sigma-(c)), as a*v^2 - u^2 = -N(c) and
       2*sqrt(a)*v = sigma+(c) - sigma-(c).  So the transfer has rank(f)
       negatives at tau, the real check of is_hyperbolic, iff f has as
       many at s as at s ^ e (Scharlau's transfer; Lam, Introduction to
       Quadratic Forms over Fields, ch. VII).
    2. Determinant norm.  Each block has determinant -N_{K/F}(c) up to
       squares: v^2 * (a*v^2 - u^2) when v != 0, and -1 = -c^2 / c^2 when
       c lies in F.  N_{K/F} is multiplicative, so with m = rank(f) the
       transfer's (-1)^m * det is N_{K/F}(det f) = det f * sigma_e(det f)
       up to squares, and is_hyperbolic's determinant check is whether
       that norm (_norm_to) is a square in F.  Once per form, first:
       if N_{K/F}(det f) = s^2, then N_{K/Q}(det f) = N_{F/Q}(s)^2, so when
       N_{K/Q}(det f) is no rational square, no F passes and none is tried.
       That norm is the product of the entries' norms (N_{K/Q} is
       multiplicative), each taken on numerators and so off by den^degree,
       an even power; det f itself is formed only once that test passes.
    3. Finite Hasse invariants: the transfer is built as a plain form, and
       localfields.finite_hasse_hyperbolic compares them with a hyperbolic
       form's above f.primes() alone.  At an odd place P of F outside it, f
       is a unit form up to squares and a = t^2 * a' with v_P(a') in {0, 1},
       so {1, sqrt(a')} is an integral basis and each transfer block [[v',
       u], [u, a'*v']] for a' is unimodular (determinant -N(c), a unit),
       with Hasse invariant +1 as a hyperbolic form has.  The transfer for a
       is t times it up to squares, and check 2 fixed its determinant class
       at (-1)^m, so (t,t)^(m(2m-1)) * (t,(-1)^m)^(2m-1) = 1 keeps that +1.
    """
    K = f.tower
    neg = f.negatives()
    fibre = [all(neg[s] == neg[s ^ e] for s in range(K.degree)) for e in range(K.degree)]
    # N_{K/Q}(det f) times the entries' den^degree, even powers: stage 2's precheck
    n = prod(fields._norm_nums(c.nums, K) for c in f.diagonal) if any(fibre[1:]) else -1
    table = [(F, fibre[e] and n >= 0 and isqrt(n) ** 2 == n
              and fields.is_square(_norm_to(f.det(), F))[0]
              and localfields.finite_hasse_hyperbolic(forms.transfer(f, F), f.primes()))
             for e, F in enumerate(fields.subfields_index2(K), 1)]
    hyper = [F for F, h in table if h]
    if not hyper:
        return K, table, None
    k = hyper[0]
    for F in hyper[1:]:
        k = fields.intersect(k, F)
    for F, h in table:
        if not h and k.subgroup_classes <= F.subgroup_classes:
            return K, table, "transfer pattern is not an interval: no descent field"
    return k, table, None


def _norm_to(x: FieldElement, F: FieldTower) -> FieldElement:
    """N_{K/F}(x) = x * sigma(x) = u^2 - a*v^2, sigma the conjugation of K
    over F, on F's numerators of x = u + v*sqrt(a) (fields._over_subfield)."""
    a, u, v, den = fields._over_subfield(x, F)
    return FieldElement(F, tuple(fields._norm_step(u, v, a, F.basis_radicand)), den * den)


def find_admissible_model(f: QuadraticForm, k: FieldTower) -> tuple[QuadraticForm | None, int | None]:
    """Admissible form over k isometric to f over the trace field.

    Tests <-1, 1, ..., 1, a> once, for the least squarefree a >= 1 with
    -a*det(f) a square in K.  No other a can work: isometric forms have equal
    determinants up to squares, so a lies in the coset of -det(f) modulo the
    rational classes that are squares in K, and all 2^r members answer alike:
    a*a' = (-a*det f)(-a'*det f) / det(f)^2 is a square in K, so their forms
    are K-isometric.  Only the rational base field is searched; over a larger
    k this shape is never definite at the conjugate embeddings.
    """
    if k.r != 0:
        return None, None
    base = [-1] + [1] * (f.rank - 2)
    a = min((q for q in fields.rational_square_classes(-f.det()) if q > 0), default=None)
    if a is not None and forms.globally_isometric(QuadraticForm(f.tower, base + [a]), f):
        return QuadraticForm(k, base + [a]), a
    return None, None


def subordinated_forms(model: QuadraticForm, K: FieldTower) -> list[QuadraticForm]:
    """One form per square class of K over the model's field: the last entry
    of the model multiplied through the class representatives."""
    k = model.tower
    reps = sorted({min(fields._sqfree_mul(t, s) for s in k.subgroup_classes)
                   for t in K.subgroup_classes})
    out = []
    for t in reps:
        diag = list(model.diagonal[:-1]) + [model.diagonal[-1] * t]
        out.append(QuadraticForm(k, diag))
    return out


class ClassificationReport:
    """One diagram's rung on the ladder, its forms and its witnesses."""

    def __init__(self, name: str, dim: int, vertices: int, trace_field: FieldTower,
                 ambient: QuadraticForm, quasi: bool, arithmetic: bool, verdict: str,
                 base_field: FieldTower | None = None,
                 transfers: list[tuple[FieldTower, bool]] | None = None,
                 model: QuadraticForm | None = None, model_a: int | None = None,
                 subordinated: list[QuadraticForm] | None = None,
                 witnesses: dict | None = None, notes: list[str] | None = None):
        self.name = name
        self.dim = dim
        self.vertices = vertices
        self.trace_field = trace_field
        self.ambient = ambient
        self.quasi = quasi
        self.arithmetic = arithmetic
        self.verdict = verdict
        self.base_field = base_field
        self.transfers = [] if transfers is None else transfers
        self.model = model
        self.model_a = model_a
        self.subordinated = subordinated
        self.witnesses = {} if witnesses is None else witnesses
        self.notes = [] if notes is None else notes

    def to_json(self) -> dict:
        def tower_json(t: FieldTower) -> dict:
            return {"radicands": list(t.radicands), "degree": t.degree}

        return {
            "diagram": self.name,
            "dim": self.dim,
            "vertices": self.vertices,
            "trace_field": tower_json(self.trace_field),
            "ambient_diagonal": self.ambient.literals(),
            "quasi_arithmetic": self.quasi,
            "arithmetic": self.arithmetic,
            "verdict": self.verdict,
            "base_field": tower_json(self.base_field) if self.base_field else None,
            "transfers": [{"subfield": list(F.radicands), "hyperbolic": h}
                          for F, h in self.transfers],
            "model": ({"diagonal": self.model.literals(), "a": self.model_a}
                      if self.model is not None else None),
            "subordinated": ([g.literals() for g in self.subordinated]
                             if self.subordinated is not None else None),
            "witnesses": self.witnesses,
            "notes": self.notes,
        }


def report_from_json(data: dict) -> ClassificationReport:
    """Rebuild a report from its to_json dict (its exact inverse); a field
    class of 2^64 or more is outside input here, refused by make_field."""
    K = make_field(data["trace_field"]["radicands"])
    ambient = QuadraticForm(K, [fields.parse_element(s, K)
                                for s in data["ambient_diagonal"]])
    base = (make_field(data["base_field"]["radicands"])
            if data.get("base_field") else None)
    model = None
    if data.get("model") is not None:
        model = QuadraticForm(base, [fields.parse_element(s, base)
                                     for s in data["model"]["diagonal"]])
    sub = None
    if data.get("subordinated") is not None:
        sub = [QuadraticForm(base, [fields.parse_element(s, base) for s in diag])
               for diag in data["subordinated"]]
    return ClassificationReport(
        name=data["diagram"], dim=data["dim"], vertices=data["vertices"],
        trace_field=K, ambient=ambient,
        quasi=data["quasi_arithmetic"], arithmetic=data["arithmetic"],
        verdict=data["verdict"], base_field=base,
        transfers=[(make_field(t["subfield"]), t["hyperbolic"])
                   for t in data.get("transfers", [])],
        model=model,
        model_a=(data["model"] or {}).get("a"),
        subordinated=sub,
        witnesses=data.get("witnesses", {}),
        notes=data.get("notes", []),
    )


def classify_diagram(diagram: CoxeterDiagram) -> ClassificationReport:
    f = diagrams.ambient_form(diagram)
    K = f.tower
    report = ClassificationReport(
        name=diagram.name, dim=diagram.dim, vertices=diagram.size,
        trace_field=K, ambient=f, quasi=False, arithmetic=False,
        verdict=UNDETERMINED,
    )
    if forms.is_admissible(f):
        report.quasi = True
        witness = _integrality_witness(diagram)
        if witness is None:
            report.arithmetic = True
            report.verdict = ARITHMETIC
        else:
            report.verdict = QUASI_ARITHMETIC
            report.witnesses["nonintegral"] = witness
        report.base_field = K
        report.model = f
        report.subordinated = [f]
        return report

    # not quasi-arithmetic: record where admissibility failed, then descend
    neg = f.negatives()
    idx = next(i for i, k in enumerate(neg) if (k != 1 if i == 0 else 0 < k < f.rank))
    report.witnesses["inadmissible_at"] = {"embedding": idx,
                                           "signature": [f.rank - neg[idx], neg[idx]]}
    k, table, note = descend_field(f)
    report.transfers = table
    if note:
        report.notes.append(note)
    if k == K:
        report.notes.append("no proper subfield receives the form in the Witt ring")
        return report
    report.base_field = k
    model, a = find_admissible_model(f, k)
    if model is None:
        report.notes.append(
            "descends to a proper irrational subfield; model search covers "
            "the rational base field only" if k.r else
            "no admissible rational model <-1,1,...,1,a>: no a allowed by the "
            "determinant gives an isometric form")
        return report
    report.model = model
    report.model_a = a
    report.subordinated = subordinated_forms(model, K)
    report.verdict = PSEUDO_ARITHMETIC
    return report
