"""Acceptance gate: six criteria, one PASS/FAIL line each.

Each criterion prints a single verdict line on the real stdout (bypassing
capture) so the lines are visible in every run mode.  Time limits are
asserted inside the criterion bodies; sample counts are pinned constants.
"""

import random
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import oracles
from coxarith import classify, diagrams, fields, forms, localfields, lvalues
from coxarith.fields import is_square, make_field
from coxarith.localfields import (
    hilbert_symbol_Q,
    hilbert_symbol_local,
    is_hyperbolic,
    real_places,
    relevant_finite_places,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

EXPECTED_FIELDS = {
    "delta5": (2,),
    "fig2a": (2, 3, 5),
    "fig2b": (2, 3, 5),
    "fig3a": (2, 3),
    "fig3b": (2, 5),
    "fig3c": (2, 5),
    "fig3d": (2, 3),
    "fig3e": (2, 13),
}


class _Criterion:
    """Emits one PASS/FAIL line per criterion past the capture machinery."""

    def __init__(self, capsys, num, label):
        self.capsys = capsys
        self.num = num
        self.label = label
        self.details = []

    def note(self, text):
        self.details.append(text)

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        tag = "FAIL" if exc_type else "PASS"
        detail = "; ".join(self.details)
        extra = f" ({detail})" if detail else ""
        line = (f"[criterion {self.num}] {tag}: {self.label}{extra}"
                f" [{time.monotonic() - self.t0:.2f}s]")
        with self.capsys.disabled():
            print(f"\n{line}", flush=True)
        return False


def _classified(name):
    diagram = diagrams.load_diagram(CORPUS / f"{name}.cox")
    t0 = time.monotonic()
    report = classify.classify_diagram(diagram)
    return diagram, report, time.monotonic() - t0


def _assert_descends_to_Q(report, name, degree):
    assert report.trace_field.radicands == EXPECTED_FIELDS[name]
    assert report.trace_field.degree == degree
    assert not report.quasi and not report.arithmetic
    assert report.verdict == classify.PSEUDO_ARITHMETIC
    assert report.base_field is not None
    assert report.base_field.radicands == ()
    assert report.model_a == 1


def test_criterion_1_delta5(capsys):
    with _Criterion(capsys, 1, "delta5: trace field Q(sqrt2), descent to Q, "
                       "model <-1,1,1,1,1,1>, subordinated last entries {1,2}") as c:
        _, rep, elapsed = _classified("delta5")
        assert elapsed < 10.0
        _assert_descends_to_Q(rep, "delta5", 2)
        assert rep.transfers == [(make_field([]), True)]
        vals = [x.rational_value() for x in rep.model.diagonal]
        assert vals == [-1, 1, 1, 1, 1, 1]
        assert len(rep.subordinated) == 2
        for g in rep.subordinated:
            assert [x.rational_value() for x in g.diagonal[:-1]] == [-1, 1, 1, 1, 1]
        last = sorted(g.diagonal[-1].rational_value() for g in rep.subordinated)
        assert last == [Fraction(1), Fraction(2)]
        # exactness: every coefficient is a Fraction and literals round-trip
        K = rep.trace_field
        for g in (rep.ambient, rep.model, *rep.subordinated):
            for x in g.diagonal:
                assert all(isinstance(q, Fraction) for q in x.coeffs)
        for lit in (fields.element_literal(x) for x in rep.ambient.diagonal):
            assert fields.element_literal(fields.parse_element(lit, K)) == lit
        c.note(f"classified in {elapsed:.2f}s")


def test_criterion_2_degree8_diagrams(capsys):
    with _Criterion(capsys, 2, "fig2a/fig2b: trace field Q(sqrt2,sqrt3,sqrt5) of "
                       "degree 8, descent to Q with a = 1") as c:
        for name in ("fig2a", "fig2b"):
            _, rep, elapsed = _classified(name)
            assert elapsed < 60.0
            _assert_descends_to_Q(rep, name, 8)
            c.note(f"{name} {elapsed:.2f}s")


def test_criterion_3_degree4_diagrams(capsys):
    with _Criterion(capsys, 3, "fig3a-fig3e: degree-4 trace fields as expected, "
                       "descent to Q with a = 1") as c:
        for name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig3e"):
            _, rep, elapsed = _classified(name)
            assert elapsed < 60.0
            _assert_descends_to_Q(rep, name, 4)
            c.note(f"{name} {elapsed:.2f}s")


def test_criterion_4_volume_identity(capsys):
    with _Criterion(capsys, 4, "volume: 73/23040 zeta(3) + 1/360 sqrt(2) L(chi8,3) "
                       "matches the 24-digit reference to >= 20 certified "
                       "significant digits") as c:
        t0 = time.monotonic()
        res = lvalues.delta5_volume_check(24)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        assert res["match"] is True
        assert res["certified_significant_digits"] >= 20
        assert res["reference"] == "0.00757347442200786763497722"
        assert res["value"][:24] == res["reference"][:24]
        assert res["direct_route_consistent"] is True
        c.note(f"{res['certified_significant_digits']} digits certified "
               f"in {elapsed:.2f}s")


def _rand_nonzero(tower, rng, scale=4):
    while True:
        x = tower.element([Fraction(rng.randint(-scale, scale),
                                    rng.choice((1, 2, 3)))
                           for _ in range(tower.degree)])
        if x:
            return x


def _rand_in_subfield(K, fclasses, rng):
    while True:
        x = K.zero()
        for d in fclasses:
            x = x + K.sqrt(d) * Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        if x:
            return x


def test_criterion_5_local_global_suite(capsys):
    with _Criterion(capsys, 5, "local-global suite: product formula, transfer "
                       "reciprocity, rank-2 hyperbolicity, tame symbols vs "
                       "brute solvability, zero failures") as c:
        t0 = time.monotonic()
        Q = make_field([])
        towers = [Q, make_field([2]), make_field([5]),
                  make_field([2, 3]), make_field([2, 3, 5])]

        rng = random.Random(20260814)
        n_prod = 0
        for tower in towers:
            for _ in range(200):
                a = _rand_nonzero(tower, rng)
                b = _rand_nonzero(tower, rng)
                prod = 1
                for pl in real_places(tower):
                    prod *= hilbert_symbol_local(a, b, pl)
                for pl in relevant_finite_places(tower, [a, b]):
                    prod *= hilbert_symbol_local(a, b, pl)
                assert prod == 1
                n_prod += 1
        assert n_prod == 1000
        c.note(f"{n_prod} symbol products")

        # transfer of a form extended from a subfield is hyperbolic
        rng = random.Random(31415)
        n_rec = 0
        for K in towers[1:]:
            for F in fields.subfields_index2(K):
                fclasses = sorted(F.subgroup_classes)
                for _ in range(100):
                    entries = [_rand_in_subfield(K, fclasses, rng)
                               for _ in range(rng.randint(1, 3))]
                    s = forms.transfer(forms.QuadraticForm(K, entries), F)
                    assert is_hyperbolic(s)
                    n_rec += 1
        assert n_rec == 1200
        c.note(f"{n_rec} transfers of extended forms")

        rng = random.Random(2718)
        n_rank2 = 0
        for tower in towers[:4]:
            for _ in range(60):
                a = _rand_nonzero(tower, rng)
                b = _rand_nonzero(tower, rng)
                want, _ = is_square(-(a * b))
                assert is_hyperbolic(forms.QuadraticForm(tower, [a, b])) == want
                n_rank2 += 1
        assert n_rank2 == 240
        c.note(f"{n_rank2} rank-2 forms")

        rng = random.Random(1618)
        n_tame = 0
        units = (1, -1, 2, 3, -2, 5, 6, 7, 10, 11, 13, -13)
        for p in (3, 5, 7, 11, 13):
            for _ in range(40):
                a = rng.choice(units) * p ** rng.randint(0, 1)
                b = rng.choice(units) * p ** rng.randint(0, 1)
                assert hilbert_symbol_Q(a, b, p) == oracles.brute_hilbert_Qp(a, b, p)
                n_tame += 1
        assert n_tame == 200
        c.note(f"{n_tame} tame symbols vs brute force")

        assert time.monotonic() - t0 < 300.0


def test_criterion_6_structural_invariance(capsys):
    with _Criterion(capsys, 6, "structural invariance: verdicts stable under vertex "
                       "relabeling, conjugate-basis determinant identity "
                       "exact") as c:
        rng = random.Random(97)
        for name in EXPECTED_FIELDS:
            diagram, rep0, _ = _classified(name)
            perms = [list(range(2, diagram.size + 1)) + [1]]  # move the base vertex
            for _ in range(20):
                perm = list(range(1, diagram.size + 1))
                rng.shuffle(perm)
                perms.append(perm)
            for perm in perms:
                rep = classify.classify_diagram(diagram.relabeled(perm))
                assert rep.verdict == rep0.verdict
                assert rep.trace_field == rep0.trace_field
                assert rep.model_a == rep0.model_a
        c.note(f"{len(EXPECTED_FIELDS)} diagrams x 21 relabelings")

        n_towers = 0
        for size in (1, 2, 3):
            for S in combinations((2, 3, 5, 6, 7, 10, 13, 15), size):
                res = oracles.basis_det_check(make_field(S))
                assert res["det_B"] != 0
                assert res["identity_holds"]
                n_towers += 1
        assert n_towers == 92
        c.note(f"{n_towers} towers determinant identity")
