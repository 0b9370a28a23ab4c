"""The arithmeticity ladder: verdicts, descent, model search, basis identity."""

import glob
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from coxarith import classify, diagrams, fields, forms, localfields
from coxarith.classify import (
    ARITHMETIC,
    PSEUDO_ARITHMETIC,
    QUASI_ARITHMETIC,
    UNDETERMINED,
    ClassificationReport,
    classify_diagram,
    descend_field,
    find_admissible_model,
    subordinated_forms,
)
from coxarith.fields import element_literal, make_field, parse_element
from coxarith.forms import QuadraticForm
import oracles
from oracles import all_places_hyperbolic, basis_det_check, bounded_model_search, dense_sign

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

Q = make_field([])
Q2 = make_field([2])
Q23 = make_field([2, 3])

# (3,3,4) triangle: one of the classical arithmetic cocompact cases
ARITHMETIC_TRIANGLE = """
dim 2
vertices 3
edge 1 2 3
edge 2 3 3
edge 1 3 4
"""

# rational trace field, admissible, but (2a_12)^2 = 25/4 is not integral
QUASI_TRIANGLE = """
dim 2
vertices 3
edge 1 2 w 5/4
edge 2 3 3
edge 1 3 3
"""

# trace field Q(sqrt2); the conjugate signature is again (2,1), so the
# transfer to Q is not hyperbolic and no descent exists
STUCK_TRIANGLE = """
dim 2
vertices 3
edge 1 2 4
edge 2 3 4
edge 1 3 w sqrt(2)
"""

# trace field Q(sqrt2), descends to Q; found by a wider diagram generator
# (seed 11) than the census
G11_112 = """
dim 2
vertices 3
edge 1 2 w 3/2
edge 1 3 w 7/4
edge 2 3 4
"""


def _census_sample() -> dict:
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "census_sample_reports.json")) as fh:
        return json.load(fh)


def test_arithmetic_triangle():
    rep = classify_diagram(diagrams.parse_diagram(ARITHMETIC_TRIANGLE, "t334"))
    assert rep.verdict == ARITHMETIC
    assert rep.quasi and rep.arithmetic
    assert rep.trace_field == Q2
    assert rep.base_field == Q2
    assert rep.transfers == []
    assert rep.model is rep.ambient
    assert rep.subordinated == [rep.ambient]


def test_quasi_nonarithmetic_triangle():
    rep = classify_diagram(diagrams.parse_diagram(QUASI_TRIANGLE, "tq"))
    assert rep.verdict == QUASI_ARITHMETIC
    assert rep.quasi and not rep.arithmetic
    assert rep.trace_field == Q
    w = rep.witnesses["nonintegral"]
    assert w["kind"] == "entry" and w["edge"] == [1, 2]
    assert w["value"] == "25/4"


def test_undetermined_triangle():
    rep = classify_diagram(diagrams.parse_diagram(STUCK_TRIANGLE, "ts"))
    assert rep.verdict == UNDETERMINED
    assert not rep.quasi
    assert rep.trace_field == Q2
    assert rep.transfers == [(Q, False)]
    assert rep.base_field is None and rep.model is None
    assert "inadmissible_at" in rep.witnesses
    assert any("no proper subfield" in n for n in rep.notes)


def test_delta5_report_end_to_end():
    rep = classify_diagram(diagrams.load_diagram(os.path.join(CORPUS, "delta5.cox")))
    assert rep.verdict == PSEUDO_ARITHMETIC
    assert not rep.quasi and not rep.arithmetic
    assert rep.trace_field == Q2 and rep.base_field == Q
    assert rep.model_a == 1
    assert [c.rational_value() for c in rep.model.diagonal] == [-1, 1, 1, 1, 1, 1]
    lasts = sorted(g.diagonal[-1].rational_value() for g in rep.subordinated)
    assert lasts == [1, 2]
    j = rep.to_json()
    # literals round-trip to the exact ambient entries
    K = rep.trace_field
    back = [parse_element(s, K) for s in j["ambient_diagonal"]]
    assert back == list(rep.ambient.diagonal)


def test_descend_field_cases():
    # <1, sqrt2> over Q(sqrt2): determinant is not fixed by the conjugation,
    # transfer to Q keeps a definite part
    f = QuadraticForm(Q2, [Q2.one(), Q2.sqrt(2)])
    k, table, note = descend_field(f)
    assert k == Q2 and note is None
    assert table == [(Q, False)]

    g = QuadraticForm(Q2, [1, 1])
    k, table, _ = descend_field(g)
    assert k == Q and table == [(Q, True)]

    # over Q(sqrt2, sqrt3) the form <1, sqrt2> descends to Q(sqrt2) only
    h = QuadraticForm(Q23, [Q23.one(), Q23.sqrt(2)])
    k, table, note = descend_field(h)
    assert k == Q2 and note is None
    got = {F.radicands: hyp for F, hyp in table}
    assert got[(2,)] is True
    assert got[(3,)] is False and got[(6,)] is False

    # Q has no index-2 subfield: nothing to transfer to, and no descent
    assert descend_field(QuadraticForm(Q, [1, 1, -1])) == (Q, [], None)


def test_descend_field_withdraws_a_non_interval_pattern():
    # <3 +- sqrt3> over Q(sqrt2, sqrt3) has hyperbolic transfers to Q(sqrt3)
    # and Q(sqrt6), which meet in Q, but not to Q(sqrt2), which contains Q:
    # no subfield receives the form, so the descent claim is withdrawn
    for c in (3 + Q23.sqrt(3), 3 - Q23.sqrt(3)):
        f = QuadraticForm(Q23, [c])
        k, table, note = descend_field(f)
        assert k == Q23
        assert [(F.radicands, h) for F, h in table] == [((3,), True), ((2,), False), ((6,), True)]
        assert note == "transfer pattern is not an interval: no descent field"
        for F, h in table:
            assert all_places_hyperbolic(forms.transfer(f, F)) is h, (c, F)


def _fibre_test_cases():
    rng = random.Random(131)
    cases = [diagrams.ambient_form(diagrams.parse_diagram(entry["cox"], name))
             for name, entry in sorted(_census_sample().items())]
    for tower in (Q2, Q23, make_field([2, 3, 5]), make_field([5, 13])):
        for _ in range(12):
            cases.append(QuadraticForm(tower, [
                tower.element([Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                               for _ in range(tower.degree)]) or tower.one()
                for _ in range(rng.randint(1, 4))]))
    return cases


def test_transfer_signatures_are_read_off_the_fibres():
    # the e-th index-2 subfield is fixed by the embedding of mask e; the
    # transfer has rank(f) negatives at every real place exactly when f
    # has as many negatives at s as at s ^ e for every mask s
    outcomes = set()
    for f in _fibre_test_cases():
        neg = f.negatives()
        for e, F in enumerate(fields.subfields_index2(f.tower), 1):
            fibre = all(neg[s] == neg[s ^ e] for s in range(f.tower.degree))
            t = forms.transfer(f, F)
            assert fibre == all(k == t.rank // 2 for k in t.negatives()), (f, F)
            outcomes.add(fibre)
    assert outcomes == {True, False}


def _norm_of_det(f, e, F):
    """N_{K/F}(det f) = det f * sigma_e(det f), F the fixed field of mask e."""
    d = f.det()
    return (d * oracles.conjugate(d, f.tower.embeddings()[e])).express_in(F)


def test_descend_field_builds_transfers_only_past_the_fibre_test(monkeypatch):
    # a transfer is built exactly where f passes the fibre test and
    # N_{K/F}(det f) is a square in F; the verdicts still come from real
    # transfers.  When N_{K/Q}(det f) = N_{F/Q}(N_{K/F}(det f)) is no
    # rational square, no N_{K/F}(det f) is a square, and descend_field runs
    # no per-subfield square test and builds no transfer for that form
    built, tested = [], []
    real, real_square = forms.transfer, fields.is_square

    def recording(f, F):
        built.append(F)
        return real(f, F)

    def recording_square(x):
        tested.append(x)
        return real_square(x)

    skipped_fibre = skipped_norm = nonsquare = settled = 0
    for f in _fibre_test_cases():
        if f.tower.r == 0:
            continue
        want = [(F, localfields.is_hyperbolic(real(f, F)))
                for F in fields.subfields_index2(f.tower)]
        neg = f.negatives()
        fibre = [(e, F) for e, F in enumerate(fields.subfields_index2(f.tower), 1)
                 if all(neg[s] == neg[s ^ e] for s in range(f.tower.degree))]
        passing = [F for e, F in fibre if oracles.is_square(_norm_of_det(f, e, F))[0]]
        built.clear()
        tested.clear()
        monkeypatch.setattr(forms, "transfer", recording)
        monkeypatch.setattr(fields, "is_square", recording_square)
        assert descend_field(f)[1] == want
        monkeypatch.setattr(forms, "transfer", real)
        monkeypatch.setattr(fields, "is_square", real_square)
        assert built == passing
        if oracles.is_square(oracles.rational_norm(f.det()))[0]:
            assert [x.tower for x in tested] == [F for _, F in fibre]
        else:
            assert passing == built == tested == []
            nonsquare += 1
            settled += len(fibre)
        skipped_fibre += len(want) - len(fibre)
        skipped_norm += len(fibre) - len(passing)
    assert skipped_fibre >= 50 and skipped_norm >= 30
    assert nonsquare >= 30 and settled >= 20


def test_descend_field_runs_only_the_finite_hasse_check_on_a_transfer(monkeypatch):
    # the fibre and norm tests are is_hyperbolic's real and determinant
    # checks, so a built transfer goes to finite_hasse_hyperbolic alone, and
    # it meets that helper's precondition: m negatives at every real place
    # and determinant class (-1)^m
    cases = [f for f in _fibre_test_cases() if f.tower.r]
    want = [descend_field(f) for f in cases]
    seen = []
    real = localfields.finite_hasse_hyperbolic

    def recording(form, primes):
        seen.append(form)
        return real(form, primes)

    def refused(form):
        raise AssertionError("is_hyperbolic ran on a transfer")

    monkeypatch.setattr(localfields, "finite_hasse_hyperbolic", recording)
    monkeypatch.setattr(localfields, "is_hyperbolic", refused)
    assert [descend_field(f) for f in cases] == want
    assert len(seen) >= 20
    for form in seen:
        m = form.rank // 2
        assert form.rank % 2 == 0 and set(form.negatives()) == {m}
        assert fields.is_square(form.det() * (-1) ** m)[0]


def test_right_angled_dodecahedron_is_arithmetic_without_cycle_enumeration():
    # 12 mirrors, one per face: adjacent faces meet at right angles, faces
    # two steps apart are at cosh distance phi and opposite ones at phi^2.
    # Its diagram has 96,925 simple cycles; integrality reads the edges only.
    d = diagrams.load_diagram(os.path.join(os.path.dirname(__file__), "data",
                                           "dodecahedron.cox"))
    assert (d.dim, d.size) == (3, 12)
    weights = Counter(element_literal(-a) for a in d.entries.values())
    assert weights == {"1/2+1/2*sqrt(5)": 30, "3/2+1/2*sqrt(5)": 6}
    t0 = time.perf_counter()
    rep = classify_diagram(d)
    assert time.perf_counter() - t0 < 1.0
    assert rep.verdict == ARITHMETIC and rep.quasi and rep.arithmetic
    assert rep.trace_field == make_field([5]) and rep.base_field == make_field([5])
    assert rep.witnesses == {}


def test_integrality_witness_tests_each_distinct_entry_once(monkeypatch):
    calls = []
    real = fields.is_algebraic_integer
    monkeypatch.setattr(fields, "is_algebraic_integer", lambda x: calls.append(x) or real(x))
    # the label-5 entry and the weight 5/4 share the denominator 4 over
    # Q(sqrt5); the label is integral by construction and is not tested, the
    # weight fails
    d = diagrams.parse_diagram("dim 2\nvertices 3\nedge 1 2 5\nedge 2 3 3\nedge 1 3 w 5/4\n")
    assert classify._integrality_witness(d) == {"kind": "entry", "edge": [1, 3],
                                                "value": "25/4"}
    # one call per distinct weight entry, on 4a^2 over the diagram's tower
    assert len(calls) == 1 and all(x.tower is d.tower for x in calls)
    # 36 edges, two distinct entries, both weights
    calls.clear()
    d = diagrams.load_diagram(os.path.join(os.path.dirname(__file__), "data",
                                           "dodecahedron.cox"))
    assert classify._integrality_witness(d) is None
    assert len(calls) == 2 and all(x.tower is d.tower for x in calls)


def test_determinant_norm_and_transfer_table_identities():
    # at the index-2 subfield F fixed by mask e, with m = rank(f):
    # (-1)^m * det transfer(f, F) is N_{K/F}(det f) up to squares, and the
    # transfer's table of negatives, read off f's, is the one sign_at
    # certifies for its entries
    rng = random.Random(137)
    cases = _fibre_test_cases()
    for tower in (Q2, Q23, make_field([3, 5, 7]), make_field([2, 3, 5])):
        for _ in range(24):
            g = QuadraticForm(tower, [
                tower.element([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                               for _ in range(tower.degree)]) or tower.one()
                for _ in range(rng.randint(1, 3))])
            # g + g has a square determinant, so its norms are squares too
            cases += [g, QuadraticForm(tower, g.diagonal * 2)]
    checked = squares = 0
    for f in cases:
        for e, F in enumerate(fields.subfields_index2(f.tower), 1):
            t = forms.transfer(f, F)
            square = fields.is_square(_norm_of_det(f, e, F))[0]
            assert square == fields.is_square(t.det() * (-1) ** f.rank)[0], (f, F)
            assert t.negatives() == QuadraticForm(F, t.diagonal).negatives(), (f, F)
            checked += 1
            squares += square
    assert checked >= 1000 and 300 <= squares <= checked - 300


def test_find_admissible_model_nontrivial_a():
    # 2 is a square in Q(sqrt2), so this is <-1,1,1,3> in disguise
    f = QuadraticForm(Q2, [-2, 2, 2, 6])
    g, a = find_admissible_model(f, Q)
    assert a == 3
    assert [c.rational_value() for c in g.diagonal] == [-1, 1, 1, 3]


def test_find_admissible_model_respects_determinant():
    # det class -5: candidates with -a * det f a square must have a ~ 5
    f = QuadraticForm(Q2, [-1, 1, 1, 5])
    g, a = find_admissible_model(f, Q)
    assert a == 5


def test_no_model_where_the_determinant_allows_none():
    # only a in {7, 14} match the determinant, and both <-1,1,a> differ from
    # the ambient form at the two places above 7, so no search bound finds one
    d = diagrams.parse_diagram(G11_112, "g11-112")
    f = diagrams.ambient_form(d)
    assert fields.rational_square_classes(-f.det()) == {7, 14}
    rep = classify_diagram(d)
    assert rep.verdict == UNDETERMINED
    assert rep.trace_field == Q2 and rep.base_field == Q
    assert rep.model is None and rep.to_json()["model"] is None
    assert rep.notes == ["no admissible rational model <-1,1,...,1,a>: no a allowed "
                         "by the determinant gives an isometric form"]


def test_one_model_search_makes_one_isometry_test(monkeypatch):
    # every candidate a is K-isometric to the least, so only the least is
    # put to globally_isometric, whether it is a model or not
    calls = []
    real = forms.globally_isometric

    def counting(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(forms, "globally_isometric", counting)
    g11 = diagrams.ambient_form(diagrams.parse_diagram(G11_112, "g11-112"))
    for f, want in ((QuadraticForm(Q2, [-2, 2, 2, 6]), 3), (g11, None),
                    (QuadraticForm(Q2, [-1, 1, 1, 5]), 5)):
        assert len(fields.rational_square_classes(-f.det())) == 2
        calls.clear()
        assert find_admissible_model(f, Q)[1] == want
        assert len(calls) == 1, f
    calls.clear()
    assert find_admissible_model(QuadraticForm(Q23, [-1, 1, 1, 1]), Q2) == (None, None)
    assert calls == []


def test_every_positive_candidate_gets_the_same_isometry_answer(monkeypatch):
    # for candidates a, a', (-a*det f)(-a'*det f) is a square in K, so a*a'
    # is one and the forms <-1, 1, ..., 1, a> are K-isometric: on every
    # rational model search of the census pool and on g11-112 (a in {7, 14},
    # no model) all candidates answer alike, and the search returns the least
    searches = []
    real = classify.find_admissible_model

    def recording(f, k):
        searches.append((f, k))
        return real(f, k)

    monkeypatch.setattr(classify, "find_admissible_model", recording)
    for name, entry in sorted(_census_pool().items()):
        classify_diagram(diagrams.parse_diagram(entry["cox"], name))
    monkeypatch.undo()
    rational = [f for f, k in searches if k.r == 0]
    g11 = diagrams.ambient_form(diagrams.parse_diagram(G11_112, "g11-112"))
    answers = Counter()
    for f in rational + [g11]:
        cands = sorted(q for q in fields.rational_square_classes(-f.det()) if q > 0)
        base = [-1] + [1] * (f.rank - 2)
        got = {forms.globally_isometric(QuadraticForm(f.tower, base + [a]), f) for a in cands}
        assert len(got) == 1 and len(cands) >= 2, (f, cands, got)
        assert find_admissible_model(f, Q)[1] == (cands[0] if True in got else None), f
        answers[got.pop()] += 1
    assert len(rational) >= 30 and answers[False] >= 1, answers


def test_model_search_has_no_prime_cap():
    # 14 primes divide N(det) here: a search over subsets of the prime
    # support capped at 12 primes, then a <= 30, finds no model
    a = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    f = QuadraticForm(Q2, [-1, 1, 1, a])
    assert bounded_model_search(f, Q) == (None, None)
    g, found = find_admissible_model(f, Q)
    assert found == a
    assert [c.rational_value() for c in g.diagonal] == [-1, 1, 1, a]


def _model_facts(found):
    g, a = found
    return None if g is None else ([element_literal(c) for c in g.diagonal], a)


def test_model_search_matches_the_bounded_search(monkeypatch):
    # every rational-k search the corpus and the census sample reach, and
    # constructed forms, against the prime-support-and-bound search
    searches = []
    real = classify.find_admissible_model

    def recording(f, k):
        searches.append((f, k))
        return real(f, k)

    monkeypatch.setattr(classify, "find_admissible_model", recording)
    for p in sorted(glob.glob(os.path.join(CORPUS, "*.cox"))):
        classify_diagram(diagrams.load_diagram(p))
    for name, entry in sorted(_census_sample().items()):
        classify_diagram(diagrams.parse_diagram(entry["cox"], name))
    rational = [(f, k) for f, k in searches if k.r == 0]
    assert len(rational) == 20
    constructed = [(QuadraticForm(Q2, [-2, 2, 2, 6]), Q),
                   (QuadraticForm(Q2, [-1, 1, 1, 5]), Q),
                   (QuadraticForm(Q2, [Q2.rational(-1), Q2.one(), Q2.sqrt(2)]), Q),
                   (diagrams.ambient_form(diagrams.parse_diagram(G11_112, "g")), Q),
                   (QuadraticForm(Q23, [-1, 1, 1, 1]), Q2)]
    for f, k in rational + constructed:
        assert _model_facts(find_admissible_model(f, k)) == \
            _model_facts(bounded_model_search(f, k))


def test_find_admissible_model_refuses_irrational_base():
    f = QuadraticForm(Q23, [-1, 1, 1, 1])
    g, a = find_admissible_model(f, Q2)
    assert g is None and a is None


def test_subordinated_forms_relative_classes():
    model = QuadraticForm(Q, [-1, 1, 1])
    subs = subordinated_forms(model, Q23)
    lasts = [g.diagonal[-1].rational_value() for g in subs]
    assert lasts == [1, 2, 3, 6]
    # relative to Q(sqrt2) only the classes {1, 3} survive
    model2 = QuadraticForm(Q2, [Q2.rational(-1), Q2.one()])
    subs2 = subordinated_forms(model2, Q23)
    lasts2 = [g.diagonal[-1].rational_value() for g in subs2]
    assert lasts2 == [1, 3]


def test_subordinated_classes_of_large_radicands_are_not_factored(monkeypatch):
    # a class of K relative to k is the least _sqfree_mul of it with k's
    # classes, so the products of radicands below 2^64 are not factored
    def guarded(n):
        assert abs(n) < 2**64, f"factored a {abs(n).bit_length()}-bit number"
        return real(n)

    real = fields.factorize
    K = make_field([5000000000000023, 300000000000000011])
    monkeypatch.setattr(fields, "factorize", guarded)
    lasts = [g.diagonal[-1].rational_value()
             for g in subordinated_forms(QuadraticForm(Q, [-1, 1, 1]), K)]
    assert lasts == sorted(K.basis_class)
    k = make_field([5000000000000023])
    lasts = [g.diagonal[-1].rational_value()
             for g in subordinated_forms(QuadraticForm(k, [k.rational(-1), k.one()]), K)]
    assert lasts == [1, 300000000000000011]


def test_classify_is_invariant_under_relabeling():
    # the fig3a and fig3b orders reach a zero pivot among the first n+1
    # rows, so their ambient diagonals differ from the unrelabeled ones
    for name, perm in (("fig3e", [2, 3, 4, 5, 6, 7, 8, 1]),
                       ("fig3a", [4, 8, 6, 7, 3, 5, 2, 1]),
                       ("fig3b", [2, 1, 3, 4, 7, 5, 6, 8])):
        d = diagrams.load_diagram(os.path.join(CORPUS, f"{name}.cox"))
        base = classify_diagram(d)
        relabeled = classify_diagram(d.relabeled(perm))
        assert relabeled.verdict == base.verdict == PSEUDO_ARITHMETIC, name
        assert relabeled.trace_field == base.trace_field
        assert relabeled.model_a == base.model_a == 1


def test_corpus_reports_match_recorded_json():
    # report.to_json() of every corpus file, recorded before ambient_form
    # became a single elimination; re-record only for a deliberate change
    with open(os.path.join(os.path.dirname(__file__), "data", "corpus_reports.json")) as fh:
        recorded = json.load(fh)
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.cox")))
    assert sorted(recorded) == [os.path.basename(p)[:-4] for p in paths]
    for p in paths:
        d = diagrams.load_diagram(p)
        got = json.dumps(classify_diagram(d).to_json(), indent=2)
        assert got == json.dumps(recorded[d.name], indent=2), d.name


def test_census_sample_reports_match_recorded_json():
    # 48 diagrams of the generated census pool (seed 20181030, 480 slots),
    # 12 of each verdict, drawn with random.Random(20181111); each is stored
    # with its .cox text and report.to_json(), recorded before the
    # Schur-complement elimination and the numerator-split transfer.
    # Re-record only for a deliberate change.
    recorded = _census_sample()
    assert len(recorded) == 48
    assert {e["report"]["verdict"] for e in recorded.values()} == {
        ARITHMETIC, QUASI_ARITHMETIC, PSEUDO_ARITHMETIC, UNDETERMINED}
    for name, entry in sorted(recorded.items()):
        got = classify_diagram(diagrams.parse_diagram(entry["cox"], name)).to_json()
        assert json.dumps(got, sort_keys=True) == json.dumps(entry["report"],
                                                            sort_keys=True), name


def _census_pool() -> dict:
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "census_pool_hashes.json")) as fh:
        return json.load(fh)


def test_census_pool_reports_match_recorded_hashes():
    # all 480 diagrams of the generated census pool (seed 20181030), each
    # stored with its .cox text and the SHA-256 of
    # json.dumps(report.to_json(), sort_keys=True), recorded before the
    # degree-specialised products, the rescaled Gram written straight into
    # the elimination's matrix and the per-form prime sets.  Re-record only
    # for a deliberate change.
    recorded = _census_pool()
    assert len(recorded) == 480
    for name, entry in sorted(recorded.items()):
        report = classify_diagram(diagrams.parse_diagram(entry["cox"], name))
        got = hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()
        assert got == entry["sha256"], name


def test_signs_at_every_mask_agree_with_sign_at_over_the_pool():
    # every ambient-form entry of the census pool and every entry of its
    # transfers to each index-2 subfield: the all-mask table of fields.signs,
    # and fields.sign_at at each mask, are the signs of the 80-digit oracle
    checked = 0
    for name, entry in sorted(_census_pool().items()):
        f = diagrams.ambient_form(diagrams.parse_diagram(entry["cox"], name))
        entries = list(f.diagonal)
        for F in fields.subfields_index2(f.tower):
            entries += forms.transfer(f, F).diagonal
        for x in entries:
            rads, dx = x.tower.radicands, list(x.coeffs)
            want = tuple(dense_sign(rads, dx, m) for m in range(x.tower.degree))
            assert fields.signs(x) == want, (name, x)
            assert tuple(fields.sign_at(x, sigma) for sigma in x.tower.embeddings()) == want
            checked += x.tower.degree
    assert checked == 40_065  # 12,466 entries over Q and degrees 2, 4 and 8


def test_each_form_keeps_the_primes_of_its_relevant_places(monkeypatch):
    # every ambient form that classifying the census pool builds keeps the
    # prime set of relevant_finite_places on its diagonal; every transfer
    # and f + (-g) reaches the finite places with a set read off the forms
    # it comes from, having found none of its own, and a sum's set is its
    # own all the same, as N(-c) = +-N(c)
    built = {"ambient": [], "transfer": []}
    reached = []

    def recorder(kind, fn):
        def wrapped(*args):
            form = fn(*args)
            built[kind].append(form)
            return form
        return wrapped

    def finite(form, primes):
        assert form._primes is None
        reached.append((form, primes))
        return finite_hasse_hyperbolic(form, primes)

    finite_hasse_hyperbolic = localfields.finite_hasse_hyperbolic
    monkeypatch.setattr(diagrams, "ambient_form", recorder("ambient", diagrams.ambient_form))
    monkeypatch.setattr(forms, "transfer", recorder("transfer", forms.transfer))
    monkeypatch.setattr(localfields, "finite_hasse_hyperbolic", finite)
    for name, entry in sorted(_census_pool().items()):
        classify_diagram(diagrams.parse_diagram(entry["cox"], name))
    for form in built["ambient"]:
        places = localfields.relevant_finite_places(form.tower, form.diagonal)
        assert form.primes() == frozenset(pl.p for pl in places), form
    # every form that reaches the finite places and is no transfer is a sum
    # f + (-g) from globally_isometric; the forms are alive, so ids are unique
    transfers = {id(t) for t in built["transfer"]}
    sums = [(form, primes) for form, primes in reached if id(form) not in transfers]
    assert len(reached) - len(sums) == len(built["transfer"])
    for form, primes in reached:
        assert 2 in primes and form._primes is None, form
    for form, primes in sums:
        places = localfields.relevant_finite_places(form.tower, form.diagonal)
        assert primes == frozenset(pl.p for pl in places), form
    assert len(built["ambient"]) > 300 and len(built["transfer"]) > 50 and len(sums) > 20


def test_transfers_are_decided_at_the_places_of_their_source_form(monkeypatch):
    # every transfer that descend_field builds on the census pool gets the
    # verdict at the places above f.primes() alone, with no prime of a,
    # K = F(sqrt a), added, that it gets at the places above its own prime
    # set.  All of those are
    # hyperbolic, so seeded forms <c, r*sigma(c)>, r > 0 rational and sigma
    # the conjugation of K over F, add transfers of both verdicts: each
    # passes the fibre and norm checks, and its transfer q + (-r)*q is
    # hyperbolic exactly when r is a similarity factor of q, a question of
    # the finite places, here also put to the all-places oracle
    checked = []
    real = localfields.finite_hasse_hyperbolic

    def recording(form, primes):
        checked.append((form, primes))
        return real(form, primes)

    monkeypatch.setattr(localfields, "finite_hasse_hyperbolic", recording)
    for name, entry in sorted(_census_pool().items()):
        descend_field(diagrams.ambient_form(diagrams.parse_diagram(entry["cox"], name)))
    pool = len(checked)
    rng = random.Random(149)
    for K in (Q2, make_field([5]), Q23, make_field([3, 5]), make_field([5, 13])):
        for _ in range(8):
            c = K.element([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                           for _ in range(K.degree)]) or K.one()
            sigma = K.embeddings()[rng.randrange(1, K.degree)]
            descend_field(QuadraticForm(K, [c, oracles.conjugate(c, sigma) * rng.randint(1, 30)]))
    monkeypatch.undo()
    assert pool >= 50
    verdicts = Counter()
    for i, (form, primes) in enumerate(checked):
        got = real(form, primes)
        assert got == real(form, form.primes()), form
        if i >= pool:
            assert got is all_places_hyperbolic(form), form
        verdicts[i >= pool, got] += 1
    assert verdicts[True, True] >= 10 and verdicts[True, False] >= 10, verdicts


_LARGE_WEIGHT_TRIANGLE = "dim 2\nvertices 3\nedge 1 2 5\nedge 1 3 inf\nedge 2 3 w {}\n"

_CLASSIFY_TIMED = """
import json, sys, time
from coxarith.classify import classify_diagram
from coxarith.diagrams import parse_diagram

t0 = time.perf_counter()
report = classify_diagram(parse_diagram(sys.argv[1], "triangle"))
print(json.dumps({"s": time.perf_counter() - t0, "verdict": report.verdict, "a": report.model_a}))
"""


def test_a_large_weight_triangle_factors_no_transfer_norm():
    # the entries of its transfers have norms of some 120 digits, which
    # sympy does not factor in minutes, while the ambient form's own prime
    # set takes a fraction of a second; a fresh process, so no cache helps
    src = os.path.dirname(os.path.dirname(classify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _CLASSIFY_TIMED,
                          _LARGE_WEIGHT_TRIANGLE.format("4294967291*sqrt(2)")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert (got["verdict"], got["a"]) == (PSEUDO_ARITHMETIC, 1)
    assert got["s"] < 5.0, got


def test_a_large_weight_triangle_report_matches_recorded_json():
    # the same triangle with weight 1000003*sqrt(2), recorded while each
    # transfer still found its own prime set, which took 2 s or more of
    # factoring; re-record only for a deliberate change
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "large_weight_triangle.json")) as fh:
        recorded = json.load(fh)
    assert recorded["cox"] == _LARGE_WEIGHT_TRIANGLE.format("1000003*sqrt(2)")
    d = diagrams.parse_diagram(recorded["cox"], "weight-1000003-triangle")
    t0 = time.perf_counter()
    report = classify_diagram(d)
    assert time.perf_counter() - t0 < 1.5
    assert json.dumps(report.to_json(), indent=2) == json.dumps(recorded["report"], indent=2)


def test_report_defaults_are_fresh_per_instance():
    kwargs = dict(name="t", dim=2, vertices=3, trace_field=Q,
                  ambient=QuadraticForm(Q, [1, 1, -1]), quasi=False,
                  arithmetic=False, verdict=UNDETERMINED)
    first, second = ClassificationReport(**kwargs), ClassificationReport(**kwargs)
    first.transfers.append((Q, True))
    first.witnesses["nonintegral"] = {}
    first.notes.append("note")
    assert second.transfers == [] and second.witnesses == {} and second.notes == []
    for attr in ("base_field", "model", "model_a", "subordinated"):
        assert getattr(second, attr) is None
    assert (second.name, second.dim, second.vertices, second.verdict) == ("t", 2, 3, UNDETERMINED)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast and dis: about 1 MB of RSS in every
    # fresh process
    code = ("import sys, coxarith.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(classify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


_COLD_CORPUS = """
import json, pathlib, sys
from coxarith import localfields
from coxarith.classify import classify_diagram
from coxarith.diagrams import load_diagram

for path in sorted(pathlib.Path(sys.argv[1]).glob("*.cox")):
    classify_diagram(load_diagram(path))
print(json.dumps({"sympy": "sympy" in sys.modules, "models": len(localfields._MODELS),
                  "dyadic": sorted(str(gens) for gens, p in localfields._MODELS if p == 2)}))
"""


def test_cold_corpus_builds_no_dyadic_model_and_imports_no_sympy():
    # Hilbert reciprocity settles the one place above 2 of every corpus field,
    # and odd residue roots and prime-power norms need no sympy
    src = os.path.dirname(os.path.dirname(classify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _COLD_CORPUS, CORPUS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["models"] > 0
    assert not got["sympy"]
    assert got["dyadic"] == []


def test_basis_det_check_small():
    for rads, expect in (([2], -2), ([2, 3], 16), ([3, 5], 16)):
        res = basis_det_check(make_field(rads))
        assert res["det_B"] == expect
        assert res["identity_holds"]
    res = basis_det_check(Q)
    assert res["det_B"] == 1 and res["identity_holds"]


def test_basis_det_two_readings_agree():
    # the report carries the embedding-matrix det and its square (the
    # trace-form discriminant on this basis); they must be consistent
    for rads in ((), (2,), (2, 3), (2, 3, 5)):
        K = make_field(list(rads))
        res = basis_det_check(K)
        det = parse_element(res["det"], K)
        assert (det * det).rational_value() == Fraction(res["det_squared"])
        assert Fraction(res["det_squared"]) > 0
    assert basis_det_check(Q)["det"] == "1"


def test_report_round_trips_through_json():
    for text, name in ((ARITHMETIC_TRIANGLE, "t334"), (QUASI_TRIANGLE, "q54"),
                       (STUCK_TRIANGLE, "stuck")):
        rep = classify_diagram(diagrams.parse_diagram(text, name))
        j = rep.to_json()
        assert classify.report_from_json(j).to_json() == j
    j["ambient_diagonal"][0] = "1/0"
    with pytest.raises(ValueError, match="zero denominator"):
        classify.report_from_json(j)



def test_report_from_json_refuses_a_class_of_2_to_the_64():
    # the trace field of two weights sqrt(q), q < 2^64 prime, has the class
    # 4294967311 * 4294967357 >= 2^64: the report is built, but read back from
    # its JSON that class is an outside radicand, refused before factoring
    text = ("dim 2\nvertices 3\nedge 1 2 w sqrt(4294967311)\n"
            "edge 2 3 w sqrt(4294967357)\nedge 1 3 inf\n")
    j = classify_diagram(diagrams.parse_diagram(text, "big")).to_json()
    assert j["trace_field"]["radicands"] == [18446744400127067027]
    with pytest.raises(ValueError) as info:
        classify.report_from_json(j)
    assert str(info.value) == "a radicand takes values below 2^64, got 18446744400127067027"


def test_report_json_shape():
    rep = classify_diagram(diagrams.parse_diagram(ARITHMETIC_TRIANGLE, "t334"))
    j = rep.to_json()
    for key in ("diagram", "dim", "vertices", "trace_field", "ambient_diagonal",
                "quasi_arithmetic", "arithmetic", "verdict", "base_field",
                "transfers", "model", "subordinated", "witnesses", "notes"):
        assert key in j
    assert j["verdict"] == "arithmetic"
    assert j["trace_field"] == {"radicands": [2], "degree": 2}
