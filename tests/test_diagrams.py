"""Diagram parsing, Gram data, cycles, trace fields, ambient forms."""

import glob
import os
import random
from fractions import Fraction

import pytest

import oracles
from coxarith import diagrams, fields, forms
from coxarith.diagrams import (
    DiagramError,
    SignatureError,
    UnsupportedLabelError,
    ambient_form,
    load_diagram,
    parse_diagram,
)
from coxarith.fields import make_field

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

DELTA5 = """
dim 5
vertices 6
edge 1 2 3
edge 2 3 4
edge 3 4 3
edge 4 5 3
edge 5 6 3
edge 6 1 3
"""

TRIANGLE_334 = """
dim 2
vertices 3
edge 1 2 3
edge 2 3 3
edge 1 3 4
"""


def test_parse_gram_entries():
    d = parse_diagram(DELTA5, "delta5")
    assert (d.dim, d.size) == (5, 6)
    G = d.entries
    assert oracles.rescaled_gram(d)[0][0] == d.tower.one()
    assert G[(1, 2)].rational_value() == Fraction(-1, 2)
    assert G[(2, 3)] == -d.tower.sqrt(2) * Fraction(1, 2)
    assert (1, 3) not in G  # absent pair is a right angle
    assert all(i < j for i, j in G)  # each pair once: the Gram matrix is symmetric


def test_label_values():
    text = "dim 2\nvertices 3\nedge 1 2 {}\nedge 2 3 3\nedge 1 3 3\n"
    d = parse_diagram(text.format(4))
    assert d.entries[(1, 2)] == -d.tower.sqrt(2) * Fraction(1, 2)
    d = parse_diagram(text.format(5))
    assert d.entries[(1, 2)] == -(d.tower.one() + d.tower.sqrt(5)) * Fraction(1, 4)
    d = parse_diagram(text.format(6))
    assert d.entries[(1, 2)] == -d.tower.sqrt(3) * Fraction(1, 2)
    d = parse_diagram(text.format(12))
    assert d.entries[(1, 2)] == -(d.tower.sqrt(6) + d.tower.sqrt(2)) * Fraction(1, 4)
    d = parse_diagram(text.replace("edge 1 2 {}", "edge 1 2 inf"))
    assert d.entries[(1, 2)] == d.tower.rational(-1)


def test_label_entries_are_built_once_per_tower():
    # a label's entry is built once per (tower, label) and always lies over
    # the diagram's own tower, whatever towers the label was seen in before
    text = "dim 2\nvertices 3\nedge 1 2 3\nedge 2 3 {}\nedge 1 3 {}\n"
    first = {}
    for labels in ((3, 3), (4, 3), (5, 3), (4, 6), (12, 5), ("inf", 4)):
        for _ in range(2):
            d = parse_diagram(text.format(*labels))
            assert all(x.tower is d.tower for x in d.entries.values()), labels
            assert d.entries[(1, 2)] is first.setdefault(d.tower, d.entries[(1, 2)])
    assert len(first) == 5


def test_explicit_label_two_means_no_edge():
    d = parse_diagram("dim 2\nvertices 3\nedge 1 2 2\nedge 1 2 3\nedge 2 3 3\nedge 1 3 3\n"
                      .replace("edge 1 2 2\nedge 1 2 3", "edge 1 2 3"))
    assert (1, 2) in d.entries
    # a parse with an explicit 2 on a different pair: no entry stored
    d2 = parse_diagram("dim 2\nvertices 4\nedge 1 2 3\nedge 2 3 3\nedge 3 4 3\n"
                       "edge 1 4 2\nedge 1 3 3\n")
    assert (1, 4) not in d2.entries


def test_weight_expression_forms():
    base = "dim 2\nvertices 3\nedge 2 3 3\nedge 1 3 3\nedge 1 2 w {}\n"
    d = parse_diagram(base.format("1/2*sqrt(2)+1/3*sqrt(15)"))
    x = -d.entries[(1, 2)]
    assert x == d.tower.sqrt(2) * Fraction(1, 2) + d.tower.sqrt(15) * Fraction(1, 3)
    d = parse_diagram(base.format("cospi(5)+1/3*sqrt(15)"))
    x = -d.entries[(1, 2)]
    assert x == (d.tower.one() + d.tower.sqrt(5)) * Fraction(1, 4) + d.tower.sqrt(15) * Fraction(1, 3)
    d = parse_diagram(base.format("sqrt(8)-sqrt(2)"))  # = sqrt(2), normalized
    assert -d.entries[(1, 2)] == d.tower.sqrt(2)
    d = parse_diagram(base.format("3-sqrt(2)"))
    assert fields.sign_at(-d.entries[(1, 2)] - d.tower.one(),
                          d.tower.identity_embedding) > 0
    # terms of one class over different denominators; classes whose tower
    # basis element carries a scale (sqrt(15) = alpha / 2 over (6, 10)); a
    # class that cancels out of the tower
    d = parse_diagram(base.format("3/2+1/3"))
    assert d.tower.r == 0 and -d.entries[(1, 2)] == Fraction(11, 6)
    d = parse_diagram(base.format("2*cospi(5)+1/3*sqrt(5)"))
    assert -d.entries[(1, 2)] == d.tower.rational(Fraction(1, 2)) + d.tower.sqrt(5) * Fraction(5, 6)
    d = parse_diagram(base.format("1/2*sqrt(6)+1/3*sqrt(10)+1/5*sqrt(15)"))
    assert d.tower.radicands == (6, 10) and d.tower.basis_scale[3] == 2
    assert -d.entries[(1, 2)] == (d.tower.sqrt(6) * Fraction(1, 2) + d.tower.sqrt(10) * Fraction(1, 3)
                                  + d.tower.sqrt(15) * Fraction(1, 5))
    d = parse_diagram(base.format("sqrt(2)-sqrt(2)+3/2"))
    assert d.tower.r == 0 and -d.entries[(1, 2)] == Fraction(3, 2)


def test_parse_errors():
    with pytest.raises(DiagramError, match="dim"):
        parse_diagram("dim x\nvertices 3\n")
    with pytest.raises(DiagramError, match="headers"):
        parse_diagram("edge 1 2 3\n")
    with pytest.raises(DiagramError, match="duplicate"):
        parse_diagram("dim 2\nvertices 3\nedge 1 2 3\nedge 2 1 4\nedge 2 3 3\nedge 1 3 3\n")
    with pytest.raises(DiagramError, match="out of range"):
        parse_diagram("dim 2\nvertices 3\nedge 1 4 3\n")
    with pytest.raises(DiagramError, match="not connected"):
        parse_diagram("dim 3\nvertices 4\nedge 1 2 3\nedge 3 4 3\n")
    with pytest.raises(DiagramError, match="vertices must be positive"):
        parse_diagram("dim 2\nvertices 0\n")
    with pytest.raises(UnsupportedLabelError, match="non-multiquadratic"):
        parse_diagram("dim 2\nvertices 3\nedge 1 2 7\nedge 2 3 3\nedge 1 3 3\n")
    with pytest.raises(UnsupportedLabelError):
        parse_diagram("dim 2\nvertices 3\nedge 1 2 w cospi(8)\nedge 2 3 3\nedge 1 3 3\n")
    with pytest.raises(DiagramError, match="use inf"):
        parse_diagram("dim 2\nvertices 3\nedge 1 2 w 1\nedge 2 3 3\nedge 1 3 3\n")
    with pytest.raises(DiagramError, match="exceed 1"):
        parse_diagram("dim 2\nvertices 3\nedge 1 2 w 1/2\nedge 2 3 3\nedge 1 3 3\n")
    with pytest.raises(DiagramError, match="weight"):
        parse_diagram("dim 2\nvertices 3\nedge 1 2 w sqrt(2)*\nedge 2 3 3\nedge 1 3 3\n")
    for weight in ("3/0", "1/00*sqrt(2)", "2+1/0*cospi(5)"):
        with pytest.raises(DiagramError, match="zero denominator"):
            parse_diagram(f"dim 2\nvertices 3\nedge 1 2 3\nedge 2 3 3\nedge 1 3 w {weight}\n")


def test_simple_cycles():
    d = parse_diagram(DELTA5, "delta5")
    cycles = oracles.simple_cycles(d)
    assert cycles == [(1, 2, 3, 4, 5, 6)]
    t = parse_diagram(TRIANGLE_334)
    assert oracles.simple_cycles(t) == [(1, 2, 3)]
    path = parse_diagram("dim 2\nvertices 3\nedge 1 2 3\nedge 2 3 4\n")
    assert oracles.simple_cycles(path) == []


def _cycle_trace_field(d):
    gens = [a * a for a in d.entries.values()]
    gens += [oracles.cycle_product(d, c) for c in oracles.simple_cycles(d)]
    return oracles.minimal_field_of(gens)


def _rescaled_field(d):
    return oracles.minimal_field_of(x for row in oracles.rescaled_gram(d) for x in row)


def test_rescaled_gram_equals_the_element_products():
    # the integer construction against products of elements, entry for
    # entry, and its field against the field of the entries.  The two
    # triangles have trace fields whose basis carries a scale: Q(sqrt(6),
    # sqrt(10)) inside Q(sqrt(2),sqrt(3),sqrt(5)), where sqrt(60) = 2*sqrt(15),
    # and Q(sqrt(15)) inside Q(sqrt(6),sqrt(10)), whose own sqrt(60) is that
    # 2*sqrt(15)
    scaled = [
        parse_diagram("dim 2\nvertices 3\nedge 1 2 w sqrt(2)+sqrt(3)\n"
                      "edge 1 3 w sqrt(2)+sqrt(5)\nedge 2 3 w 2\n", "in235"),
        parse_diagram("dim 2\nvertices 3\nedge 1 2 w sqrt(6)\nedge 1 3 w sqrt(10)\n"
                      "edge 2 3 w 1+sqrt(15)\n", "in6_10"),
    ]
    assert [d.tower.radicands for d in scaled] == [(2, 3, 5), (6, 10)]
    rng = random.Random(29)
    cases = list(scaled)
    for p in sorted(glob.glob(os.path.join(CORPUS, "*.cox"))):
        d = load_diagram(p)
        perm = list(range(1, d.size + 1))
        rng.shuffle(perm)
        cases += [d, d.relabeled(perm)]
    fields_seen = []
    for d in cases:
        want, K = oracles.rescaled_gram_by_elements(d)
        M, den, field = diagrams._rescaled_gram(d)
        assert field is K and den > 0, d.name
        got = oracles.rescaled_gram(d)
        assert got == [[x.express_in(K) for x in row] for row in want], d.name
        fields_seen.append(K)
    assert fields_seen[:2] == [make_field([6, 10]), make_field([15])]
    assert fields_seen[0].basis_scale[3] == 2 and scaled[1].tower.basis_scale[3] == 2


def test_trace_field_examples():
    d = parse_diagram(DELTA5, "delta5")
    assert ambient_form(d).tower == _rescaled_field(d) == make_field([2])
    t = parse_diagram(TRIANGLE_334)
    assert ambient_form(t).tower == _rescaled_field(t) == make_field([2])
    # a tree with label 4 edges only: squared entries are rational,
    # no cycles, so the trace field collapses to Q
    tree = parse_diagram("dim 2\nvertices 3\nedge 1 2 4\nedge 2 3 4\n")
    assert _rescaled_field(tree) == make_field([])
    # the rescaled-Gram field against its definition (squared entries and
    # simple cycle products), on the corpus and seeded relabelings
    rng = random.Random(11)
    for p in sorted(glob.glob(os.path.join(CORPUS, "*.cox"))):
        d = load_diagram(p)
        for _ in range(4):
            assert ambient_form(d).tower == _cycle_trace_field(d), d.name
            perm = list(range(1, d.size + 1))
            rng.shuffle(perm)
            d = d.relabeled(perm)


def test_ambient_form_signature_and_field():
    d = parse_diagram(DELTA5, "delta5")
    f = ambient_form(d)
    K = _cycle_trace_field(d)
    assert f.tower == K and f.rank == 6
    assert forms.signature_at(f, K.identity_embedding) == (5, 1)
    assert f.det()


def test_ambient_form_rejects_wrong_signature():
    spherical = "dim 2\nvertices 3\nedge 1 2 3\nedge 2 3 3\nedge 1 3 3\n"
    with pytest.raises(SignatureError, match="not a hyperbolic polytope"):
        ambient_form(parse_diagram(spherical))
    euclidean = "dim 2\nvertices 3\nedge 1 2 3\nedge 2 3 6\nedge 1 3 2\n"
    with pytest.raises(SignatureError):
        ambient_form(parse_diagram(euclidean))
    # fig2a has Gram rank 5: declared in dimension 3 the rank is above n+1,
    # in dimension 5 below it
    with open(os.path.join(CORPUS, "fig2a.cox")) as fh:
        fig2a = fh.read()
    assert "dim 4\n" in fig2a
    for dim in (3, 5):
        with pytest.raises(SignatureError, match=f"dimension {dim}"):
            ambient_form(parse_diagram(fig2a.replace("dim 4\n", f"dim {dim}\n")))


def test_relabeling_permutes_entries():
    d = parse_diagram(DELTA5, "delta5")
    rng = random.Random(3)
    for _ in range(5):
        perm = list(range(1, d.size + 1))
        rng.shuffle(perm)
        r = d.relabeled(perm)
        assert len(r.entries) == len(d.entries)
        for (i, j), a in d.entries.items():
            x, y = perm[i - 1], perm[j - 1]
            assert r.entries[(min(x, y), max(x, y))] == a


def test_relabeled_refuses_a_list_one_too_long():
    d = parse_diagram(DELTA5, "delta5")
    with pytest.raises(ValueError, match="not a permutation"):
        d.relabeled([1, 2, 3, 4, 5, 6, 99])


def test_relabeled_refuses_a_list_too_short():
    d = parse_diagram(DELTA5, "delta5")
    with pytest.raises(ValueError, match="not a permutation"):
        d.relabeled([2, 1, 3, 4, 5])


def test_relabeled_refuses_a_dict_with_a_foreign_key():
    d = parse_diagram(DELTA5, "delta5")
    with pytest.raises(ValueError, match="not a permutation"):
        d.relabeled({1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 7: 6})
    # the same values on the vertices relabel
    assert d.relabeled({1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6}).entries == d.entries


def test_adjacency_matches_the_entries():
    # the adjacency is built once per diagram, relabeled ones included
    def scan(d, v):
        return tuple(sorted(j if i == v else i for (i, j) in d.entries if v in (i, j)))

    rng = random.Random(5)
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.cox"))):
        d = load_diagram(path)
        perm = list(range(1, d.size + 1))
        rng.shuffle(perm)
        for g in (d, d.relabeled(perm)):
            assert [g.neighbors(v) for v in range(1, g.size + 1)] == \
                [scan(g, v) for v in range(1, g.size + 1)]


def test_relabeled_ambient_form_is_isometric():
    d = parse_diagram(DELTA5, "delta5")
    f = ambient_form(d)
    rotated = d.relabeled([4, 5, 6, 1, 2, 3])  # new base vertex
    g = ambient_form(rotated)
    assert forms.globally_isometric(f, g)
    # orders on which the elimination meets a zero pivot among the first
    # n+1 rows, so the diagonal differs; it must stay isometric
    for name, perm in (("fig3a", [4, 8, 6, 7, 3, 5, 2, 1]),
                       ("fig3b", [2, 1, 3, 4, 7, 5, 6, 8])):
        d = load_diagram(os.path.join(CORPUS, f"{name}.cox"))
        f, g = ambient_form(d), ambient_form(d.relabeled(perm))
        assert g.tower == f.tower and g.rank == f.rank == d.dim + 1
        assert forms.signature_at(g, g.tower.identity_embedding) == (d.dim, 1)
        assert g.diagonal != f.diagonal
        assert forms.globally_isometric(f, g), name


def test_corpus_parses_and_is_hyperbolic():
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.cox")))
    assert len(paths) == 8
    for p in paths:
        d = load_diagram(p)
        f = ambient_form(d)
        assert forms.signature_at(f, f.tower.identity_embedding) == (d.dim, 1)


def test_load_diagram_missing_file():
    with pytest.raises(OSError):
        load_diagram(os.path.join(CORPUS, "nope.cox"))
