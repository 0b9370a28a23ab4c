"""The diagram intake: every refusal's class and message, ASCII digits, the
reference intake, and the one tokenizer of weights and element literals."""

import contextlib
import glob
import io
import json
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coxarith import cli, diagrams, fields
from coxarith.diagrams import DiagramError, SignatureError, UnsupportedLabelError, parse_diagram
from coxarith.fields import element_literal, make_field, parse_element

HERE = os.path.dirname(__file__)
CORPUS = os.path.join(HERE, "..", "corpus")

H = "dim 2\nvertices 3\n"
W = H + "edge 2 3 3\nedge 1 3 3\nedge 1 2 w "  # a triangle whose edge (1,2) is a weight
LONG = "1" * 601  # one digit over the bound on a digit run
TOO_LONG = "number of more than 600 digits"

# Recorded from parse_diagram and parse_element as they stood before the
# intake was made lean (one tokenizer, the weight check at the identity
# embedding): the exception class and full message of every refusal branch,
# and the order in which the checks meet them.
DIAGRAM_ERRORS = [
    ('dim x\nvertices 3\n', DiagramError, 'line 1: bad dim header'),
    ('dim 2\ndim 2\n', DiagramError, 'line 2: bad dim header'),
    ('dim 2 3\n', DiagramError, 'line 1: bad dim header'),
    ('dim\n', DiagramError, 'line 1: bad dim header'),
    ('dim -1\nvertices 3\n', DiagramError, 'line 1: bad dim header'),
    ('dim 2\nvertices x\n', DiagramError, 'line 2: bad vertices header'),
    (H + 'vertices 3\n', DiagramError, 'line 3: bad vertices header'),
    ('dim 2\nvertices 3 4\n', DiagramError, 'line 2: bad vertices header'),
    ('# comment\n\n  dim 1.5\n', DiagramError, 'line 3: bad dim header'),
    ('', DiagramError, 'missing dim/vertices headers'),
    ('# only a comment\n', DiagramError, 'missing dim/vertices headers'),
    ('dim 2\n', DiagramError, 'missing dim/vertices headers'),
    ('vertices 3\n', DiagramError, 'missing dim/vertices headers'),
    ('dim 0\nvertices 3\n', DiagramError, 'dim must be positive'),
    ('dim 2\nvertices 0\n', DiagramError, 'vertices must be positive'),
    ('dim 0\nvertices 3\nedge 1 2 w 1/2\nedge 2 3 3\n', DiagramError, 'dim must be positive'),
    ('dim 2\nvertices 0\nedge 1 2 3\n', DiagramError, 'line 3: vertex index out of range'),
    (H + 'foo 1 2\n', DiagramError, "line 3: unknown directive 'foo'"),
    (H + 'Edge 1 2 3\n', DiagramError, "line 3: unknown directive 'Edge'"),
    (H + 'edge 1 2 7\nfoo\n',
     UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    ('edge 1 2 3\n', DiagramError, 'line 1: edge before dim/vertices headers'),
    ('dim 2\nedge 1 2 3\n', DiagramError, 'line 2: edge before dim/vertices headers'),
    (H + 'edge 1 2\n', DiagramError, 'line 3: edge needs two vertices and a label'),
    (H + 'edge 1\n', DiagramError, 'line 3: edge needs two vertices and a label'),
    (H + 'edge\n', DiagramError, 'line 3: edge needs two vertices and a label'),
    (H + 'edge 1 x 3\n', DiagramError, 'line 3: bad vertex index'),
    (H + 'edge 1.0 2 3\n', DiagramError, 'line 3: bad vertex index'),
    (H + 'edge 1 4 3\n', DiagramError, 'line 3: vertex index out of range'),
    (H + 'edge 0 1 3\n', DiagramError, 'line 3: vertex index out of range'),
    (H + 'edge -1 2 3\n', DiagramError, 'line 3: bad vertex index'),
    (H + 'edge 2 2 3\n', DiagramError, 'line 3: vertex index out of range'),
    (H + 'edge 1_0 2 3\n', DiagramError, 'line 3: bad vertex index'),
    (H + 'edge 1 2 3\nedge 2 1 4\n', DiagramError, 'line 4: duplicate edge (1, 2)'),
    (H + 'edge 1 2 3\nedge 1 2 x\n', DiagramError, 'line 4: duplicate edge (1, 2)'),
    (H + 'edge 3 1 w 2\nedge 1 3 3\n', DiagramError, 'line 4: duplicate edge (1, 3)'),
    (H + 'edge 1 2 w\n', DiagramError, 'line 3: weighted edge needs an expression'),
    (H + 'edge 1 2 x\n', DiagramError, "line 3: bad edge label 'x'"),
    (H + 'edge 1 2 +3\n', DiagramError, "line 3: bad edge label '+3'"),
    (H + 'edge 1 2 3.0\n', DiagramError, "line 3: bad edge label '3.0'"),
    (H + 'edge 1 2 Inf\n', DiagramError, "line 3: bad edge label 'Inf'"),
    (H + 'edge 1 2 1\n', DiagramError, 'line 3: bad edge label 1'),
    (H + 'edge 1 2 0\n', DiagramError, 'line 3: bad edge label 0'),
    (H + 'edge 1 2 01\n', DiagramError, 'line 3: bad edge label 1'),
    (H + 'edge 1 2 7\n', UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    (H + 'edge 1 2 8 x\n', UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    (H + 'edge 1 2 100\n', UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    (H + 'edge 1 2 3 4\n', DiagramError, 'line 3: trailing tokens after label'),
    (H + 'edge 1 2 inf x\n', DiagramError, 'line 3: trailing tokens after label'),
    (H + 'edge 1 2 2 x\n', DiagramError, 'line 3: trailing tokens after label'),
    (H + 'edge 1 2 x y\n', DiagramError, "line 3: bad edge label 'x'"),
    (H + 'edge 1 2 3 # fine\nedge 2 3 3\nedge 1 3 3 3\n',
     DiagramError, 'line 5: trailing tokens after label'),
    ('dim 3\nvertices 4\nedge 1 2 3\nedge 3 4 3\n', DiagramError, 'diagram is not connected'),
    (H + 'edge 1 2 3\nedge 1 3 2\n', DiagramError, 'diagram is not connected'),
    ('dim 2\nvertices 3\n', DiagramError, 'diagram is not connected'),
    # enough edges for the count, so the search from vertex 1 refuses it
    ('dim 3\nvertices 4\nedge 1 2 3\nedge 2 3 3\nedge 1 3 3\n', DiagramError,
     'diagram is not connected'),
    (W + 'sqrt(2)*\n', DiagramError, "missing sign in weight expression: 'sqrt(2)*'"),
    (W + '2sqrt(2)\n', DiagramError, "missing sign in weight expression: '2sqrt(2)'"),
    (W + '2*\n', DiagramError, "missing sign in weight expression: '2*'"),
    (W + '1+\n', DiagramError, "bad weight expression: '1+'"),
    (W + '+-1\n', DiagramError, "bad weight expression: '+-1'"),
    (W + '--1\n', DiagramError, "bad weight expression: '--1'"),
    (W + 'x\n', DiagramError, "bad weight expression: 'x'"),
    (W + 'sqrt(x)\n', DiagramError, "bad weight expression: 'sqrt(x)'"),
    (W + 'sqrt(2\n', DiagramError, "bad weight expression: 'sqrt(2'"),
    (W + 'sqrt(-2)\n', DiagramError, "bad weight expression: 'sqrt(-2)'"),
    (W + '1/2/3\n', DiagramError, "missing sign in weight expression: '1/2/3'"),
    (W + '*2\n', DiagramError, "bad weight expression: '*2'"),
    (W + '1 +\n', DiagramError, "bad weight expression: '1+'"),
    (W + '1+ x\n', DiagramError, "bad weight expression: '1+x'"),
    (W + 'cos(5)\n', DiagramError, "bad weight expression: 'cos(5)'"),
    (W + '2*cospi\n', DiagramError, "missing sign in weight expression: '2*cospi'"),
    (W + '1/2*\n', DiagramError, "missing sign in weight expression: '1/2*'"),
    (W + '3/0\n', DiagramError, "zero denominator in weight expression: '3/0'"),
    (W + '1/00*sqrt(2)\n', DiagramError, "zero denominator in weight expression: '1/00*sqrt(2)'"),
    (W + '2+1/0*cospi(5)\n',
     DiagramError, "zero denominator in weight expression: '2+1/0*cospi(5)'"),
    (W + '0/0\n', DiagramError, "zero denominator in weight expression: '0/0'"),
    (W + 'sqrt(0)\n', DiagramError, 'sqrt of a nonpositive integer in weight'),
    (W + '2*sqrt(00)+1/0\n', DiagramError, 'sqrt of a nonpositive integer in weight'),
    (W + '1/0+sqrt(0)\n', DiagramError, "zero denominator in weight expression: '1/0+sqrt(0)'"),
    (W + 'sqrt(0)+x\n', DiagramError, 'sqrt of a nonpositive integer in weight'),
    (W + 'x+sqrt(0)\n', DiagramError, "bad weight expression: 'x+sqrt(0)'"),
    (W + 'cospi(7)\n', UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    (W + '2*cospi(8)\n', UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    (W + '1/0+cospi(7)\n', DiagramError, "zero denominator in weight expression: '1/0+cospi(7)'"),
    (W + 'cospi(7)+1/0\n', UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    (W + 'cospi(1)\n', UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    (W + 'cospi(0)\n', UnsupportedLabelError, 'unsupported label: non-multiquadratic cosine'),
    (W + 'sqrt(2)cospi(5)\n',
     DiagramError, "missing sign in weight expression: 'sqrt(2)cospi(5)'"),
    (W + '1\n', DiagramError, 'edge (1,2): weight 1 is a parallel pair, use inf'),
    (W + '3/2-1/2\n', DiagramError, 'edge (1,2): weight 1 is a parallel pair, use inf'),
    (W + '2*cospi(3)\n', DiagramError, 'edge (1,2): weight 1 is a parallel pair, use inf'),
    (W + '1/2\n', DiagramError, 'edge (1,2): weight must exceed 1'),
    (W + '-2\n', DiagramError, 'edge (1,2): weight must exceed 1'),
    (W + '0\n', DiagramError, 'edge (1,2): weight must exceed 1'),
    (W + 'sqrt(2)-sqrt(2)\n', DiagramError, 'edge (1,2): weight must exceed 1'),
    (W + '2-sqrt(2)\n', DiagramError, 'edge (1,2): weight must exceed 1'),
    (W + '2*cospi(5)-sqrt(5)\n', DiagramError, 'edge (1,2): weight must exceed 1'),
    (W + '1+sqrt(2)-665857/470832\n', DiagramError, 'edge (1,2): weight must exceed 1'),
    (W + '1+sqrt(2)-1572584048032918633353217/1111984844349868137938112\n',
     DiagramError, 'edge (1,2): weight must exceed 1'),
    (W + 'cospi(2)+cospi(3)\n', DiagramError, 'edge (1,2): weight must exceed 1'),
    ('dim 2\nvertices 4\nedge 1 2 w 1/2\nedge 3 4 3\n',
     DiagramError, 'edge (1,2): weight must exceed 1'),
    (H + 'edge 1 2 w 2\nedge 2 3 w 1\nedge 1 3 w 1/2\n',
     DiagramError, 'edge (2,3): weight 1 is a parallel pair, use inf'),
    (H + 'edge 1 2 w 1/2\nedge 2 3 foo\n', DiagramError, "line 4: bad edge label 'foo'"),
    # added with the refusals of a vertex index that is not all digits and
    # of whitespace between two digits, which used to join them
    (H + 'edge +1 2 3\n', DiagramError, 'line 3: bad vertex index'),
    (H + 'edge 1 +2 3\n', DiagramError, 'line 3: bad vertex index'),
    (W + '1 2\n', DiagramError, "missing sign in weight expression: '1 2'"),
    (W + '1/2 3\n', DiagramError, "missing sign in weight expression: '1/2 3'"),
    (W + '1/2 3*sqrt(2)\n', DiagramError, "missing sign in weight expression: '1/2 3*sqrt(2)'"),
    (W + '1 + 2 3\n', DiagramError, "missing sign in weight expression: '1+2 3'"),
    (W + 'sqrt(1 0)\n', DiagramError, "bad weight expression: 'sqrt(1 0)'"),
    (W + '2 1/0\n', DiagramError, "missing sign in weight expression: '2 1/0'"),
    # added with the bound of 600 digits on a digit run, refused before int()
    # reads it (Python's own limit would refuse 4301 digits with its message)
    (f'dim {LONG}\nvertices 3\n', DiagramError, f'line 1: {TOO_LONG}'),
    (f'dim {"9" * 5000}\nvertices 3\n', DiagramError, f'line 1: {TOO_LONG}'),
    (f'dim 0{"0" * 599}2\nvertices 3\n', DiagramError, f'line 1: {TOO_LONG}'),
    (f'dim x{LONG}\nvertices 3\n', DiagramError, 'line 1: bad dim header'),
    (f'dim 2\nvertices {LONG}\n', DiagramError, f'line 2: {TOO_LONG}'),
    (f'dim 2\nvertices 3\nvertices {LONG}\n', DiagramError, 'line 3: bad vertices header'),
    (H + f'edge {LONG} 2 3\n', DiagramError, f'line 3: {TOO_LONG}'),
    (H + f'edge 1 {"7" * 5000} 3\n', DiagramError, f'line 3: {TOO_LONG}'),
    (H + f'edge 1 x{LONG} 3\n', DiagramError, 'line 3: bad vertex index'),
    (H + f'edge {LONG} 2\n', DiagramError, 'line 3: edge needs two vertices and a label'),
    (H + f'edge 1 2 {LONG}\n', DiagramError, f'line 3: {TOO_LONG}'),
    (H + f'edge 1 2 {"0" * 600}3\n', DiagramError, f'line 3: {TOO_LONG}'),
    (H + f'edge 1 2 {"3" * 5000} x\n', DiagramError, f'line 3: {TOO_LONG}'),
    (W + f'{LONG}\n', DiagramError, f'{TOO_LONG} in weight expression'),
    (W + f'{"1" * 5000}\n', DiagramError, f'{TOO_LONG} in weight expression'),
    (W + f'1/{LONG}\n', DiagramError, f'{TOO_LONG} in weight expression'),
    (W + f'2+sqrt({LONG})\n', DiagramError, f'{TOO_LONG} in weight expression'),
    (W + f'2*cospi({LONG})\n', DiagramError, f'{TOO_LONG} in weight expression'),
    (W + f'2+{LONG}/3*sqrt(2)\n', DiagramError, f'{TOO_LONG} in weight expression'),
    (W + f'{LONG}+1/0\n', DiagramError, f'{TOO_LONG} in weight expression'),
    (W + f'1/0+{LONG}\n', DiagramError, f"zero denominator in weight expression: '1/0+{LONG}'"),
    (W + f'2{LONG}\n', DiagramError, f'{TOO_LONG} in weight expression'),
]

ELEMENT_ERRORS = [  # (literal, tower radicands or None, ValueError message)
    ('', None, 'empty element literal'),
    ('   ', None, 'empty element literal'),
    ('x', None, "bad element literal at 'x'"),
    ('1+', None, "bad element literal at '+'"),
    ('2*', None, "bad element literal at '*'"),
    ('-', None, "bad element literal at '-'"),
    ('++1', None, "bad element literal at '++1'"),
    ('1/2/3', None, "bad element literal at '/3'"),
    ('2sqrt(2)', None, "missing +/- between terms in '2sqrt(2)'"),
    ('1 sqrt(2)', None, "missing +/- between terms in '1 sqrt(2)'"),
    ('sqrt(2) sqrt(3)', None, "missing +/- between terms in 'sqrt(2) sqrt(3)'"),
    ('1/0', None, "zero denominator in element literal '1/0'"),
    ('1/0*sqrt(0)', None, "zero denominator in element literal '1/0*sqrt(0)'"),
    ('0/0', None, "zero denominator in element literal '0/0'"),
    ('sqrt(0)', None, 'sqrt(0) is not a valid term'),
    ('3*sqrt(00)', None, 'sqrt(0) is not a valid term'),
    ('sqrt(-2)', None, "bad element literal at 'sqrt(-2)'"),
    ('sqrt(2', None, "bad element literal at 'sqrt(2'"),
    ('cospi(5)', None, "bad element literal at 'cospi(5)'"),
    ('2*cospi(5)', None, "bad element literal at '*cospi(5)'"),
    ('1+cospi(3)', None, "bad element literal at '+cospi(3)'"),
    ('1/0+x', None, "zero denominator in element literal '1/0+x'"),
    ('x+1/0', None, "bad element literal at 'x+1/0'"),
    ('sqrt(3)', [2], 'sqrt(3) does not lie in Q(sqrt(2))'),
    ('sqrt(8)', [], 'sqrt(2) does not lie in Q'),
    ('1+1/2*sqrt(15)', [3], 'sqrt(15) does not lie in Q(sqrt(3))'),
    ('1*', None, "bad element literal at '*'"),
    ('*1', None, "bad element literal at '*1'"),
    ('1.5', None, "bad element literal at '.5'"),
    ('1e3', None, "bad element literal at 'e3'"),
    # added with the refusal of whitespace between two digits
    ('1 2', None, "missing +/- between terms in '1 2'"),
    ('1/2 3', None, "missing +/- between terms in '1/2 3'"),
    ('1/2\t 3*sqrt(2)', None, "missing +/- between terms in '1/2\\t 3*sqrt(2)'"),
    ('1 + 2 3', None, "missing +/- between terms in '1 + 2 3'"),
    ('sqrt(1 0)', None, "bad element literal at 'sqrt(1 0)'"),
    ('1/0 2', None, "zero denominator in element literal '1/0 2'"),
    # added with the bound of 600 digits on a digit run
    (LONG, None, f'{TOO_LONG} in element literal'),
    ("1" * 5000, None, f'{TOO_LONG} in element literal'),
    (f'1/{LONG}', None, f'{TOO_LONG} in element literal'),
    (f'1+{LONG}*sqrt(2)', None, f'{TOO_LONG} in element literal'),
    (f'sqrt({LONG})', None, f'{TOO_LONG} in element literal'),
    (f'sqrt({LONG})', [2], f'{TOO_LONG} in element literal'),
    (f'{LONG}+1/0', None, f'{TOO_LONG} in element literal'),
    (f'1/0+{LONG}', None, f"zero denominator in element literal '1/0+{LONG}'"),
    (f'x+{LONG}', None, f"bad element literal at 'x+{LONG}'"),
]


def test_every_diagram_refusal_keeps_its_class_and_message():
    for text, cls, message in DIAGRAM_ERRORS:
        for parse in (parse_diagram, oracles.parse_diagram_reference):
            with pytest.raises(DiagramError) as info:
                parse(text)
            assert (type(info.value), str(info.value)) == (cls, message), (parse, text)


def test_a_huge_vertex_count_is_refused_before_a_diagram_is_built(monkeypatch):
    # a connected graph on n vertices has n - 1 edges or more and a right
    # angle carries no entry, so too few entries are refused before one
    # adjacency list per declared vertex is allocated
    def refuse(*args):
        raise AssertionError("a CoxeterDiagram was built")

    monkeypatch.setattr(diagrams, "CoxeterDiagram", refuse)
    for text in ("dim 3\nvertices 1000000000000\nedge 1 2 3\n",
                 "dim 3\nvertices 1000000000000\nedge 1 2 3\nedge 2 3 2\nedge 3 4 w 2\n"):
        with pytest.raises(DiagramError) as info:
            parse_diagram(text)
        assert str(info.value) == "diagram is not connected"


def test_every_element_refusal_keeps_its_message():
    for text, rads, message in ELEMENT_ERRORS:
        with pytest.raises(ValueError) as info:
            parse_element(text, None if rads is None else make_field(rads))
        assert (type(info.value), str(info.value)) == (ValueError, message), text


def test_a_radicand_of_2_to_the_64_or_more_is_refused_before_it_is_factored(monkeypatch):
    # the squarefree part of sqrt(k) is found by factoring k, which has no
    # bound on a large semiprime; outside input keeps k below 2^64
    huge = (2**89 - 1) * (2**107 - 1)  # 196 bits

    def guarded(n):
        assert abs(n) < 2**64, f"factored a {abs(n).bit_length()}-bit radicand"
        return real(n)

    real = fields.squarefree_part
    monkeypatch.setattr(fields, "squarefree_part", guarded)
    for k in (huge, 2**64):
        for expr in (f"sqrt({k})", f"1+2*sqrt({k})+1/0", f"2 + 1/2*sqrt ({k})"):
            with pytest.raises(DiagramError) as info:
                parse_diagram(W + expr + "\n")
            compact = "".join(expr.split())
            assert (type(info.value), str(info.value)) == (
                DiagramError, f"sqrt of 2^64 or more in weight expression: {compact!r}"), expr
            with pytest.raises(ValueError) as info:
                parse_element(expr)
            assert (type(info.value), str(info.value)) == (
                ValueError, f"sqrt of 2^64 or more in element literal {expr!r}"), expr
    # the first failure in reading order still wins
    with pytest.raises(DiagramError, match="zero denominator"):
        parse_diagram(W + f"1/0+sqrt({huge})\n")
    # 4294967291 * 4294967279 has 64 bits and 2^64 - 1 seven prime factors
    assert parse_element("sqrt(18446743979220271189)").tower.radicands == (18446743979220271189,)
    assert parse_element(f"sqrt({2**64 - 1})").tower.radicands == (2**64 - 1,)
    assert parse_diagram(W + "sqrt(18446743979220271189)\n").tower.radicands == (
        18446743979220271189,)


def test_a_digit_run_of_600_is_read_under_the_least_int_limit():
    # 600 digits stay below the least limit that sys.set_int_max_str_digits
    # accepts (640), so no accepted run meets Python's own refusal
    n = "9" * 600
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        d = parse_diagram(W + f"{n}/7\n")
        x = parse_element(f"1/{n}+sqrt(2)")
    finally:
        sys.set_int_max_str_digits(old)
    assert -d.entries[(1, 2)] == Fraction(int(n), 7) and x.den == int(n)
    assert parse_diagram(f"dim 0{'0' * 598}2\nvertices 3\nedge 1 2 3\nedge 2 3 3\n"
                         f"edge 1 3 {'0' * 599}4\n").dim == 2


def test_whitespace_between_terms_and_symbols_is_dropped():
    # whitespace that joins no two digits is ignored, in both grammars
    for text in ("1/2 + 1/2*sqrt(6)", " 1 / 2+1/2 * sqrt ( 6 ) ", "\t1/2\n+1/2*sqrt(6)"):
        assert parse_element(text) == parse_element("1/2+1/2*sqrt(6)")
    for expr in ("1 + sqrt(2)", "1+ sqrt ( 2 )", "1 +sqrt(2)"):
        assert -parse_diagram(W + expr + "\n").entries[(1, 2)] == parse_element("1+sqrt(2)")


def test_digits_are_ascii_only():
    # str.isdigit, int() and the regex \d all accept Unicode digits such as
    # superscripts and Arabic-Indic digits; the grammar takes ASCII digits
    # only and refuses the others with the error of the token they stand in
    for text, message in (
            ("dim \u00b2\nvertices 3\n", "line 1: bad dim header"),
            ("dim \uff13\nvertices 4\n", "line 1: bad dim header"),
            ("dim 2\nvertices \u0663\n", "line 2: bad vertices header"),
            (H + "edge \u0661 2 3\n", "line 3: bad vertex index"),
            (H + "edge 1 2\u0660 3\n", "line 3: bad vertex index"),
            (H + "edge 1 2 \u00b3\n", "line 3: bad edge label '\u00b3'"),
            (H + "edge 1 2 \u0663\n", "line 3: bad edge label '\u0663'"),
            (W + "\u0663/\u0662\n", "bad weight expression: '\u0663/\u0662'"),
            (W + "2+sqrt(\u0662)\n", "bad weight expression: '2+sqrt(\u0662)'"),
            (W + "3/\u0662\n", "missing sign in weight expression: '3/\u0662'"),
            (W + "2*cospi(\u0665)\n", "missing sign in weight expression: '2*cospi(\u0665)'")):
        with pytest.raises(DiagramError) as info:
            parse_diagram(text)
        assert (type(info.value), str(info.value)) == (DiagramError, message), text
    for text, message in (("\u0663", "bad element literal at '\u0663'"),
                          ("sqrt(\u0662)", "bad element literal at 'sqrt(\u0662)'"),
                          ("1/\u0662", "bad element literal at '/\u0662'"),
                          ("1+\u00b2", "bad element literal at '+\u00b2'")):
        with pytest.raises(ValueError) as info:
            parse_element(text)
        assert str(info.value) == message, text
    # the same texts in ASCII digits parse
    assert parse_diagram("dim 3\nvertices 4\nedge 1 2 3\nedge 2 3 3\nedge 3 4 3\n").dim == 3
    assert parse_element("3/2") == parse_element("1+1/2")


def _random_weight(rng: random.Random) -> str:
    """A weight expression of one to four terms, with spaces where a .cox line may have them."""
    terms = []
    for k in range(rng.randint(1, 4)):
        coef = rng.choice(["", f"{rng.randint(0, 9)}*", f"{rng.randint(1, 9)}/{rng.randint(1, 6)}*"])
        body = rng.choice([f"{rng.randint(0, 12)}", f"{rng.randint(1, 9)}/{rng.randint(1, 8)}",
                           f"{coef}sqrt({rng.choice([2, 3, 5, 6, 8, 12, 15, 18, 20, 50])})",
                           f"{coef}cospi({rng.choice([2, 3, 4, 5, 6, 12])})"])
        terms.append(("" if k == 0 and rng.random() < 0.7 else rng.choice("+-")) + body)
    return rng.choice(["", " "]).join(terms)


def _mutated(rng: random.Random, expr: str) -> str:
    """expr with one character dropped, doubled or replaced, for the refusals."""
    i = rng.randrange(len(expr))
    c = rng.choice("+-*/()0 x7")
    return rng.choice([expr[:i] + expr[i + 1:], expr[:i] + expr[i] + expr[i:],
                       expr[:i] + c + expr[i + 1:]]) or "0"


def _parsed(parse, text):
    """(tower, {key: (den, nums)}, adjacency, (M, den, K)) of a parse, or its
    refusal as (exception class, message)."""
    try:
        d = parse(text)
    except DiagramError as exc:
        return type(exc), str(exc)
    return (d.tower, {k: (a.den, a.nums) for k, a in d.entries.items()},
            [d.neighbors(v) for v in range(1, d.size + 1)], diagrams._rescaled_gram(d))


def test_intake_matches_the_reference_intake():
    # the pool of generated census diagrams, the corpus and the dodecahedron,
    # and seeded weights, well formed or not: the same tower (the same
    # object), entries, adjacency and (M, den, K), or the same refusal; the
    # reference Gram on the reference parse gives the same (M, den, K)
    with open(os.path.join(HERE, "data", "census_pool_hashes.json")) as fh:
        texts = [(name, v["cox"]) for name, v in sorted(json.load(fh).items())]
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.cox"))) + [
            os.path.join(HERE, "data", "dodecahedron.cox")]:
        with open(path) as fh:
            texts.append((os.path.basename(path), fh.read()))
    rng = random.Random(2026)
    exprs = [_random_weight(rng) for _ in range(300)]
    exprs += [_mutated(rng, e) for e in exprs[:150]]
    texts += [(f"w{k}", W + e + "\n") for k, e in enumerate(exprs)]
    refused = 0
    for name, text in texts:
        got = _parsed(parse_diagram, text)
        want = _parsed(oracles.parse_diagram_reference, text)
        assert got == want, (name, text)
        if len(got) == 2:
            refused += 1
            continue
        assert got[0] is want[0]
        ref = oracles.parse_diagram_reference(text)
        assert oracles.rescaled_gram_reference(ref) == got[3], name
    assert len(texts) == 480 + 9 + 450 and 100 <= refused <= 350


def test_weights_and_element_literals_read_one_grammar():
    # a weight without cospi terms is an element literal: parse_element reads
    # the same value, and element_literal gives it back
    rng = random.Random(77)
    checked = 0
    for _ in range(400):
        expr = _random_weight(rng)
        try:
            d = parse_diagram(W + expr + "\n")
        except DiagramError:
            continue
        w = -d.entries[(1, 2)]
        assert parse_element(element_literal(w), d.tower) == w
        assert parse_element(element_literal(w)) == w
        if "cospi" not in expr:
            assert parse_element(expr) == w, expr
            checked += 1
    assert checked >= 50


def test_weight_is_certified_to_exceed_one():
    # w - 1 is certified positive at the identity embedding, in integers:
    # the two weights 1 + sqrt(2) - a/b lie on either side of 1, within
    # 1e-27 of it
    d = parse_diagram(W + "1+sqrt(2)-1572584048032918633353216/1111984844349868137938112\n")
    assert d.tower.radicands == (2,)
    d = parse_diagram(W + "1/2*sqrt(2)+1/3*sqrt(3)-1/5*sqrt(5)+1\n")
    assert d.tower.degree == 8
    with pytest.raises(DiagramError, match="must exceed 1"):
        parse_diagram(W + "1+sqrt(2)-1572584048032918633353217/1111984844349868137938112\n")


def test_label_entries_are_one_table_per_tower():
    # every label whose cosine lies in the tower, at most six, each entry
    # -cos(pi/m) or -1, built once per tower and shared by its diagrams
    d = parse_diagram("dim 2\nvertices 3\nedge 1 2 12\nedge 2 3 5\nedge 1 3 inf\n")
    table = diagrams.label_entries(d.tower)
    assert d.tower.radicands == (2, 3, 5)
    assert sorted(map(str, table)) == ["12", "3", "4", "5", "6", "inf"]
    for m, x in table.items():
        want = "-1" if m == "inf" else element_literal(-parse_element(
            {3: "1/2", 4: "1/2*sqrt(2)", 5: "1/4+1/4*sqrt(5)", 6: "1/2*sqrt(3)",
             12: "1/4*sqrt(6)+1/4*sqrt(2)"}[m]))
        assert element_literal(x) == want and x.tower is d.tower
    assert d.entries[(1, 2)] is table[12] and d.entries[(1, 3)] is table["inf"]
    q = diagrams.label_entries(parse_diagram("dim 2\nvertices 3\nedge 1 2 3\nedge 2 3 3\n").tower)
    assert sorted(map(str, q)) == ["3", "inf"]
    assert diagrams.label_entries(d.tower) is table
    # built on first use for a tower that no diagram was read in
    assert sorted(map(str, diagrams.label_entries(fields.make_field([7, 11])))) == ["3", "inf"]


# -- a seeded fuzzer over the .cox token grammar ------------------------------------

# numbers: small, around 2^64 (2^64 - 59 and 2^64 + 13 are prime), digit runs
# about the bound and far over it, and Unicode digits beside ASCII ones
_NUMBERS = st.one_of(
    st.integers(0, 13).map(str),
    st.sampled_from(["00", "01", str(2**64 - 59), str(2**64 - 1), str(2**64), str(2**64 + 13),
                     "18446743979220271189"]),
    st.builds(lambda n, c: c * n, st.integers(598, 5000), st.sampled_from("019")),
    st.builds(lambda a, u: a + u, st.sampled_from(["", "1"]),
              st.sampled_from(["٣", "３", "²", "৪"])),
)
_TERMS = st.one_of(
    _NUMBERS,
    st.builds("{}/{}".format, _NUMBERS, _NUMBERS),
    st.builds("sqrt({})".format, _NUMBERS),
    st.builds("{}*sqrt({})".format, _NUMBERS, _NUMBERS),
    st.builds("cospi({})".format, _NUMBERS),
)
_WEIGHTS = st.lists(st.tuples(st.sampled_from(["", "+", "-", " "]), _TERMS),
                    min_size=1, max_size=3).map(lambda ts: "".join(s + t for s, t in ts))
_LABELS = st.one_of(st.sampled_from(["2", "3", "4", "5", "6", "12", "inf", "7", "1", "0"]),
                    _NUMBERS, _WEIGHTS.map("w {}".format))
_LINES = st.one_of(
    st.builds("dim {}".format, _NUMBERS),
    st.builds("vertices {}".format, _NUMBERS),
    st.builds("edge {} {} {}".format, _NUMBERS, _NUMBERS, _LABELS),
    st.builds("edge {} {} {}".format, st.sampled_from("1234"), st.sampled_from("1234"), _LABELS),
    st.sampled_from(["", "# comment", "edge 1 2", "foo 1 2", "dim 3", "vertices 4"]),
)


@st.composite
def cox_texts(draw):
    """A triangle whose third edge is a label or a weight, with up to three
    lines replaced, inserted, repeated, dropped or mutated by one character."""
    third = draw(st.one_of(st.sampled_from(["4", "inf"]), _WEIGHTS.map("w {}".format)))
    lines = ["dim 2", "vertices 3", "edge 1 2 3", "edge 2 3 3", f"edge 1 3 {third}"]
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["replace", "insert", "repeat", "drop", "mutate"]))
        # the last line half the time: the headers are refused soon enough
        i = draw(st.just(len(lines) - 1) | st.integers(0, len(lines) - 1)) if lines else 0
        if op == "insert" or not lines:
            lines.insert(i, draw(_LINES))
        elif op == "replace":
            lines[i] = draw(_LINES)
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "drop":
            del lines[i]
        else:
            j = draw(st.integers(0, len(lines[i])))
            c = draw(st.sampled_from("0123456789 /*+-()wx#\t٣"))
            lines[i] = lines[i][:j] + c + lines[i][j + 1:]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(cox_texts())
def test_fuzzed_diagrams_parse_or_raise_only_the_grammars_errors(text):
    # DiagramError covers UnsupportedLabelError; the time bound is generous,
    # as a radicand just below 2^64 is factored
    t0 = time.monotonic()
    try:
        parse_diagram(text)
    except (DiagramError, SignatureError):
        pass
    assert time.monotonic() - t0 < 10


@settings(max_examples=8, deadline=None)
@given(st.lists(cox_texts(), min_size=1, max_size=4))
def test_batch_prints_one_row_per_fuzzed_file(texts):
    with tempfile.TemporaryDirectory() as tmp:
        for k, text in enumerate(texts):
            with open(os.path.join(tmp, f"f{k}.cox"), "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(["batch", tmp])
    rows = out.getvalue().splitlines()
    assert rows[0] == cli._TSV_HEADER
    assert [row.split("\t")[0] for row in rows[1:]] == [f"f{k}" for k in range(len(texts))]
