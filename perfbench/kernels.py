"""Layer kernels: single public functions timed on seeded inputs.

Each kernel checks its own results and returns (metrics, attempted, failed).
`hasse_case` runs in a fresh process (see child.py) so that its first call
pays for building the local model, as a cold CLI run does.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from coxarith import fields, localfields, lvalues

FIELD_DEGREES = {2: (2,), 4: (2, 3), 8: (2, 3, 5)}
HASSE_CASES = {"q2_3_5.p2": ((2, 3, 5), 2), "q2_3_5.p5": ((2, 3, 5), 5)}
KERNEL_SECONDS = 0.15  # per timed kernel, split into repeats


def _per_op(fn, items, seconds: float = KERNEL_SECONDS, repeats: int = 5) -> float:
    """Median seconds per call of fn over items, from `repeats` timed sweeps."""
    sweeps = []
    deadline = time.perf_counter() + seconds
    while len(sweeps) < repeats or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for x in items:
            fn(x)
        sweeps.append((time.perf_counter() - t0) / len(items))
    return statistics.median(sweeps)


def _element(rng: random.Random, K: fields.FieldTower, integral: bool = False):
    while True:
        cs = [Fraction(rng.randint(-40, 40), 1 if integral else rng.randint(1, 9))
              for _ in range(K.degree)]
        x = K.element(cs)
        if x:
            return x


def field_kernels(seed: int) -> tuple[dict, int, int]:
    rng = random.Random(seed)
    out, attempted, failed = {}, 0, 0
    for deg, rads in FIELD_DEGREES.items():
        K = fields.make_field(rads)
        xs = [_element(rng, K) for _ in range(32)]
        ys = [_element(rng, K) for _ in range(32)]
        pairs = list(zip(xs, ys))
        # half perfect squares, half random elements
        sq = [x * x for x in xs[:16]] + ys[:16]
        out[f"fields.mul_us.deg{deg}"] = 1e6 * _per_op(lambda p: p[0] * p[1], pairs)
        out[f"fields.inverse_us.deg{deg}"] = 1e6 * _per_op(lambda x: x.inverse(), xs)
        out[f"fields.is_square_us.deg{deg}"] = 1e6 * _per_op(fields.is_square, sq)
        one = K.one()
        for x, y in pairs:
            attempted += 1
            failed += not (x * x.inverse() == one and (x * y) * y.inverse() == x)
        for k, s in enumerate(sq):
            ok, root = fields.is_square(s)
            attempted += 1
            failed += not ((k >= 16 or ok) and (not ok or root * root == s))
    return out, attempted, failed


def hurwitz_kernels() -> tuple[dict, int, int]:
    out = {}
    balls = {}
    for d in (24, 60):
        out[f"lvalues.hurwitz_zeta_ms.d{d}"] = 1e3 * _per_op(
            lambda a: lvalues.hurwitz_zeta(3, a, d), [Fraction(1), Fraction(3, 8)])
        balls[d] = lvalues.hurwitz_zeta(3, Fraction(1), d)
    ok = (balls[24].contains(balls[60].value)
          and balls[60].agrees_with(lvalues.zeta3_direct(2000)))
    return out, 1, int(not ok)


def hasse_case(case: str, seed: int) -> dict:
    """Cold first call and warm per-call time of hasse_invariant at one place.

    Rational forms are checked against the product of rational Hilbert
    symbols raised to the local degree; every form is also recomputed and
    must give the same value.
    """
    rads, p = HASSE_CASES[case]
    K = fields.make_field(rads)
    place = localfields.splitting(K, p)[0]
    rng = random.Random(seed)
    forms = [[_element(rng, K, integral=True) for _ in range(4)] for _ in range(24)]
    rational = [[K.rational(rng.choice([-1, 1]) * rng.randint(1, 60)) for _ in range(4)]
                for _ in range(8)]
    t0 = time.perf_counter()
    first = localfields.hasse_invariant(forms[0], place)
    cold = time.perf_counter() - t0
    values = {}
    t0 = time.perf_counter()
    for k, f in enumerate(forms):
        values[k] = localfields.hasse_invariant(f, place)
    warm = (time.perf_counter() - t0) / len(forms)
    attempted = failed = 0
    for k, f in enumerate(forms):
        attempted += 1
        failed += localfields.hasse_invariant(f, place) != values[k]
    attempted += 1
    failed += first != values[0]
    for f in rational:
        qs = [c.rational_value() for c in f]
        expect = 1
        for i in range(4):
            for j in range(i + 1, 4):
                expect *= localfields.hilbert_symbol_Q(qs[i], qs[j], p)
        attempted += 1
        failed += localfields.hasse_invariant(f, place) != expect ** place.degree
    return {"cold_ms": 1e3 * cold, "warm_us": 1e6 * warm,
            "attempted": attempted, "failed": failed}

