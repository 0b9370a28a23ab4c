"""Seeded census of generated Coxeter simplices for the benchmark.

The generator owns its randomness: `generate(seed, count)` returns `.cox`
texts and nothing else, so the program under test sees only its normal
input format.  Diagrams are simplices (n+1 mirrors in dimension n,
n = 2..5) whose pairs carry a label from {2,3,4,5,6,12,inf} or, now and
then, a divergent weight from a fixed pool.  The rational weights are
what make `quasi-arithmetic` reachable: over Q every form of signature
(n,1) is admissible, and a weight such as 5/4 breaks integrality.

A candidate is kept when its Gram matrix has signature (n,1), checked in
floating point with a wide margin so that the exact check in the program
agrees.  Nothing else is filtered: slow and undetermined diagrams stay.
"""

from __future__ import annotations

import math
import random

DIMS = (2, 3, 4, 5)
LABELS = (2, 3, 4, 5, 6, 12, "inf")
LABEL_WEIGHTS = (30, 30, 12, 8, 8, 4, 4)
# labels whose squared cosine is rational, for the slots that aim at Q
RATIONAL_LABELS = (2, 3, "inf")
RATIONAL_LABEL_WEIGHTS = (40, 40, 8)
RATIONAL_WEIGHTS = 4  # the first four pool entries are rational
WEIGHT_SHARE = 0.12
# (expression in the .cox weight syntax, its float value)
WEIGHTS = (
    ("5/4", 1.25),
    ("3/2", 1.5),
    ("7/4", 1.75),
    ("2", 2.0),
    ("sqrt(2)", math.sqrt(2)),
    ("1/2*sqrt(6)", math.sqrt(6) / 2),
    ("1/2+1/2*sqrt(5)", (1 + math.sqrt(5)) / 2),
    ("1/2+1/2*sqrt(3)", (1 + math.sqrt(3)) / 2),
)


def _gram_entry(label) -> float:
    if label == "inf":
        return -1.0
    if isinstance(label, int):
        return -math.cos(math.pi / label)
    return -label[1]


def _inertia(gram: list[list[float]]) -> tuple[int, int, float]:
    """(positive, negative, smallest |pivot|) by symmetric elimination."""
    a = [row[:] for row in gram]
    n = len(a)
    pos = neg = 0
    smallest = math.inf
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][i]))
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        d = a[k][k]
        smallest = min(smallest, abs(d))
        if abs(d) < 1e-9:
            return pos, neg, 0.0
        pos += d > 0
        neg += d < 0
        for i in range(k + 1, n):
            f = a[i][k] / d
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return pos, neg, smallest


def _candidate(rng: random.Random, dim: int, rational: bool):
    size = dim + 1
    labels, label_weights = (RATIONAL_LABELS, RATIONAL_LABEL_WEIGHTS) if rational \
        else (LABELS, LABEL_WEIGHTS)
    weights = WEIGHTS[:RATIONAL_WEIGHTS] if rational else WEIGHTS
    edges = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if rng.random() < WEIGHT_SHARE:
                edges[(i, j)] = rng.choice(weights)
            else:
                edges[(i, j)] = rng.choices(labels, label_weights)[0]
    return edges


def _text(name: str, dim: int, edges: dict) -> str:
    lines = [f"# generated census diagram {name}", f"dim {dim}", f"vertices {dim + 1}"]
    for (i, j), label in sorted(edges.items()):
        if label == 2:
            continue
        if isinstance(label, tuple):
            lines.append(f"edge {i} {j} w {label[0]}")
        else:
            lines.append(f"edge {i} {j} {label}")
    return "\n".join(lines) + "\n"


def _acceptable(dim: int, edges: dict) -> bool:
    size = dim + 1
    gram = [[1.0] * size for _ in range(size)]
    for (i, j), label in edges.items():
        gram[i - 1][j - 1] = gram[j - 1][i - 1] = _gram_entry(label)
    # connected: the program rejects disconnected diagrams
    seen, stack = {1}, [1]
    while stack:
        v = stack.pop()
        for w in range(1, size + 1):
            if w not in seen and edges.get((min(v, w), max(v, w)), 2) != 2:
                seen.add(w)
                stack.append(w)
    if len(seen) != size:
        return False
    pos, neg, smallest = _inertia(gram)
    return (pos, neg) == (dim, 1) and smallest > 1e-6


def generate(seed: int, count: int) -> list[tuple[str, str]]:
    """`count` (name, .cox text) pairs, the same for the same seed.

    Slot k has dimension DIMS[k % 4] and, when k % 3 == 2, draws from the
    rational label and weight pools; each slot holds the first acceptable
    candidate drawn for it.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        dim = DIMS[k % len(DIMS)]
        while True:
            edges = _candidate(rng, dim, rational=k % 3 == 2)
            if _acceptable(dim, edges):
                break
        name = f"g{seed}-{k:03d}"
        out.append((name, _text(name, dim, edges)))
    return out


# The census of a run is drawn from one fixed pool, so that every diagram a
# run classifies has an entry in the reference table recorded beside it.
POOL_SEED = 20181030
POOL_SIZE = 480


def pool() -> list[tuple[str, str]]:
    return generate(POOL_SEED, POOL_SIZE)


def stratum(ref: dict) -> tuple:
    """Reference facts that set a diagram's cost: verdict, radicand count, dim."""
    return ref["verdict"], len(ref["trace_field"]), ref["dim"]


def census(seed: int, reference: dict) -> list[tuple[str, str]]:
    """The run's census: half of every stratum of the pool, rounded up.

    `reference` maps pool names to their recorded reports.  Sampling within
    strata keeps the census cost steady from seed to seed; rounding up keeps
    every diagram of the pool reachable, singletons included.  The order of
    the result is shuffled by the seed as well.
    """
    rng = random.Random(seed)
    groups: dict[tuple, list[tuple[str, str]]] = {}
    for name, text in pool():
        groups.setdefault(stratum(reference[name]), []).append((name, text))
    out = []
    for key in sorted(groups):
        members = groups[key]
        out.extend(rng.sample(members, (len(members) + 1) // 2))
    rng.shuffle(out)
    return out
