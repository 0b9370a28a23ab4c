"""The reference table every benchmark run checks its outputs against.

    python3 perfbench/reference.py      # re-record perfbench/reference.json

Recording classifies the bundled corpus and the whole census pool
in-process and evaluates the volume identity at the digits the benchmark
uses.  Re-record only when a change to verdicts, fields or the volume value
is intended; the diff of the table is then the thing to review.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PATH = os.path.join(HERE, "reference.json")
VOLUME_DIGITS = (24, 60)  # the command line's default and its maximum


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def facts(report) -> dict:
    """The checked part of a ClassificationReport: verdict, fields and a."""
    return {
        "dim": report.dim,
        "verdict": report.verdict,
        "trace_field": list(report.trace_field.radicands),
        "base_field": (list(report.base_field.radicands)
                       if report.base_field is not None else None),
        "a": report.model_a,
    }


def json_facts(j: dict) -> dict:
    """The same facts read from the JSON the command line prints."""
    return {
        "dim": j["dim"],
        "verdict": j["verdict"],
        "trace_field": j["trace_field"]["radicands"],
        "base_field": j["base_field"]["radicands"] if j["base_field"] else None,
        "a": j["model"]["a"] if j["model"] else None,
    }


def _field_str(radicands: list[int]) -> str:
    return "Q(" + ",".join(f"sqrt({d})" for d in radicands) + ")" if radicands else "Q"


def batch_tsv(corpus: dict) -> str:
    """The exact stdout `coxarith batch corpus/` must print."""
    lines = ["reference\tdim\ttrace_field\tdegree\tverdict\ta"]
    for name in sorted(corpus):
        f = corpus[name]
        lines.append("\t".join([name, str(f["dim"]), _field_str(f["trace_field"]),
                                str(2 ** len(f["trace_field"])), f["verdict"],
                                "" if f["a"] is None else str(f["a"])]))
    return "\n".join(lines) + "\n"


def record() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from coxarith import classify, diagrams, lvalues

    import census

    corpus_dir = os.path.join(ROOT, "corpus")
    corpus = {}
    for fn in sorted(os.listdir(corpus_dir)):
        if fn.endswith(".cox"):
            d = diagrams.load_diagram(os.path.join(corpus_dir, fn))
            corpus[d.name] = facts(classify.classify_diagram(d))
    pool = {name: facts(classify.classify_diagram(diagrams.parse_diagram(text, name)))
            for name, text in census.pool()}
    volume = {str(d): lvalues.delta5_volume_check(d)["value"] for d in VOLUME_DIGITS}
    table = {"corpus": corpus, "pool": pool, "volume": volume}
    sections = []
    for sec in sorted(table):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in sorted(table[sec].items()))
        sections.append(f" {json.dumps(sec)}: {{\n{rows}\n }}")
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")


if __name__ == "__main__":
    record()
