"""Command line front end.

    coxarith classify corpus/delta5.cox
    coxarith batch corpus/ --tsv
    coxarith volume --digits 24
    coxarith audit --field 2,3 --prime 2

Exit codes: 0 definite verdict (or identity verified), 1 parse, input or
usage error, 2 non-hyperbolic signature, 3 unsupported edge label, 4
undetermined (or identity not confirmed at the requested precision), 5
internal error: any other exception while classifying a file, such as a
failed internal consistency check.
A batch turns such a file into an error row and goes on with the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SIGNATURE = 2
EXIT_UNSUPPORTED = 3
EXIT_UNDETERMINED = 4
EXIT_INTERNAL = 5

_TSV_HEADER = "reference\tdim\ttrace_field\tdegree\tverdict\ta"


def _code_for_exception(exc: Exception) -> int:
    from . import diagrams

    if isinstance(exc, diagrams.UnsupportedLabelError):
        return EXIT_UNSUPPORTED
    if isinstance(exc, diagrams.SignatureError):
        return EXIT_SIGNATURE
    return EXIT_PARSE


def _tsv_row(j: dict) -> str:
    from . import fields

    if "error" in j:
        return "\t".join([j["diagram"], "", "", "", f"error: {j['error']}", ""])
    tf = j["trace_field"]
    a = j["model"]["a"] if j.get("model") and j["model"].get("a") is not None else ""
    return "\t".join([
        j["diagram"], str(j["dim"]), str(fields._class_tower(tf["radicands"])),
        str(tf["degree"]), j["verdict"], str(a),
    ])


def _pretty(j: dict, out) -> None:
    from . import fields

    tf = j["trace_field"]
    print(f"{j['diagram']}: dimension {j['dim']}, {j['vertices']} facets", file=out)
    print(f"  trace field      {fields._class_tower(tf['radicands'])}  (degree {tf['degree']})",
          file=out)
    print(f"  ambient form     <{', '.join(j['ambient_diagonal'])}>", file=out)
    print(f"  verdict          {j['verdict']}", file=out)
    if j.get("base_field") is not None:
        base = fields._class_tower(j["base_field"]["radicands"])
        print(f"  base field       {base}", file=out)
    for t in j.get("transfers", []):
        tag = "hyperbolic" if t["hyperbolic"] else "not hyperbolic"
        print(f"    transfer to {str(fields._class_tower(t['subfield'])):24s} {tag}", file=out)
    if j.get("model") is not None:
        print(f"  model            <{', '.join(j['model']['diagonal'])}>", file=out)
    if j.get("subordinated"):
        subs = ", ".join("<" + ", ".join(d) + ">" for d in j["subordinated"])
        print(f"  subordinated     {subs}", file=out)
    for note in j.get("notes", []):
        print(f"  note: {note}", file=out)


def _classify(path: str):
    """The ClassificationReport of the diagram at path, or its error row."""
    from . import classify, diagrams

    name = os.path.splitext(os.path.basename(path))[0]
    try:
        return classify.classify_diagram(diagrams.load_diagram(path))
    except (ValueError, OSError) as exc:
        return {"diagram": name, "error": str(exc),
                "exit_code": _code_for_exception(exc)}
    except Exception as exc:  # one failing file must not abort a batch
        import traceback
        traceback.print_exc(file=sys.stderr)
        return {"diagram": name, "error": f"internal error: {type(exc).__name__}: {exc}",
                "exit_code": EXIT_INTERNAL}


def _classify_json(path: str) -> dict:
    report = _classify(path)
    return report if type(report) is dict else report.to_json()


def cmd_classify(args) -> int:
    from . import classify, localfields

    t0 = time.monotonic()
    report = _classify(args.path)
    if type(report) is dict:
        print(f"error: {report['error']}", file=sys.stderr)
        return report["exit_code"]
    j = report.to_json()
    j["ms"] = int((time.monotonic() - t0) * 1000)
    if args.audit_local:
        # the form's kept primes, found, not outside input: past local_audit's gate
        j["local_audit"] = {str(p): localfields._local_audit(report.trace_field, p)
                            for p in sorted(report.ambient.primes())}
    if args.tsv:
        print(_TSV_HEADER)
        print(_tsv_row(j))
    elif args.pretty:
        _pretty(j, sys.stdout)
    else:
        print(json.dumps(j, indent=2))
    return EXIT_OK if j["verdict"] != classify.UNDETERMINED else EXIT_UNDETERMINED


def _expand_paths(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(os.path.join(p, f) for f in os.listdir(p) if f.endswith(".cox"))
        else:
            out.append(p)
    out.sort(key=lambda p: (os.path.basename(p), p))
    return out


def cmd_batch(args) -> int:
    from . import classify

    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_PARSE
    paths = _expand_paths(args.paths)
    if not paths:  # an empty corpus is a valid (empty) table
        print("[]" if args.json else _TSV_HEADER)
        return EXIT_OK
    workers = min(args.jobs, len(paths))  # the pool forks all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import, so only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_classify_json, paths))
    else:
        results = [_classify_json(p) for p in paths]
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print(_TSV_HEADER)
        for j in results:
            print(_tsv_row(j))
    for j in results:
        if "error" in j:
            return j["exit_code"]
    if any(j["verdict"] == classify.UNDETERMINED for j in results):
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_volume(args) -> int:
    from . import lvalues
    try:
        res = lvalues.delta5_volume_check(args.digits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps(res, indent=2))
    return EXIT_OK if res["match"] else EXIT_UNDETERMINED


def cmd_audit(args) -> int:
    from . import fields, localfields

    try:
        rads = [int(t) for t in args.field.split(",") if t.strip()] if args.field else []
        # refused before anything is factored: factoring a large semiprime has no bound
        for flag, n in [("--field", d) for d in rads] + [("--prime", args.prime)]:
            fields._bounded(n, flag)
        tower = fields.make_field(rads)
        audit = localfields.local_audit(tower, args.prime)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps(audit, indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2; subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="coxarith",
                                 description="arithmeticity of hyperbolic Coxeter groups")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a single diagram file")
    c.add_argument("path")
    c.add_argument("--audit-local", action="store_true",
                   help="attach local splitting and symbol tables")
    fmt = c.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--tsv", action="store_true")
    fmt.add_argument("--pretty", action="store_true")
    c.set_defaults(func=cmd_classify)

    b = sub.add_parser("batch", help="classify many files, TSV summary")
    b.add_argument("paths", nargs="+", help="diagram files or directories")
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--json", action="store_true", help="full reports instead of TSV")
    b.set_defaults(func=cmd_batch)

    v = sub.add_parser("volume", help="verify the closed-form volume identity")
    v.add_argument("--digits", type=int, default=24)
    v.set_defaults(func=cmd_volume)

    a = sub.add_parser("audit", help="dump local field data above a prime")
    a.add_argument("--field", default="", help="comma separated radicands, e.g. 2,3")
    a.add_argument("--prime", type=int, required=True)
    a.set_defaults(func=cmd_audit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
