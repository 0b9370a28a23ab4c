"""End-to-end tests for the command line interface.

Everything goes through cli.main(argv) so exit codes are the return
values; stdout is captured with capsys.  One subprocess test checks the
module is runnable as python -m coxarith.cli.
"""

import ast
import concurrent.futures
import glob
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from coxarith import classify, cli, diagrams, fields, localfields
from coxarith.fields import element_literal, parse_element

DELTA5 = "corpus/delta5.cox"

STUCK = """
dim 2
vertices 3
edge 1 2 4
edge 2 3 4
edge 1 3 w sqrt(2)
"""

SPHERICAL = """
dim 2
vertices 3
edge 1 2 3
edge 2 3 3
"""

ZERO_DENOMINATOR = """
dim 2
vertices 3
edge 1 2 3
edge 2 3 3
edge 1 3 w 3/0
"""

BAD_LABEL = """
dim 2
vertices 3
edge 1 2 7
edge 2 3 3
edge 1 3 3
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr()


def test_classify_json_delta5(capsys):
    code, cap = run(capsys, "classify", DELTA5)
    assert code == cli.EXIT_OK
    j = json.loads(cap.out)
    assert j["diagram"] == "delta5"
    assert j["dim"] == 5 and j["vertices"] == 6
    assert j["trace_field"] == {"radicands": [2], "degree": 2}
    assert j["verdict"] == "pseudo-arithmetic-first-type"
    assert j["base_field"] == {"radicands": [], "degree": 1}
    assert j["model"]["a"] == 1
    assert isinstance(j["ms"], int) and j["ms"] >= 0


def test_classify_diagonal_literals_round_trip(capsys):
    code, cap = run(capsys, "classify", DELTA5)
    assert code == 0
    j = json.loads(cap.out)
    K = fields.make_field(j["trace_field"]["radicands"])
    for lit in j["ambient_diagonal"]:
        assert element_literal(parse_element(lit, K)) == lit


def test_classify_tsv(capsys):
    code, cap = run(capsys, "classify", DELTA5, "--tsv")
    lines = cap.out.splitlines()
    assert code == 0
    assert lines[0] == "reference\tdim\ttrace_field\tdegree\tverdict\ta"
    cells = lines[1].split("\t")
    assert cells == ["delta5", "5", "Q(sqrt(2))", "2",
                     "pseudo-arithmetic-first-type", "1"]


def test_classify_pretty(capsys):
    code, cap = run(capsys, "classify", DELTA5, "--pretty")
    assert code == 0
    assert "trace field" in cap.out
    assert "Q(sqrt(2))" in cap.out
    assert "subordinated" in cap.out


def test_classify_audit_local(capsys):
    code, cap = run(capsys, "classify", DELTA5, "--audit-local")
    assert code == 0
    j = json.loads(cap.out)
    assert j["local_audit"]
    for audit in j["local_audit"].values():
        assert audit["places"]
        assert audit["pairing_matrix"]


def test_classify_audit_local_matches_recorded_tables(capsys):
    # verdicts leave the place above 2 to Hilbert reciprocity, but the audit
    # still builds its tables; recorded before that shortcut, for every corpus file
    with open(os.path.join(os.path.dirname(__file__), "data", "corpus_audit_local.json")) as fh:
        recorded = json.load(fh)
    paths = sorted(glob.glob("corpus/*.cox"))
    assert sorted(recorded) == [os.path.basename(p)[:-4] for p in paths]
    for path in paths:
        code, cap = run(capsys, "classify", path, "--audit-local")
        assert code == cli.EXIT_OK
        got = json.loads(cap.out)["local_audit"]
        assert got["2"]["p"] == 2
        assert json.dumps(got) == json.dumps(recorded[os.path.basename(path)[:-4]]), path


def test_classify_audit_local_reaches_found_primes_above_2_to_the_64(tmp_path, capsys):
    # w = Q + 1 with Q = 2^64 + 13 prime: 1 - w^2 = -Q(Q + 2) puts Q among the
    # relevant primes, which the audit takes past the gate on outside primes
    Q = 2**64 + 13
    path = tmp_path / "big.cox"
    path.write_text(f"dim 2\nvertices 3\nedge 2 3 3\nedge 1 3 3\nedge 1 2 w {Q + 1}\n")
    code, cap = run(capsys, "classify", str(path), "--audit-local")
    assert code == cli.EXIT_OK, cap.err
    audit = json.loads(cap.out)["local_audit"][str(Q)]
    assert audit["p"] == Q
    assert audit["places"] == [{"e": 1, "f": 1, "signs": []}]



def test_classify_audit_local_reads_the_form_of_a_class_above_2_to_the_64(tmp_path, capsys):
    # the trace field Q(sqrt(4294967311 * 4294967357)) has a class >= 2^64: the
    # audit reads the report's form and its kept primes, so no literal of it
    # goes back through parse_element's gate on outside input
    text = ("dim 2\nvertices 3\nedge 1 2 w sqrt(4294967311)\n"
            "edge 2 3 w sqrt(4294967357)\nedge 1 3 inf\n")
    path = tmp_path / "big.cox"
    path.write_text(text)
    code, cap = run(capsys, "classify", str(path), "--audit-local")
    assert code == cli.EXIT_OK, cap.err
    j = json.loads(cap.out)
    assert j["trace_field"]["radicands"] == [18446744400127067027]
    assert j["verdict"] == classify.PSEUDO_ARITHMETIC
    assert list(j["local_audit"]) == ["2", "5", "23", "131", "364289", "4294967311"]
    report = classify.classify_diagram(diagrams.parse_diagram(text, "big"))
    K = report.trace_field
    assert list(j["local_audit"]) == [str(p) for p in sorted({pl.p for pl in (
        localfields.relevant_finite_places(K, report.ambient.diagonal))})]
    assert all(a["field"] == str(K) for a in j["local_audit"].values())


def test_classify_pretty_prints_every_note(tmp_path, capsys):
    # two undetermined pool diagrams, one for each note the pool's reports carry
    with open(os.path.join(os.path.dirname(__file__), "data", "census_pool_hashes.json")) as fh:
        pool = json.load(fh)
    for name in ("g20181030-001", "g20181030-160"):
        path = tmp_path / f"{name}.cox"
        path.write_text(pool[name]["cox"])
        _, cap = run(capsys, "classify", str(path))
        notes = json.loads(cap.out)["notes"]
        code, cap = run(capsys, "classify", str(path), "--pretty")
        assert code == cli.EXIT_UNDETERMINED and notes
        assert [ln for ln in cap.out.splitlines() if ln.startswith("  note: ")] == \
            [f"  note: {note}" for note in notes]


def test_classify_undetermined_exit(tmp_path, capsys):
    p = tmp_path / "stuck.cox"
    p.write_text(STUCK)
    code, cap = run(capsys, "classify", str(p))
    assert code == cli.EXIT_UNDETERMINED
    j = json.loads(cap.out)
    assert j["verdict"] == "undetermined"


def test_classify_error_codes(tmp_path, capsys):
    cases = [
        (BAD_LABEL, cli.EXIT_UNSUPPORTED),
        (SPHERICAL, cli.EXIT_SIGNATURE),
        ("not a diagram\n", cli.EXIT_PARSE),
        (ZERO_DENOMINATOR, cli.EXIT_PARSE),
    ]
    for i, (text, expected) in enumerate(cases):
        p = tmp_path / f"case{i}.cox"
        p.write_text(text)
        code, cap = run(capsys, "classify", str(p))
        assert code == expected
        assert cap.out == ""
        assert "error:" in cap.err
    code, cap = run(capsys, "classify", str(tmp_path / "missing.cox"))
    assert code == cli.EXIT_PARSE


def test_batch_corpus_tsv(capsys):
    code, cap = run(capsys, "batch", "corpus")
    assert code == 0
    lines = cap.out.splitlines()
    assert lines[0].startswith("reference\t")
    assert len(lines) == 9
    names = [ln.split("\t")[0] for ln in lines[1:]]
    assert names == sorted(names)
    assert all(ln.split("\t")[4] == "pseudo-arithmetic-first-type"
               for ln in lines[1:])
    assert all(ln.split("\t")[5] == "1" for ln in lines[1:])


def test_batch_is_deterministic_and_parallel_agrees(capsys):
    _, cap1 = run(capsys, "batch", "corpus")
    _, cap2 = run(capsys, "batch", "corpus")
    assert cap1.out == cap2.out
    code, cap3 = run(capsys, "batch", "corpus", "--jobs", "2")
    assert code == 0
    assert cap3.out == cap1.out


def test_batch_workers_never_outnumber_files(monkeypatch, capsys):
    # a fake pool that maps in-process and records its width: no process starts
    widths = []

    class FakePool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # cmd_batch imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    _, serial = run(capsys, "batch", "corpus")
    code, cap = run(capsys, "batch", "corpus", "--jobs", "5000")
    assert code == 0 and cap.out == serial.out
    assert widths == [8]
    code, cap = run(capsys, "batch", DELTA5, "--jobs", "4")
    assert code == 0 and len(cap.out.splitlines()) == 2
    assert widths == [8]  # one file runs serially, with no pool


def test_batch_error_rows_and_first_error_exit(tmp_path, capsys):
    (tmp_path / "a_badlabel.cox").write_text(BAD_LABEL)
    (tmp_path / "b_spherical.cox").write_text(SPHERICAL)
    (tmp_path / "c_stuck.cox").write_text(STUCK)
    code, cap = run(capsys, "batch", str(tmp_path))
    assert code == cli.EXIT_UNSUPPORTED  # first error in sorted order wins
    lines = cap.out.splitlines()
    assert len(lines) == 4
    assert "error:" in lines[1] and "error:" in lines[2]
    assert lines[3].split("\t")[4] == "undetermined"


def test_batch_refuses_a_huge_vertex_count_in_one_error_row(tmp_path, capsys, monkeypatch):
    # a file that declares 10^12 vertices and one edge cannot be connected;
    # it is refused before one adjacency list per declared vertex is built,
    # so the rest of the batch is classified as usual
    real = diagrams.CoxeterDiagram

    def bounded(name, dim, size, *rest):
        assert size <= 1000, f"built a diagram on {size} vertices"
        return real(name, dim, size, *rest)

    monkeypatch.setattr(diagrams, "CoxeterDiagram", bounded)
    for path in glob.glob("corpus/*.cox"):
        shutil.copy(path, tmp_path)
    (tmp_path / "huge.cox").write_text("dim 3\nvertices 1000000000000\nedge 1 2 3\n")
    _, usual = run(capsys, "batch", "corpus")
    code, cap = run(capsys, "batch", str(tmp_path))
    assert code == cli.EXIT_PARSE
    lines, row = cap.out.splitlines(), "huge\t\t\t\terror: diagram is not connected\t"
    assert lines.count(row) == 1
    lines.remove(row)
    assert lines == usual.out.splitlines()


# (2^89 - 1)(2^107 - 1): 196 bits, two Mersenne primes
HUGE_RADICAND = (2**89 - 1) * (2**107 - 1)
HUGE_WEIGHT_ERROR = f"sqrt of 2^64 or more in weight expression: 'sqrt({HUGE_RADICAND})'"


def _never_factor_the_huge_radicand(monkeypatch):
    # fail at once, not after minutes, where code without the bound factors it
    def guarded(n):
        assert abs(n) != HUGE_RADICAND, "factored the huge radicand"
        return real(n)

    real = fields.factorize
    for module in (fields, localfields):
        monkeypatch.setattr(module, "factorize", guarded)


def test_classify_refuses_a_huge_weight_radicand_at_once(tmp_path, capsys, monkeypatch):
    _never_factor_the_huge_radicand(monkeypatch)
    path = tmp_path / "huge.cox"
    path.write_text("dim 2\nvertices 3\nedge 2 3 3\nedge 1 2 3\n"
                    f"edge 1 3 w sqrt({HUGE_RADICAND})\n")
    t0 = time.monotonic()
    code, cap = run(capsys, "classify", str(path))
    assert time.monotonic() - t0 < 1
    assert code == cli.EXIT_PARSE
    assert cap.err == f"error: {HUGE_WEIGHT_ERROR}\n"
    assert cap.out == ""


def test_classify_factors_no_product_of_large_weight_radicands(tmp_path, capsys, monkeypatch):
    # three weights sqrt(q), q a prime below 2^64: the trace field's classes
    # are folded, not factored, so the signature refusal comes at once
    def guarded(n):
        assert abs(n) < 2**64, f"factored a {abs(n).bit_length()}-bit number"
        return real(n)

    real = fields.factorize
    monkeypatch.setattr(fields, "factorize", guarded)
    path = tmp_path / "big.cox"
    path.write_text("dim 3\nvertices 4\nedge 1 2 w sqrt(9223372036854775783)\n"
                    "edge 2 3 w sqrt(300000000000000011)\nedge 3 4 w sqrt(5000000000000023)\n")
    code, cap = run(capsys, "classify", str(path))
    assert code == cli.EXIT_SIGNATURE
    assert cap.err == "error: not a hyperbolic polytope of dimension 3\n"


def test_batch_refuses_a_huge_weight_radicand_in_one_error_row(tmp_path, capsys, monkeypatch):
    _never_factor_the_huge_radicand(monkeypatch)
    for path in glob.glob("corpus/*.cox"):
        shutil.copy(path, tmp_path)
    (tmp_path / "huge.cox").write_text(f"dim 2\nvertices 3\nedge 1 3 w sqrt({HUGE_RADICAND})\n")
    _, usual = run(capsys, "batch", "corpus")
    code, cap = run(capsys, "batch", str(tmp_path))
    assert code == cli.EXIT_PARSE
    lines, row = cap.out.splitlines(), f"huge\t\t\t\terror: {HUGE_WEIGHT_ERROR}\t"
    assert lines.count(row) == 1
    lines.remove(row)
    assert lines == usual.out.splitlines()


def test_batch_reports_a_zero_denominator_as_a_parse_error(tmp_path, capsys):
    (tmp_path / "stuck.cox").write_text(STUCK)
    (tmp_path / "zero.cox").write_text(ZERO_DENOMINATOR)
    code, cap = run(capsys, "batch", str(tmp_path))
    assert code == cli.EXIT_PARSE
    assert cap.out.splitlines()[2].split("\t") == [
        "zero", "", "", "", "error: zero denominator in weight expression: '3/0'", ""]
    assert "Traceback" not in cap.err


def test_batch_survives_an_internal_error(tmp_path, capsys, monkeypatch):
    triangle = "dim 2\nvertices 3\nedge 1 2 3\nedge 2 3 3\nedge 1 3 4\n"
    for name in ("a_ok", "b_boom", "c_ok"):
        (tmp_path / f"{name}.cox").write_text(triangle)
    real = classify.classify_diagram

    def flaky(diagram):
        if diagram.name == "b_boom":
            raise RuntimeError("p-adic precision exhausted")
        return real(diagram)

    # worker processes are forked, so they inherit the patch
    monkeypatch.setattr(classify, "classify_diagram", flaky)
    outs = []
    for jobs in ("1", "2"):
        code, cap = run(capsys, "batch", str(tmp_path), "--jobs", jobs)
        assert code == cli.EXIT_INTERNAL
        lines = cap.out.splitlines()
        assert len(lines) == 4
        assert lines[2].split("\t")[4] == "error: internal error: RuntimeError: " \
                                            "p-adic precision exhausted"
        assert lines[1].split("\t")[4] == lines[3].split("\t")[4] == "arithmetic"
        outs.append(cap.out)
    assert outs[0] == outs[1]
    code, cap = run(capsys, "classify", str(tmp_path / "b_boom.cox"))
    assert code == cli.EXIT_INTERNAL
    assert "RuntimeError" in cap.err


def test_batch_undetermined_without_errors(tmp_path, capsys):
    (tmp_path / "stuck.cox").write_text(STUCK)
    code, _ = run(capsys, "batch", str(tmp_path), DELTA5)
    assert code == cli.EXIT_UNDETERMINED


def test_batch_empty_dir_is_empty_table(tmp_path, capsys):
    code, cap = run(capsys, "batch", str(tmp_path))
    assert code == cli.EXIT_OK
    assert cap.out.splitlines() == ["reference\tdim\ttrace_field\tdegree\tverdict\ta"]
    code, cap = run(capsys, "batch", str(tmp_path), "--json")
    assert code == cli.EXIT_OK
    assert json.loads(cap.out) == []


def run_to_exit(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, capsys.readouterr()


def test_bound_is_a_usage_error(capsys):
    # the model search reads a off the determinant; no option bounds it
    for sub in ("classify", "batch"):
        code, cap = run_to_exit(capsys, sub, DELTA5, "--bound", "5")
        assert code == cli.EXIT_PARSE
        assert "--bound" in cap.err


def test_usage_errors_exit_1(capsys):
    # argparse would exit 2, which means a non-hyperbolic signature here
    for argv, message in ((("classify", DELTA5, "--nosuch"), "unrecognized arguments"),
                          (("batch", "corpus", "--jobs", "x"), "invalid int value: 'x'"),
                          (("audit", "--prime", "2x"), "invalid int value: '2x'"),
                          ((), "required")):
        code, cap = run_to_exit(capsys, *argv)
        assert code == cli.EXIT_PARSE
        assert cap.out == ""
        assert cap.err.startswith("usage: coxarith")
        assert message in cap.err
    for argv in (("--help",), ("classify", "--help")):
        code, cap = run_to_exit(capsys, *argv)
        assert code == 0
        assert cap.out.startswith("usage: coxarith") and cap.err == ""


def test_jobs_must_be_positive(capsys):
    for bad in ("0", "-1"):
        code, cap = run(capsys, "batch", DELTA5, "--jobs", bad)
        assert code == cli.EXIT_PARSE
        assert cap.err == "error: --jobs must be at least 1\n"
        assert cap.out == ""


def test_report_json_round_trips(tmp_path, capsys):
    stuck = tmp_path / "stuck.cox"
    stuck.write_text(STUCK)
    for path in (DELTA5, str(stuck)):
        _, cap = run(capsys, "classify", path)
        j = json.loads(cap.out)
        j.pop("ms")
        assert classify.report_from_json(j).to_json() == j


def test_batch_json_mode(capsys):
    code, cap = run(capsys, "batch", DELTA5, "--json")
    assert code == 0
    results = json.loads(cap.out)
    assert len(results) == 1 and results[0]["diagram"] == "delta5"


def test_volume_ok(capsys):
    code, cap = run(capsys, "volume", "--digits", "24")
    assert code == cli.EXIT_OK
    res = json.loads(cap.out)
    assert res["match"] is True
    assert res["certified_significant_digits"] >= 20


def test_volume_digit_bounds(capsys):
    for bad in ("4", "61"):
        code, cap = run(capsys, "volume", "--digits", bad)
        assert code == cli.EXIT_PARSE
        assert "error:" in cap.err


def test_audit(capsys):
    code, cap = run(capsys, "audit", "--field", "2,3", "--prime", "2")
    assert code == 0
    j = json.loads(cap.out)
    assert j["p"] == 2
    assert j["places"] and j["pairing_matrix"]


def test_audit_where_the_norm_sampler_failed(capsys):
    # a random norm sampler once stopped short of the norm group's rank here
    code, cap = run(capsys, "audit", "--field", "7,34,38", "--prime", "2")
    assert code == 0
    j = json.loads(cap.out)
    assert j["local_class_basis"] == [7, 34, 38]
    assert len(j["pairing_matrix"]) == len(j["square_class_basis"]) == 10


def test_audit_refuses_a_huge_radicand_or_prime_before_factoring(capsys, monkeypatch):
    _never_factor_the_huge_radicand(monkeypatch)
    n = HUGE_RADICAND
    for flag, argv in (("--field", ["--field", f"2,{n}", "--prime", "2"]),
                       ("--field", ["--field", f"{-n}", "--prime", "2"]),
                       ("--prime", ["--field", "2", "--prime", str(n)]),
                       ("--prime", ["--prime", str(2**64)])):
        code, cap = run(capsys, "audit", *argv)
        assert code == cli.EXIT_PARSE
        bad = argv[argv.index(flag) + 1].split(",")[-1]
        assert cap.err == f"error: {flag} takes values below 2^64, got {bad}\n"
        assert cap.out == ""


def test_audit_rejects_composite_prime(capsys):
    for bad in ("6", "1", "0", "-3", "4", "9"):
        code, cap = run(capsys, "audit", "--prime", bad)
        assert code == cli.EXIT_PARSE
        assert cap.err == f"error: {bad} is not prime\n"
        assert cap.out == ""


def test_module_is_runnable():
    proc = subprocess.run(
        [sys.executable, "-m", "coxarith.cli", "volume", "--digits", "10"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["match"] is True
    proc = subprocess.run([sys.executable, "-m", "coxarith.cli", "volume", "--digits"],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_PARSE
    assert "expected one argument" in proc.stderr


def test_cli_imports_at_top_level_only_what_every_command_reads():
    # the classification stack (classify, batch, audit), the process pool
    # (batch --jobs N > 1), lvalues (volume) and traceback (an internal
    # error) are imported where they are used, so --help, a usage error and
    # volume compile none of the classification modules
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    top = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            top |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            top |= {"." * node.level + (node.module or alias.name) for alias in node.names}
    assert top == {"__future__", "argparse", "json", "os", "sys", "time"}
    code = ("import sys, coxarith.cli; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing', 'traceback', 'coxarith.classify', "
            "'coxarith.diagrams', 'coxarith.fields', 'coxarith.forms', 'coxarith.localfields', "
            "'coxarith.lvalues')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_volume_loads_only_cli_and_lvalues():
    code = ("import contextlib, io, sys\n"
            "from coxarith import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['volume', '--digits', '5']) == cli.EXIT_OK\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'coxarith'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == str(["coxarith", "coxarith.cli", "coxarith.lvalues"])
