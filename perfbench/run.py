"""The coxarith benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload census-warm --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it uses `src/` and `corpus/` and
builds nothing.  Workloads (closed loop, one client):

  census-warm  a seeded census of generated diagrams (census.py) classified
               in one long-lived process after a cold warm-up pass, so the
               local-model caches are full and exact arithmetic dominates.
  volume       `delta5_volume_check` at 24 and 60 digits, in-process.

With `--trace 0` the run reports the end-to-end metrics, untraced, from
work timed for `--seconds` (census-warm's set-up comes on top), every time
scaled to nominal host speed (hostspeed.py).  With
`--trace 1` it times the cold command line on the bundled corpus (every
`classify` and both batches, each a fresh process, untraced), reruns a
fixed amount of the workload under the span tracer (tracing.py), runs the
layer kernels (kernels.py) and reports the per-layer metrics, writing the
spans and a self-time table under `.perfbench/`; a traced run does a fixed
amount of work and does not use `--seconds`.  Every output is compared
with reference.json; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT = 60  # seconds; a slower child process counts as failed
# set-up samples per run; on census-warm the run's own cold pass is one
SETUP_SAMPLES = {"cli": 5, "census-warm": 3, "volume": 11}
TRACED_VOLUME_PASSES = 10
VERDICT_KEYS = {
    "arithmetic": "arithmetic",
    "quasi-arithmetic-nonarithmetic": "quasi",
    "pseudo-arithmetic-first-type": "pseudo",
    "undetermined": "undetermined",
}

sys.path.insert(0, SRC)

import census  # noqa: E402
import hostspeed  # noqa: E402
import reference  # noqa: E402


class Checks:
    """Operations attempted and failed; a failure is printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"check failed: {failed} of {attempted} in {what}", file=sys.stderr)


# -- child processes ---------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(args: list[str]) -> tuple[int | None, str, float]:
    """(exit code or None on timeout, stdout, wall seconds) of a Python child.

    The child leads its own process group, so a timeout also ends the
    workers of `batch --jobs`.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _err = proc.communicate(timeout=CHILD_TIMEOUT)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        code, out = None, ""
    return code, out, time.perf_counter() - t0


def run_child(args: list[str], checks: Checks) -> dict | None:
    code, out, _wall = run_python([os.path.join(HERE, "child.py"), *args])
    if not checks.record(code == 0 and out.strip() != "", f"child {' '.join(args)} exit {code}"):
        return None
    res = json.loads(out.strip().splitlines()[-1])
    checks.add(res["attempted"], res["failed"], f"child {' '.join(args)}")
    return res


def setup_samples(workload: str, seed: int, count: int, checks: Checks) -> list[float]:
    out = []
    for _ in range(count):
        res = run_child(["setup", workload, str(seed)], checks)
        if res is not None:
            out.append(res["setup_s"])
    return out


# -- output checks -------------------------------------------------------------


def _expected_code(verdicts) -> int:
    return 4 if "undetermined" in verdicts else 0


def check_classify(name: str, code, out: str, ref: dict, checks: Checks) -> None:
    from coxarith import classify

    want = ref["corpus"][name]
    if not checks.record(code == _expected_code([want["verdict"]]),
                         f"classify {name}: exit {code}"):
        return
    j = json.loads(out)
    checks.record(reference.json_facts(j) == want, f"classify {name}: {reference.json_facts(j)}")
    j.pop("ms", None)
    checks.record(classify.report_from_json(j).to_json() == j,
                  f"classify {name}: report_from_json round trip")


def check_batch(label: str, code, out: str, ref: dict, checks: Checks) -> None:
    corpus = ref["corpus"]
    checks.record(code == _expected_code([f["verdict"] for f in corpus.values()])
                  and out == reference.batch_tsv(corpus), f"{label}: exit {code} or stdout")


def check_round_trip(name: str, report, checks: Checks) -> None:
    from coxarith import classify

    j = report.to_json()
    checks.record(classify.report_from_json(j).to_json() == j,
                  f"census {name}: report_from_json round trip")


def check_volume(digits: int, res: dict, ref: dict, checks: Checks) -> None:
    checks.record(res["match"] and res["direct_route_consistent"]
                  and res["value"] == ref["volume"][str(digits)], f"volume {digits}: {res}")


# -- shared helpers ----------------------------------------------------------


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def classify_all(items, ref: dict, checks: Checks, samples: list | None = None) -> list:
    """Parse, classify and check every census item; the reports (None on error).

    With `samples`, each item is preceded by a host-speed kernel run and
    (name, seconds, kernel seconds) is appended for it.
    """
    from coxarith import classify, diagrams

    reports = []
    clock = time.perf_counter
    for name, text in items:
        kernel_s = hostspeed.sample() if samples is not None else 0.0
        t0 = clock()
        try:
            report = classify.classify_diagram(diagrams.parse_diagram(text, name))
        except Exception as exc:  # any exception is a failed operation, not a crash
            checks.record(False, f"census {name}: {type(exc).__name__}: {exc}")
            reports.append(None)
            continue
        if samples is not None:
            samples.append((name, clock() - t0, kernel_s))
        checks.record(reference.facts(report) == ref["pool"][name],
                      f"census {name}: {reference.facts(report)}")
        reports.append(report)
    return reports


def cold_pass(items, ref: dict, checks: Checks) -> tuple[float, list]:
    """Import coxarith, then classify and check every item once.

    Returns (seconds at nominal host speed, reports).  In a process that
    has not imported coxarith yet, the seconds are the census set-up:
    import, parse and the pass that fills the local-model caches.  child.py
    times fresh processes with this same function.
    """
    kernel_s = hostspeed.sample()
    t0 = time.perf_counter()
    from coxarith import classify  # noqa: F401
    samples = [("import", time.perf_counter() - t0, kernel_s)]
    reports = classify_all(items, ref, checks, samples)
    return sum(t for _name, t in hostspeed.scaled(samples)), reports


def census_cold(seed: int, ref: dict, checks: Checks) -> tuple[list, float, dict]:
    """The census of `seed` and its cold pass, with the round trip of every
    report checked: (items, cold pass seconds, verdict mix)."""
    items = census.census(seed, ref["pool"])
    seconds, reports = cold_pass(items, ref, checks)
    for (name, _text), report in zip(items, reports):
        if report is not None:
            check_round_trip(name, report, checks)
    mix = verdict_mix(r.verdict if r is not None else "error" for r in reports)
    print(f"census seed {seed}: {len(items)} diagrams, verdicts {mix}")
    return items, seconds, mix


def verdict_mix(verdicts) -> dict[str, int]:
    mix = {v: 0 for v in (*VERDICT_KEYS.values(), "error")}
    for v in verdicts:
        mix[VERDICT_KEYS.get(v, "error")] += 1
    return mix


# -- the cold command line, timed in traced runs ----------------------------------


def cold_cli(ref: dict, checks: Checks) -> dict:
    """The bundled corpus through the command line, every run a fresh process.

    `classify` on each file, then `batch corpus/` serially and with --jobs 2;
    all outputs checked.  Untraced, so these are plain wall times.
    """
    walls = {}
    for name in sorted(ref["corpus"]):
        code, out, walls[name] = run_python(
            ["-m", "coxarith.cli", "classify", os.path.join("corpus", name + ".cox")])
        check_classify(name, code, out, ref, checks)
    batch = ["-m", "coxarith.cli", "batch", "corpus"]
    code, serial, serial_s = run_python(batch)
    check_batch("batch", code, serial, ref, checks)
    code, out, jobs2_s = run_python(batch + ["--jobs", "2"])
    check_batch("batch --jobs 2", code, out, ref, checks)
    checks.record(out == serial, "batch stdout differs with --jobs 2")
    return {
        "cli.classify_cold_p50_s": statistics.median(walls.values()),
        "cli.classify_cold_max_s": max(walls.values()),
        "cli.batch_s": serial_s,
        "cli.batch_jobs2_s": jobs2_s,
        "cli.jobs2_speedup": serial_s / jobs2_s,
    }


# -- untraced runs: end-to-end metrics ------------------------------------------


def e2e_census(seed: int, seconds: float, ref: dict, checks: Checks) -> dict:
    """Set-up (this process's cold pass and fresh-process ones), then warm
    passes for `seconds`; a diagram's latency is the median of its passes,
    each at nominal host speed.

    A pass starts only if, at the mean pass time so far, it ends within
    `seconds`.
    """
    items, cold_s, _mix = census_cold(seed, ref, checks)
    setups = [cold_s] + setup_samples("census-warm", seed,
                                      SETUP_SAMPLES["census-warm"] - 1, checks)
    samples: list[tuple[str, float, float]] = []
    passes = 0
    t_start = time.perf_counter()
    while passes == 0 or (time.perf_counter() - t_start) * (passes + 1) / passes <= seconds:
        classify_all(items, ref, checks, samples)
        passes += 1
    latencies: dict[str, list[float]] = {}
    for name, t in hostspeed.scaled(samples):
        latencies.setdefault(name, []).append(t)
    per_item = [statistics.median(v) for v in latencies.values()]
    return {
        "setup_s": statistics.median(setups),
        "p50_ms": 1e3 * statistics.median(per_item),
        "tail_ms": 1e3 * p90(per_item),
        "items_per_s": len(per_item) / sum(per_item),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }


def volume_pass(ref: dict, checks: Checks, timed) -> None:
    """One check at each recorded precision; `timed(digits, call)` runs it."""
    from coxarith import lvalues

    for d in reference.VOLUME_DIGITS:
        timed(d, lambda: check_volume(d, lvalues.delta5_volume_check(d), ref, checks))


def e2e_volume(seed: int, seconds: float, ref: dict, checks: Checks) -> dict:
    """Passes over 24 and 60 digits for `seconds`, with the fresh-process
    set-up samples spread evenly over the same time; each precision's
    latency is the median of its checks at nominal host speed."""
    from coxarith import lvalues

    lvalues.delta5_volume_check(60)  # first call belongs to set-up
    n_setups = SETUP_SAMPLES["volume"]
    setups: list[float] = []
    samples: list[tuple[int, float, float]] = []

    def timed(digits, call):
        kernel_s = hostspeed.sample()
        t0 = time.perf_counter()
        call()
        samples.append((digits, time.perf_counter() - t0, kernel_s))

    t_start = time.perf_counter()
    while (elapsed := time.perf_counter() - t_start) < seconds:
        if len(setups) < n_setups and elapsed >= len(setups) * seconds / n_setups:
            setups += setup_samples("volume", seed, 1, checks)
        volume_pass(ref, checks, timed)
    times = hostspeed.scaled(samples)
    per_digits = {d: statistics.median(t for digits, t in times if digits == d)
                  for d in reference.VOLUME_DIGITS}
    return {
        "setup_s": statistics.median(setups),
        "p50_ms": 1e3 * per_digits[24],
        "tail_ms": 1e3 * per_digits[60],
        "items_per_s": len(per_digits) / sum(per_digits.values()),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
    }


# -- traced runs: per-layer metrics -----------------------------------------------


def untraced_then_traced(tracer, call, walls: list[float]) -> None:
    """Run `call()` untraced and then traced, adding the wall times to
    walls[0] and walls[1].

    Pairing the two at the level of one operation lets both see the same
    host speed, which can change from one second to the next.
    """
    for k, traced in enumerate((False, True)):
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            call()
        finally:
            walls[k] += time.perf_counter() - t0
            tracer.uninstall()


def traced_census(seed: int, ref: dict, checks: Checks, tracer) -> tuple[float, dict]:
    """A traced cold pass, then a warm pass with each diagram run untraced
    and traced: (trace overhead ratio, verdict mix)."""
    tracer.install()
    try:
        items, _cold_s, mix = census_cold(seed, ref, checks)
    finally:
        tracer.uninstall()
    walls = [0.0, 0.0]
    for item in items:
        untraced_then_traced(tracer, lambda: classify_all([item], ref, checks), walls)
    return walls[1] / walls[0], mix


def traced_volume(seed: int, ref: dict, checks: Checks, tracer) -> tuple[float, dict]:
    """Passes over the precisions with each check run untraced and traced."""
    from coxarith import lvalues

    lvalues.delta5_volume_check(60)
    walls = [0.0, 0.0]
    for _ in range(TRACED_VOLUME_PASSES):
        volume_pass(ref, checks, lambda _d, call: untraced_then_traced(tracer, call, walls))
    return walls[1] / walls[0], verdict_mix([])


def coverage_probe(ref: dict, checks: Checks, tracer) -> None:
    """Trace an in-process `coxarith classify corpus/delta5.cox` and a 5-digit
    volume check, so that every layer is measured in every traced run."""
    import contextlib
    import io

    from coxarith import cli, lvalues

    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["classify", os.path.join(ROOT, "corpus", "delta5.cox")])
        res = lvalues.delta5_volume_check(5)
    finally:
        tracer.uninstall()
    check_classify("delta5", code, out.getvalue(), ref, checks)
    checks.record(res["match"], "coverage probe: volume at 5 digits")


def kernel_metrics(seed: int, checks: Checks) -> dict:
    import kernels

    out = {}
    for fn in (lambda: kernels.field_kernels(seed), kernels.hurwitz_kernels):
        metrics, attempted, failed = fn()
        checks.add(attempted, failed, "layer kernels")
        out.update(metrics)
    for case in kernels.HASSE_CASES:
        res = run_child(["hasse", case, str(seed)], checks) or {"cold_ms": 0.0, "warm_us": 0.0}
        out[f"localfields.hasse_cold_ms.{case}"] = res["cold_ms"]
        out[f"localfields.hasse_warm_us.{case}"] = res["warm_us"]
    out["cli.import_s"] = statistics.median(
        setup_samples("cli", seed, SETUP_SAMPLES["cli"], checks) or [0.0])
    return out


def layer_metrics(summary, overhead: float, mix: dict) -> dict:
    s = summary
    builds = s.calls["localfields.model_build"]
    retries = s.failed["localfields.model_build"]
    sign_calls = s.calls["fields.sign_at"]
    iso_in_search = s.child_calls[("classify.model_search", "forms.isometry")]
    out = {
        "localfields.model_builds": builds,
        "localfields.model_build_s": s.inclusive["localfields.model_build"],
        "localfields.model_build_s.p2": s.tagged[("localfields.model_build", "p2")],
        "localfields.precision_retries": retries,
        "localfields.model_build_yield": (builds - retries) / builds if builds else 0.0,
        "localfields.hasse_calls": s.calls["localfields.hasse"],
        "localfields.hasse_s": s.inclusive["localfields.hasse"],
        "fields.is_square_calls": s.calls["fields.is_square"],
        "fields.is_square_s": s.inclusive["fields.is_square"],
        "fields.sign_at_calls": sign_calls,
        "fields.sign_at_s": s.inclusive["fields.sign_at"],
        "fields.sign_refine_ratio": (s.counters["fields.approx_interval"] / sign_calls
                                     if sign_calls else 0.0),
        "forms.transfer_calls": s.calls["forms.transfer"],
        "forms.transfer_s": s.inclusive["forms.transfer"],
        "forms.diagonalize_s": s.inclusive["forms.diagonalize"],
        "forms.is_admissible_s": s.inclusive["forms.is_admissible"],
        "forms.isometry_calls": s.calls["forms.isometry"],
        "forms.isometry_s": s.inclusive["forms.isometry"],
        "diagrams.parse_s": s.inclusive["diagrams.parse"],
        "diagrams.trace_field_s": s.inclusive["diagrams.trace_field"],
        "diagrams.ambient_form_s": s.inclusive["diagrams.ambient_form"],
        "classify.descend_s": s.inclusive["classify.descend"],
        "classify.model_search_s": s.inclusive["classify.model_search"],
        "classify.model_candidates": s.child_calls[("classify.model_search", "fields.is_square")],
        "classify.model_hit_ratio": (s.counters["classify.model_search.hits"] / iso_in_search
                                     if iso_in_search else 0.0),
        "lvalues.hurwitz_zeta_calls": s.calls["lvalues.hurwitz_zeta"],
        "lvalues.hurwitz_zeta_s": s.inclusive["lvalues.hurwitz_zeta"],
        "trace_overhead_ratio": overhead,
    }
    out.update({f"classify.verdicts.{k}": v for k, v in mix.items()})
    out.update({f"self_s.{m}": t for m, t in s.module_self().items()})
    return out


def per_layer(workload: str, seed: int, ref: dict, checks: Checks) -> dict:
    import tracing

    runner = {"census-warm": traced_census, "volume": traced_volume}[workload]
    tracer = tracing.Tracer()
    cold = cold_cli(ref, checks)
    overhead, mix = runner(seed, ref, checks, tracer)
    coverage_probe(ref, checks, tracer)
    dump = tracer.dump()
    summary = tracing.Summary(dump)
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}")
    tracing.write_spans(stem + ".spans.jsonl", dump)
    table = summary.table()
    with open(stem + ".selftime.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    out = layer_metrics(summary, overhead, mix)
    out.update(cold)
    out.update(kernel_metrics(seed, checks))
    return out


# -- entry point ------------------------------------------------------------------


def _declared(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("census-warm", "volume"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("src/coxarith/cli.py", "corpus") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: run from a coxarith checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = _declared(args.trace)
    ref = reference.load()
    checks = Checks()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, ref, checks)
    else:
        runner = {"census-warm": e2e_census, "volume": e2e_volume}[args.workload]
        metrics = runner(args.seed, args.seconds, ref, checks)
    metrics["fail_ratio"] = checks.failed / max(checks.attempted, 1)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {declared.get(name, '')}")
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
