"""In-memory span tracer that wraps coxarith's public functions from outside.

The benchmark never edits the library.  `Tracer.install()` replaces each
function named in `TARGETS` with a wrapper, in every loaded coxarith module
that holds a reference to it (so `from .fields import sign_at` aliases are
wrapped too), and `uninstall()` puts the originals back.  A wrapper records
one span: (id, parent id, name, diagram id, tag, start, end, returned
normally, outermost of its name); the tag is the prime of a local model or
the digits of a zeta evaluation.  Spans stay in memory until the run ends.

Self time of a span is its duration minus the time covered by its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

MODULES = ("diagrams", "fields", "forms", "localfields", "classify", "lvalues", "cli")


def _diagram_of_parse(args, kwargs):
    return kwargs.get("name", args[1] if len(args) > 1 else "diagram")


def _diagram_of_classify(args, kwargs):
    return getattr(args[0] if args else kwargs.get("diagram"), "name", None)


def _prime_tag(args, kwargs):
    return f"p{args[1] if len(args) > 1 else kwargs.get('p')}"


def _digits_tag(args, kwargs):
    return f"d{args[2] if len(args) > 2 else kwargs.get('digits')}"


def _model_found(out) -> bool:
    return out[0] is not None


# (module, attribute, span name, diagram id from the call, tag from the
# call, result counted as a hit).  The diagram id is inherited by every span
# opened below the call that set it.
TARGETS = (
    ("cli", "main", "cli.main", None, None, None),
    ("diagrams", "parse_diagram", "diagrams.parse", _diagram_of_parse, None, None),
    ("diagrams", "trace_field_of", "diagrams.trace_field", None, None, None),
    ("diagrams", "ambient_form", "diagrams.ambient_form", None, None, None),
    ("classify", "classify_diagram", "classify.classify", _diagram_of_classify, None, None),
    ("classify", "descend_field", "classify.descend", None, None, None),
    ("classify", "find_admissible_model", "classify.model_search", None, None, _model_found),
    ("forms", "transfer", "forms.transfer", None, None, None),
    ("forms", "_sym_diagonalize", "forms.diagonalize", None, None, None),
    ("forms", "is_admissible", "forms.is_admissible", None, None, None),
    ("forms", "globally_isometric", "forms.isometry", None, None, None),
    ("localfields", "LocalModel", "localfields.model_build", None, _prime_tag, None),
    ("localfields", "hasse_invariant", "localfields.hasse", None, None, None),
    ("localfields", "is_hyperbolic", "localfields.is_hyperbolic", None, None, None),
    ("fields", "is_square", "fields.is_square", None, None, None),
    ("fields", "sign_at", "fields.sign_at", None, None, None),
    ("lvalues", "hurwitz_zeta", "lvalues.hurwitz_zeta", None, _digits_tag, None),
    ("lvalues", "delta5_volume_check", "lvalues.volume_check", None, None, None),
)
# counted, not spanned: called once per refinement step inside sign_at
COUNTED = (("fields", "approx_interval", "fields.approx_interval"),)


def _modules():
    return [importlib.import_module(f"coxarith.{m}") for m in MODULES]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._diagram = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, fn, name: str, diagram_of, tag_of, hit):
        spans, stack, active, counters = self.spans, self._stack, self._active, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            prev = self._diagram
            if diagram_of is not None:
                self._diagram = diagram_of(args, kwargs)
            tag = tag_of(args, kwargs) if tag_of is not None else None
            outer = not active[name]
            active[name] += 1
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                if hit is not None and hit(out):
                    counters[name + ".hits"] += 1
                return out
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                spans[sid] = (sid, parent, name, self._diagram, tag, t0, t1, ok, outer)
                self._diagram = prev
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = _modules()
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in mods}
        plans = [(mod, attr, self._span_wrapper(getattr(by_name[mod], attr), *rest))
                 for mod, attr, *rest in TARGETS if hasattr(by_name[mod], attr)]
        plans += [(mod, attr, self._count_wrapper(getattr(by_name[mod], attr), name))
                  for mod, attr, name in COUNTED if hasattr(by_name[mod], attr)]
        for mod, attr, wrapper in plans:
            orig = getattr(by_name[mod], attr)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._saved):
            setattr(m, key, orig)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": [s for s in self.spans if s is not None],
                "counters": dict(self.counters)}


class Summary:
    """Per-name calls, inclusive and self time, failures, and child links."""

    def __init__(self, dump: dict):
        spans = dump["spans"]
        self.counters = Counter(dump["counters"])
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.child_calls: Counter = Counter()  # (parent name, child name)
        self.tagged: defaultdict = defaultdict(float)  # (name, tag): inclusive s
        child_time: defaultdict = defaultdict(float)
        names = {}
        for sid, parent, name, _diagram, _tag, t0, t1, _ok, _outer in spans:
            names[sid] = name
            if parent is not None:
                child_time[parent] += t1 - t0
        for sid, parent, name, _diagram, tag, t0, t1, ok, outer in spans:
            dur = t1 - t0
            self.calls[name] += 1
            self.failed[name] += not ok
            self.self_time[name] += dur - child_time[sid]
            if outer:
                self.inclusive[name] += dur
                if tag is not None:
                    self.tagged[(name, tag)] += dur
            if parent is not None:
                self.child_calls[(names[parent], name)] += 1

    def module_self(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, t in self.self_time.items():
            out[name.split(".", 1)[0]] += t
        return out

    def table(self) -> str:
        total = sum(self.self_time.values()) or 1.0
        lines = [f"{'span':28s} {'calls':>9s} {'incl s':>10s} {'self s':>10s} {'self %':>7s}"]
        for name in sorted(self.self_time, key=self.self_time.get, reverse=True):
            lines.append(f"{name:28s} {self.calls[name]:9d} {self.inclusive[name]:10.4f} "
                         f"{self.self_time[name]:10.4f} {100 * self.self_time[name] / total:6.1f}%")
        lines.append("")
        lines.append(f"{'module':28s} {'self s':>10s}")
        for m, t in sorted(self.module_self().items(), key=lambda kv: -kv[1]):
            lines.append(f"{m:28s} {t:10.4f}")
        return "\n".join(lines)


def write_spans(path: str, dump: dict) -> None:
    """Counters, then one JSON array per span in the tuple order above."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"counters": dump["counters"]}) + "\n")
        for s in dump["spans"]:
            fh.write(json.dumps(s) + "\n")
