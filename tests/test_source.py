"""Guards read off the source of src/coxarith/*.py with ast: no dead private
helpers, no private parameter that no call passes, no stale __all__ entries,
no floating point outside lvalues, no package import in lvalues, and towers
built and gated only where they should be."""

import ast
import pathlib
from collections import Counter

import coxarith

TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(pathlib.Path(coxarith.__file__).parent.glob("*.py"))}


def _references(node) -> Counter:
    """Names read under node: identifiers and attribute names."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_private_function_and_class_is_referenced():
    # a reference inside the definition's own body (recursion) does not count,
    # and neither does an import that nothing reads
    everywhere = sum((_references(tree) for tree in TREES.values()), Counter())
    checked, dead = 0, []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.endswith("__")):
                checked += 1
                if everywhere[node.name] == _references(node)[node.name]:
                    dead.append(f"{name}:{node.lineno} {node.name}")
    assert dead == []
    assert checked >= 40


def test_every_defaulted_parameter_of_a_private_function_is_passed():
    # a default that no call overrides is a dead branch behind a parameter.
    # A call is matched by the function's name, as a name or an attribute;
    # one with *args or **kwargs passes every parameter
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    checked, unpassed = 0, []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.endswith("__")):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if positional and positional[0].arg == "self" else 0
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            for param, index in params:
                checked += 1
                if not any(any(isinstance(a, ast.Starred) for a in call.args)
                           or any(k.arg in (None, param) for k in call.keywords)
                           or index is not None and len(call.args) > index
                           for call in calls.get(node.name, ())):
                    unpassed.append(f"{name}:{node.lineno} {node.name}({param})")
    assert unpassed == []
    assert checked >= 3


def test_every_name_in_all_is_defined():
    for name, tree in TREES.items():
        defined, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
                        if target.id == "__all__":
                            exported = ast.literal_eval(node.value)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update(alias.asname or alias.name for alias in node.names)
        assert [n for n in exported if n not in defined] == [], name


def test_nothing_is_decided_by_a_float():
    # the exact modules hold no float literal, no float() call and no true
    # division, so no float can enter a verdict; lvalues certifies its own
    # balls and is the one module left out
    floats = []
    for name, tree in TREES.items():
        if name == "lvalues.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                    or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)):
                floats.append(f"{name}:{node.lineno}")
    assert floats == []
    assert len(TREES) - 1 >= 7


def test_lvalues_imports_nothing_from_the_package():
    # `coxarith volume` compiles only cli and lvalues; an import of another
    # package module, at top level or inside a function, would add it
    own = [f"lvalues.py:{node.lineno}" for node in ast.walk(TREES["lvalues.py"])
           if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "")
                                                     .split(".")[0] == "coxarith")
           or isinstance(node, ast.Import)
           and any(alias.name.split(".")[0] == "coxarith" for alias in node.names)]
    assert own == []


def _sites(match) -> set[str]:
    """module.function of every node in src/ that `match` accepts, by the
    innermost enclosing function ("module.<module>" at top level)."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.add(f"{module}.{where}")
            visit(child, where)

    for file, tree in TREES.items():
        module = file.removesuffix(".py")
        visit(tree, "<module>")
    return found


def _callers(name: str) -> set[str]:
    """The _sites of every call of `name`, as a name or an attribute."""
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name

    return _sites(match)


def test_towers_are_built_only_by_the_tower_table():
    # _class_tower owns the one tower table; a FieldTower built elsewhere
    # would be a second tower for one field
    assert _callers("FieldTower") == {"fields._class_tower"}


def test_make_field_is_called_only_where_an_outside_value_enters():
    # make_field gates outside radicands below 2^64 before factoring them;
    # classes the library holds or derives go to _class_tower, with no gate
    assert _callers("make_field") == {
        "cli.cmd_audit", "classify.report_from_json",
        "fields.is_square", "fields.rational_square_classes", "fields.is_algebraic_integer"}


def test_prime_sets_are_read_only_off_the_forms_a_check_starts_from():
    # a transfer or a sum f + (-g) takes its finite places from the forms it
    # comes from, and finite_hasse_hyperbolic takes them from its caller, so
    # no derived form factors the norms of its own entries
    assert _callers("primes") == {
        "localfields.is_hyperbolic", "forms.globally_isometric",
        "classify.descend_field", "cli.cmd_classify"}


def test_the_ladder_factors_nothing_outside_a_forms_own_prime_set():
    # a transfer to F, K = F(sqrt a), is checked above its source form's
    # primes alone: at any other odd place every transfer block is
    # unimodular up to a harmless scaling, so classify factors no integer
    assert not {c for c in _callers("factorize") if c.startswith("classify.")}


def test_each_diagram_is_walked_once():
    # CoxeterDiagram keeps its breadth-first tree from vertex 1; the
    # connectivity check and the path products read it, not a second walk
    assert _callers("neighbors") == set()


def _mask_signed(node) -> bool:
    """x if <mask test> else -x, either way round, with x no constant: a
    conjugate's numerator, negated where a bit of its mask is set."""
    if not (isinstance(node, ast.IfExp) and any(
            isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.BitAnd)
            for sub in ast.walk(node.test))):
        return False
    for x, neg in ((node.body, node.orelse), (node.orelse, node.body)):
        if (isinstance(neg, ast.UnaryOp) and isinstance(neg.op, ast.USub)
                and not isinstance(x, ast.Constant) and ast.dump(neg.operand) == ast.dump(x)):
            return True
    return False


def test_only_the_norm_step_forms_u_squared_minus_d_v_squared():
    # inverses, signs, norms and squares all descend through _norm_step; a
    # mask-signed conjugate elsewhere is a second way to form y * sigma(y)
    assert _mask_signed(ast.parse("-n if S & h else n", mode="eval").body)
    assert not _mask_signed(ast.parse("-1 if (m >> j) & 1 else 1", mode="eval").body)
    assert _sites(_mask_signed) <= {"fields._norm_step"}
