"""The benchmark's tracer hooks must resolve against the package.

``perfbench/tracing.py`` wraps module-level bindings such as
``mixedweak.maximal.flatten_cell_ranges`` and stops the benchmark when one is
gone; the benchmark's own self tests are not part of the default suite, so a
removed or renamed binding is caught here.
"""

import ast
import inspect
from pathlib import Path

import mixedweak.cli
import mixedweak.grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(mixedweak.grid.__file__).resolve().parent


def _sources():
    """(path, syntax tree) of every package and benchmark module."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    return [(path, ast.parse(path.read_text())) for path in paths]


def _exported(tree):
    """The names a module's ``__all__`` lists."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for elt in node.value.elts
    }


def test_every_hooked_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.check_hooks() == []


def test_scan_cell_ranges_is_a_generator():
    # the tracer times a generator one step at a time, and a generator holds
    # one family at a time; a list-returning scan would do neither
    assert inspect.isgeneratorfunction(mixedweak.grid.scan_cell_ranges)


def test_traced_cli_runs_reach_every_layer(monkeypatch, tmp_path):
    # check_hooks only proves the bindings exist; a command table that held
    # its own references to the runners would leave the hooked entries
    # uncalled and the verify layer reading 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for subcommand in ("verify-thm1", "estimate", "verify-thm3"):
            argv = [subcommand, "--grid-J", "8", "--out", str(tmp_path), "--format", "json"]
            # the default indicator is not yet refinement-stable at J = 8 (exit 1)
            assert mixedweak.cli.main(argv) in (0, 1)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    # the segmented Luxemburg solver runs only inside the Orlicz maximal function
    solves = [s for s in tracer.spans if s.name == "mixedweak.young.segmented_luxemburg_norms"]
    assert solves and all(tracer.spans[s.parent].layer == "maximal" for s in solves)
    assert counts["cli.calls"] == 3
    assert counts["verify.experiments"] == 2
    assert counts["singular.calls"] == 2
    assert counts["weights.calls"] > 0 and counts["grid.calls"] > 0
    # theorem 3 runs M_Phi(fv) and M u on both grids; the Orlicz solver still
    # runs through the hooked binding, or the young layer would read 0
    assert counts["maximal.calls"] == 4
    assert counts["young.calls"] > 0


def test_every_flag_the_benchmark_passes_still_parses():
    # each subcommand takes only the flags it reads, so a flag dropped from a
    # subcommand would fail every benchmark experiment that passes it
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    commands = set(mixedweak.cli._COMMANDS)
    argvs = [
        [elt.value for elt in node.elts if isinstance(elt, ast.Constant)]
        for node in ast.walk(tree)
        if isinstance(node, ast.List) and node.elts
        and isinstance(node.elts[0], ast.Constant) and node.elts[0].value in commands
    ]
    assert len(argvs) >= 4
    parser = mixedweak.cli.build_parser()
    for subcommand, *rest in argvs:
        # the benchmark appends --out and --format to every argv
        for flag in {*(tok for tok in rest if tok.startswith("--")), "--out", "--format"}:
            value = "json" if flag == "--format" else "1"
            _, unknown = parser.parse_known_args([subcommand, flag, value])
            assert flag not in unknown, f"{subcommand} no longer takes {flag}"


def test_every_public_name_is_reached(monkeypatch):
    # a name in an ``__all__``, or a public method or property of a class it
    # lists, is there because a subcommand, a benchmark workload or another
    # package module uses it; a helper only the tests call belongs in
    # tests/oracles.py.  A method counts as reached only through an
    # attribute read or a class-body alias such as ``__call__ = eval``: a
    # bare name may belong to another function, as perfbench's ``run.check``
    # would hide a ``check`` method that only the tests call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    hooked = {part for hook in tracing.HOOKS for part in tracing._split(hook.attr) if part}
    used, read = set(hooked), set(hooked)
    exported, methods = set(), set()
    for path, tree in _sources():
        names = _exported(tree) if path.parent == PACKAGE else set()
        exported.update((path.stem, name) for name in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                read.update(stmt.value.id for stmt in node.body
                            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name))
                if node.name in names:
                    methods.update((path.stem, node.name, stmt.name) for stmt in node.body
                                   if isinstance(stmt, ast.FunctionDef)
                                   and not stmt.name.startswith("_"))
    unreached = sorted(
        [f"{module}.{name}" for module, name in exported if name not in used]
        + [f"{module}.{cls}.{name}" for module, cls, name in methods if name not in read]
    )
    assert not unreached, f"only the tests reach {', '.join(unreached)}"


def _is_record(node):
    """Whether a class is a dataclass or a NamedTuple: its fields are its parameters."""
    decorators = [dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list]
    return (any(getattr(dec, "id", None) == "dataclass" for dec in decorators)
            or any(getattr(base, "id", None) == "NamedTuple" for base in node.bases))


def _field_default(value):
    """The default expression of a field's right-hand side: ``field(default=...)`` or
    ``field(default_factory=...)`` gives its argument, ``field()`` none."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        given = {kw.arg: kw.value for kw in value.keywords}
        return given.get("default", given.get("default_factory"))
    return value


def _signatures(sources):
    """``{(module, name): [(param, position, default), ...]}`` of every exported
    function, and of every exported dataclass and NamedTuple, whose fields are
    its parameters in field order.  ``position`` is None for a keyword-only
    parameter and ``default`` None for a required one.  A class's own body is
    read, not its bases'."""
    signatures = {}
    for path, tree in sources:
        exported = _exported(tree) if path.parent == PACKAGE else set()
        for node in tree.body:
            if getattr(node, "name", None) not in exported:
                continue
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
                signatures[path.stem, node.name] = [
                    *((arg.arg, i, default) for i, (arg, default) in enumerate(zip(positional, defaults))),
                    *((arg.arg, None, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)),
                ]
            elif isinstance(node, ast.ClassDef) and _is_record(node):
                fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)
                          and "ClassVar" not in ast.unparse(stmt.annotation)]
                signatures[path.stem, node.name] = [
                    (stmt.target.id, i, _field_default(stmt.value)) for i, stmt in enumerate(fields)
                ]
    return signatures


def _calls_by_name(sources):
    """Every call in the package and the benchmark, keyed by the called name."""
    calls = {}
    for _, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, param, position):
    """Whether ``call`` passes ``param`` (at ``position`` when positional)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_of_a_public_function_is_passed():
    # a defaulted parameter of an exported function, or a defaulted field of an
    # exported dataclass or NamedTuple, that no package or benchmark call
    # passes selects a variant that only the tests use (as
    # ``LuxemburgQuery.w`` did); a call with *args or **kwargs counts as
    # passing every parameter.  Calls are matched by name, and the guard sees
    # whether a parameter is passed, not with which value: one that every call
    # passes with the same value (as ``complementary(exact=True)`` was) goes
    # unflagged here, and only the literal None is flagged, by the next test.
    sources = _sources()
    calls = _calls_by_name(sources)
    unpassed = sorted(
        f"{module}.{name}({param})"
        for (module, name), signature in _signatures(sources).items()
        for param, position, default in signature
        if default is not None
        and not any(_passes(call, param, position) for call in calls.get(name, []))
    )
    assert not unpassed, f"no package or benchmark call passes {', '.join(unpassed)}"


def _argument(call, param, position, default):
    """The expression ``call`` gives ``param``: the one it passes, else ``default``;
    None when a *args or **kwargs may hide it."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return None
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    if position is not None and len(call.args) > position:
        return call.args[position]
    return default


def test_no_parameter_of_a_public_function_is_always_passed_none():
    # a parameter of an exported function, or a field of an exported dataclass
    # or NamedTuple, that every package and benchmark call gives the literal
    # None (passed, or as its default) selects one case, and the code for
    # every other value serves only the tests, as the segmented Luxemburg
    # solver's ``weights`` did.  Calls are matched by name, and a call with
    # *args or **kwargs gives an unknown value.
    sources = _sources()
    calls = _calls_by_name(sources)
    always_none = []
    for (module, name), signature in sorted(_signatures(sources).items()):
        for param, position, default in signature:
            given = [_argument(call, param, position, default) for call in calls.get(name, [])]
            if given and all(isinstance(arg, ast.Constant) and arg.value is None for arg in given):
                always_none.append(f"{module}.{name}({param})")
    assert not always_none, f"every package and benchmark call passes None as {', '.join(always_none)}"
