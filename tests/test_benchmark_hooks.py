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
    # a name in an ``__all__`` is there because a subcommand, a benchmark
    # workload or another package module uses it; a helper only the tests
    # call belongs in tests/oracles.py
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    used = {part for hook in tracing.HOOKS for part in tracing._split(hook.attr) if part}
    exported = set()
    for path, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        if path.parent == PACKAGE:
            exported.update((path.stem, name) for name in _exported(tree))
    unreached = sorted(f"{module}.{name}" for module, name in exported if name not in used)
    assert not unreached, f"only the tests reach {', '.join(unreached)}"


def _passes(call, param, position):
    """Whether ``call`` passes ``param`` (at ``position`` when positional)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_of_a_public_function_is_passed():
    # a defaulted parameter of an exported function that no package or
    # benchmark call passes selects a variant that only the tests use; a call
    # with *args or **kwargs counts as passing every parameter.  Calls are
    # matched by function name, and the guard sees whether a parameter is
    # passed, not with which value: one that every call passes with the same
    # value (as ``complementary(exact=True)`` was) goes unflagged.
    sources = _sources()
    defaulted = {}
    for path, tree in sources:
        exported = _exported(tree) if path.parent == PACKAGE else set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                params = {arg.arg: i for i, arg in enumerate(positional) if i >= first}
                params.update((arg.arg, None) for arg, default in
                              zip(args.kwonlyargs, args.kw_defaults) if default is not None)
                defaulted[path.stem, node.name] = params
    calls = [node for _, tree in sources for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unpassed = sorted(
        f"{module}.{name}({param})"
        for (module, name), params in defaulted.items()
        for param, position in params.items()
        if not any(
            getattr(call.func, "id", getattr(call.func, "attr", None)) == name
            and _passes(call, param, position)
            for call in calls
        )
    )
    assert not unpassed, f"no package or benchmark call passes {', '.join(unpassed)}"
