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


def test_every_public_name_is_reached(monkeypatch):
    # a name in an ``__all__`` is there because a subcommand, a benchmark
    # workload or another package module uses it; a helper only the tests
    # call belongs in tests/oracles.py
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    sources = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    used = {part for hook in tracing.HOOKS for part in tracing._split(hook.attr) if part}
    exported = set()
    for path in sources:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif path.parent == PACKAGE and isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                exported.update((path.stem, elt.value) for elt in node.value.elts)
    unreached = sorted(f"{module}.{name}" for module, name in exported if name not in used)
    assert not unreached, f"only the tests reach {', '.join(unreached)}"
