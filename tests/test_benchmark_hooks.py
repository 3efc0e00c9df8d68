"""The benchmark's tracer hooks must resolve against the package.

``perfbench/tracing.py`` wraps module-level bindings such as
``mixedweak.maximal.flatten_cell_ranges`` and stops the benchmark when one is
gone; the benchmark's own self tests are not part of the default suite, so a
removed or renamed binding is caught here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hooked_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.check_hooks() == []
