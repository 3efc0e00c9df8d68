"""The benchmark's tracer hooks must resolve against the package.

``perfbench/tracing.py`` wraps module-level bindings such as
``mixedweak.maximal.flatten_cell_ranges`` and stops the benchmark when one is
gone; the benchmark's own self tests are not part of the default suite, so a
removed or renamed binding is caught here.
"""

import inspect
from pathlib import Path

import mixedweak.grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hooked_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.check_hooks() == []


def test_scan_cell_ranges_is_a_generator():
    # the tracer times a generator one step at a time, and a generator holds
    # one family at a time; a list-returning scan would do neither
    assert inspect.isgeneratorfunction(mixedweak.grid.scan_cell_ranges)
