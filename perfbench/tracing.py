"""Spans and counters recorded from outside the program, at module boundaries.

Every hook names a binding ``(module, attribute)`` through which one package
module calls a public function of another (``mixedweak.verify.commutator``
is the ``singular`` layer as ``verify`` sees it); the list covers the
bindings the workloads reach.  Installing the tracer
replaces each binding with a wrapper that records a span, and restores the
original on uninstall; no source under ``src/`` changes.  ``check_hooks``
refuses to run when any binding is gone, so a rename stops the benchmark
instead of silently zeroing a layer.

The one non-public hook is the array evaluation of the Young families
(``young.phi_evals``): it only counts, it records no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LAYERS = ("singular", "maximal", "young", "grid", "czd", "weights", "verify", "cli")

#: per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "singular.self_s": "s", "singular.calls": "count", "singular.cells": "count",
    "maximal.self_s": "s", "maximal.calls": "count", "maximal.cells": "count",
    "young.self_s": "s", "young.calls": "count", "young.segments": "count",
    "young.phi_evals": "count",
    "grid.self_s": "s", "grid.calls": "count",
    "czd.self_s": "s", "czd.calls": "count", "czd.cubes": "count", "czd.valid_frac": "fraction",
    "weights.self_s": "s", "weights.calls": "count",
    "verify.self_s": "s", "verify.experiments": "count",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def _grid_cells(arg_index: int) -> Callable[..., dict[str, int]]:
    def count(args, kwargs, result) -> dict[str, int]:
        return {"cells": args[arg_index].grid.N}
    return count


def _segments(args, kwargs, result) -> dict[str, int]:
    return {"segments": len(result)}


def _cubes(args, kwargs, result) -> dict[str, int]:
    return {"cubes": len(result.cubes), "decompositions": 1}


def _validation(args, kwargs, result) -> dict[str, int]:
    return {"validations_passed": int(result.passed)}


def _experiment(args, kwargs, result) -> dict[str, int]:
    return {"experiments": 1}


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str
    count: Callable[..., dict[str, int]] | None = None


_V, _C = "mixedweak.verify", "mixedweak.cli"
_VERIFY_RUNNERS = ("run_theorem1", "run_theorem2", "run_theorem3")

HOOKS: tuple[Hook, ...] = (
    Hook("cli", _C, "main"),
    # the subcommand table holds verify's runners; each entry is one experiment
    *(Hook("verify", _C, f"_RUNNERS[{name}]", _experiment) for name in _VERIFY_RUNNERS),
    Hook("verify", _C, "preflight_weights"),
    Hook("verify", _C, "build_weight"),
    Hook("verify", _C, "sample_f"),
    Hook("verify", _C, "sample_b"),
    Hook("singular", _V, "commutator", _grid_cells(1)),
    Hook("maximal", _V, "orlicz_maximal", _grid_cells(0)),
    Hook("maximal", _V, "hl_maximal", _grid_cells(0)),
    Hook("young", "mixedweak.maximal", "segmented_luxemburg_norms", _segments),
    Hook("young", "mixedweak.young", "segmented_luxemburg_norms", _segments),
    Hook("young", "mixedweak.young", "luxemburg_norm"),
    Hook("young", "mixedweak.young", "modular_inf"),
    Hook("young", "mixedweak.young", "duality_gap"),
    Hook("grid", "mixedweak.maximal", "flatten_cell_ranges"),
    Hook("grid", "mixedweak.young", "flatten_cell_ranges"),
    Hook("grid", "mixedweak.weights", "flatten_cell_ranges"),
    Hook("grid", "mixedweak.maximal", "scan_cell_ranges"),
    Hook("grid", "mixedweak.weights", "scan_cell_ranges"),
    Hook("grid", _V, "make_grid"),
    Hook("grid", _C, "make_grid"),
    Hook("grid", _V, "sample"),
    Hook("grid", "mixedweak.weights", "sample"),
    Hook("czd", _C, "cz_decompose", _cubes),
    Hook("czd", _C, "validate_decomposition", _validation),
    Hook("weights", _V, "estimate_Ap"),
    Hook("weights", _V, "estimate_Ap_u"),
    Hook("weights", _V, "bmo_norm"),
    Hook("weights", _V, "power_weight"),
    Hook("weights", _C, "bmo_norm"),
    Hook("weights", _C, "fundamental_ratio"),
)

#: Young families whose array evaluation is counted as ``young.phi_evals``
YOUNG_FAMILIES = ("Power", "LLogL", "ExpL", "ExpAlphaL", "Identity", "Step", "LegendreConjugate")


def _split(attr: str) -> tuple[str, str | None]:
    """``"_RUNNERS[run_theorem2]"`` -> ``("_RUNNERS", "run_theorem2")``."""
    if attr.endswith("]"):
        table, key = attr[:-1].split("[", 1)
        return table, key
    return attr, None


def _resolve(hook: Hook):
    """Return the hooked function and a setter for its binding; raise if it is gone."""
    module = importlib.import_module(hook.module)
    name, key = _split(hook.attr)
    if key is None:
        fn = getattr(module, name)
        if not callable(fn):
            raise TypeError(f"{hook.module}.{name} is not callable")
        return fn, lambda new: setattr(module, name, new)
    table = getattr(module, name)
    target = getattr(importlib.import_module(_V), key)
    entries = [k for k, v in table.items() if v is target]
    if not entries:
        raise LookupError(f"{hook.module}.{name} no longer holds {_V}.{key}")
    return target, lambda new: table.update({k: new for k in entries})


def check_hooks() -> list[str]:
    """Every hooked binding that no longer exists, as readable messages."""
    missing = []
    for hook in HOOKS:
        try:
            _resolve(hook)
        except (ImportError, AttributeError, LookupError, TypeError) as exc:
            missing.append(f"{hook.module}.{hook.attr}: {exc}")
    young = importlib.import_module("mixedweak.young")
    for cls in YOUNG_FAMILIES:
        if "_eval_array" not in vars(getattr(young, cls, object)):
            missing.append(f"mixedweak.young.{cls}._eval_array: not defined")
    return missing


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    experiment: str | None


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.experiment: str | None = None
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self.experiment))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, hook: Hook, fn):
        name, layer, count = f"{fn.__module__}.{fn.__qualname__}", hook.layer, hook.count

        if inspect.isgeneratorfunction(fn):
            # one span per step, so the generator's own work lands in its layer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = self._open(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    self.counts[f"{layer}.calls"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.counts[f"{layer}.calls"] += 1
            if count is not None:
                for key, n in count(args, kwargs, result).items():
                    self.counts[f"{layer}.{key}"] += n
            return result
        return wrapper

    def install(self) -> None:
        for hook in HOOKS:
            fn, put = _resolve(hook)
            put(self._wrap(hook, fn))
            self._undo.append(functools.partial(put, fn))
        young = importlib.import_module("mixedweak.young")
        for cls_name in YOUNG_FAMILIES:
            cls = getattr(young, cls_name)
            original = vars(cls)["_eval_array"]

            def counted(obj, t, _original=original):
                self.counts["young.phi_evals"] += 1
                return _original(obj, t)

            cls._eval_array = counted
            self._undo.append(functools.partial(setattr, cls, "_eval_array", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: Path, pass_index: int) -> None:
        """Append this tracer's spans, one JSON object per line."""
        with path.open("a") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"pass": pass_index, "id": i, "name": s.name,
                                     "layer": s.layer, "start": s.start, "end": s.end,
                                     "parent": s.parent, "experiment": s.experiment}) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its direct children's.

    Children of one span run one after another on one thread, so the part of
    the parent's interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, covered):
        out[s.layer] += (s.end - s.start) - c
    return out


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """One traced pass's per-layer metrics; ``trace.overhead_s`` is left at 0."""
    counts = tracer.counts
    out: dict[str, float] = {f"{layer}.self_s": s for layer, s in self_times(tracer.spans).items()}
    decompositions = counts["czd.decompositions"]
    out["czd.valid_frac"] = counts["czd.validations_passed"] / decompositions if decompositions else 0.0
    out["cli.bytes_written"] = bytes_written
    for name in LAYER_METRICS:
        out.setdefault(name, counts[name])
    return out
