"""Benchmark for mixedweak: time to all verdicts of a workload, and where it goes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload commutator --seed 0 --seconds 30 --trace 0

One process runs one workload.  It imports the package from ``src/``, builds
the workload's inputs from ``--seed``, runs one warm-up pass (which fills the
package's caches and is checked but not timed) and then timed passes until
the next one would overrun ``--seconds``: at least three, or two pairs when
traced.  Each pass drives the real ``mixedweak.cli.main`` in-process
(reports go to a scratch directory under ``.perfbench/`` in the checkout)
plus, for ``diagnostics``, direct calls into ``mixedweak.young``.  Every experiment of every pass, the warm-up
included, is checked against ``references.json``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (one pass with every
experiment at its median time, see ``typical_pass``), ``setup_s`` (median
seconds to import numpy and the package and build the inputs, over this
process and one fresh probe process after each pass) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.LAYER_METRICS``; the spans are kept in memory
and written to ``.perfbench/trace-<workload>-seed<n>.jsonl`` at the end.
Lines before the last one give the machine facts, the pass-time quartiles
and ``fail_frac``; the last line is one JSON object.
"""

import time

_STARTED = time.perf_counter()  # the set-up clock starts before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import machine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
MIN_PASSES = 3
MIN_TRACED = 2  # pairs of untraced and traced passes
VALUE_REL_TOL = 1e-3  # the acceptance suite's pin tolerance


def run_pass(wl: workloads.Workload, tracer: tracing.Tracer | None = None):
    """Run every experiment once; return each one's seconds and raw result."""
    times, results = [], []
    sink = io.StringIO()
    for exp in wl.experiments:
        if tracer is not None:
            tracer.experiment = exp.id
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                results.append(exp.run())
        except (Exception, SystemExit) as exc:  # a failed experiment, not a failed benchmark
            results.append(exc)
        times.append(time.perf_counter() - started)
    return times, results


def typical_pass(passes: list[list[float]]) -> float:
    """Seconds of one pass with every experiment at its median time.

    On a shared host the interpreter's speed drifts by tens of percent over
    a few seconds, so whole passes differ a lot; taking the median per
    experiment and summing lets that drift average out over the pass.
    """
    return sum(statistics.median(col) for col in zip(*passes))


def check(wl: workloads.Workload, results: list, reference: dict | None, seed: int) -> list[str]:
    """One message per failed experiment; no reference means completion only."""
    failures = []
    recorded = reference["seeds"].get(str(seed), {}) if reference else {}
    for exp, res in zip(wl.experiments, results):
        problems = []
        if isinstance(res, BaseException):
            problems.append(f"raised {res!r}")
        else:
            try:
                out = exp.outcome(res)
            except (OSError, ValueError, KeyError) as exc:
                out = None
                problems.append(f"unreadable output: {exc!r}")
            if out is not None and reference is None:
                if out.exit_code not in (0, 1):
                    problems.append(f"exit code {out.exit_code}")
            elif out is not None:
                want = reference["expected"][exp.id]
                if out.exit_code != want["exit_code"] or out.verdict != want["verdict"]:
                    problems.append(f"exit {out.exit_code} verdict {out.verdict!r}, expected "
                                    f"exit {want['exit_code']} verdict {want['verdict']!r}")
                for key, ref in recorded.get(exp.id, {}).items():
                    got = out.values.get(key)
                    if got is None or not math.isclose(got, ref, rel_tol=VALUE_REL_TOL):
                        problems.append(f"{key}={got!r}, reference {ref!r}")
        if problems:
            failures.append(f"{exp.id}: " + "; ".join(problems))
    return failures


class Measurement:
    """Passes of one workload with their checks, counted as attempted/failed."""

    def __init__(self, wl: workloads.Workload, reference: dict | None, seed: int) -> None:
        self.wl, self.reference, self.seed = wl, reference, seed
        self.attempted = 0
        self.problems: list[str] = []

    def one_pass(self, tracer: tracing.Tracer | None = None) -> list[float]:
        if tracer is not None:
            tracer.install()
        try:
            times, results = run_pass(self.wl, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += len(results)
        self.problems += check(self.wl, results, self.reference, self.seed)
        return times

    def run(self, seconds: float, trace: bool, between: Callable[[], None] = lambda: None):
        """Warm-up, then passes until the next one would overrun ``seconds``.

        ``between`` runs after the warm-up and after every untraced pass.
        """
        self.one_pass()
        between()
        plain: list[list[float]] = []
        traced: list[tuple[list[float], tracing.Tracer, dict]] = []
        deadline = time.perf_counter() + seconds
        while True:
            plain.append(self.one_pass())
            between()
            step = typical_pass(plain)
            if trace:
                tracer = tracing.Tracer()
                times = self.one_pass(tracer)
                traced.append((times, tracer, tracing.layer_metrics(tracer, self.wl.bytes_written())))
                step += typical_pass([t for t, _, _ in traced])
            if len(plain) >= (MIN_TRACED if trace else MIN_PASSES) and (
                    time.perf_counter() + step > deadline):
                return plain, traced


def probe_setup(workload: str, seed: int, scratch: Path) -> float:
    """Set-up seconds measured in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(scratch)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    shutil.rmtree(scratch)
    return float(done.stdout.strip().splitlines()[-1])


def describe(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{name}: median {q2:.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "references.json").read_text())[workload]


def main(argv: list[str] | None = None, size: dict = workloads.FULL) -> dict:
    """Run one workload and return the result object (printed by ``__main__``)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = STATE / f"run-{os.getpid()}"
    try:
        workloads.import_program(ROOT)
        wl = workloads.build(args.workload, args.seed, scratch / "inputs", size)
        setup = [time.perf_counter() - _STARTED]
        missing = tracing.check_hooks()
        if missing:
            raise SystemExit("perfbench: hooked bindings are missing:\n  " + "\n  ".join(missing))
        reference = load_reference(args.workload) if size is workloads.FULL else None
        facts = machine.facts(workloads.working_set(args.workload, size))
        print("machine: " + json.dumps(facts, sort_keys=True))
        m = Measurement(wl, reference, args.seed)
        if args.trace:
            plain, traced = m.run(args.seconds, True)
        else:
            # probes spread over the run, so a slow spell of the host skews one sample, not all
            plain, traced = m.run(args.seconds, False, lambda: setup.append(
                probe_setup(args.workload, args.seed, scratch / "probe")))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(describe("pass seconds", [sum(p) for p in plain], "s"))
    print(f"wall_s (sum of per-experiment medians): {typical_pass(plain):.6g} s, "
          f"q1 {sum(statistics.quantiles(c, n=4)[0] for c in zip(*plain)):.6g}, "
          f"q3 {sum(statistics.quantiles(c, n=4)[2] for c in zip(*plain)):.6g}, n={len(plain)}")
    for problem in m.problems[:20]:
        print(f"FAILED {problem}")
    failed = len(m.problems)
    print(f"fail_frac: {failed / m.attempted:.6g} fraction ({failed} of {m.attempted} experiments)")
    if args.trace:
        traced_passes = [t for t, _, _ in traced]
        print(describe("traced pass seconds", [sum(p) for p in traced_passes], "s"))
        metrics = {name: statistics.median(t[2][name] for t in traced)
                   for name in tracing.LAYER_METRICS}
        metrics["trace.overhead_s"] = typical_pass(traced_passes) - typical_pass(plain)
        self_s = {name: v for name, v in metrics.items() if name.endswith(".self_s")}
        print(f"sum of self_s {sum(self_s.values()):.6g} s within traced pass "
              f"{typical_pass(traced_passes):.6g} s; largest {max(self_s, key=self_s.get)}")
        units = tracing.LAYER_METRICS
        spans = STATE / f"trace-{args.workload}-seed{args.seed}.jsonl"
        STATE.mkdir(exist_ok=True)
        spans.unlink(missing_ok=True)
        for i, (_, tracer, _) in enumerate(traced):
            tracer.write(spans, i)
        print(f"spans: {sum(len(t.spans) for _, t, _ in traced)} written to {spans}")
    else:
        print(describe("setup_s", setup, "s"))
        metrics = {
            "wall_s": typical_pass(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


if __name__ == "__main__":
    print(json.dumps(main()))
