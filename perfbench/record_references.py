"""Record the correctness references the benchmark checks against.

    python3 perfbench/record_references.py

Runs one pass of every workload on the default seed and on one held-out
seed and writes ``references.json``: per experiment the exit code and
verdict, which every seed must reproduce, and per recorded seed the values
(``sup_ratio``, cube counts, weight constants) that must match to rel 1e-3.
Re-record only when a change is meant to move these numbers, and say so.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEEDS = (0, 7)  # the default seed and the held-out one


def outcomes(name: str, seed: int, work: Path) -> dict[str, workloads.Outcome]:
    wl = workloads.build(name, seed, work)
    out = {}
    for exp in wl.experiments:
        with contextlib.redirect_stdout(io.StringIO()):
            result = exp.run()
        out[exp.id] = exp.outcome(result)
    return out


def main() -> int:
    workloads.import_program(HERE.parent)
    refs = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name in workloads.WORKLOADS:
            runs = {seed: outcomes(name, seed, Path(tmp) / f"{name}-{seed}") for seed in SEEDS}
            first = runs[SEEDS[0]]
            expected = {i: {"exit_code": o.exit_code, "verdict": o.verdict} for i, o in first.items()}
            for seed, run in runs.items():
                for i, o in run.items():
                    if (o.exit_code, o.verdict) != (expected[i]["exit_code"], expected[i]["verdict"]):
                        print(f"{name} seed {seed} {i}: verdict differs from seed {SEEDS[0]}",
                              file=sys.stderr)
                        return 1
            refs[name] = {
                "expected": expected,
                "seeds": {str(seed): {i: o.values for i, o in run.items() if o.values}
                          for seed, run in runs.items()},
            }
            print(f"{name}: {len(expected)} experiments recorded for seeds {SEEDS}")
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
